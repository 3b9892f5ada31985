"""The benchmark's workloads: inputs from a seed, set-up and timed phase.

Input generation (:func:`make_inputs`) is pure Python and runs in the
orchestrator, so the program under test only ever sees the generated
inputs.  The in-process workloads (``optimize16``, ``exact20``,
``campaign8``) run in a fresh interpreter started by ``worker.py``:
:func:`setup` builds the program objects, :func:`timed` is the timed
phase and :func:`export` turns its raw result into JSON after the clock
stopped.  ``serve_mix`` drives a ``repro serve`` subprocess from the
orchestrator (see ``serve_mix.py``).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

WORKLOADS = ("optimize16", "exact20", "campaign8", "serve_mix")
IN_PROCESS = ("optimize16", "exact20", "campaign8")
SCALES = ("full", "tiny")

#: The exact P(8, 4) optimum, simulated as a fixed placement by
#: campaign8 so that the campaign does no search at all.
P84_OPTIMUM = ((0, 2), (0, 4), (1, 4), (2, 4), (4, 6), (4, 7), (5, 7))
P84_LIMIT = 4

#: ``full`` is the measured benchmark; ``tiny`` runs the same plumbing
#: in seconds (the benchmark's own tests use it).
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "optimize16": {"n": 16, "effort": "paper"},
        "exact20": {"n": 20, "link_limit": 2},
        "campaign8": {"n": 8, "warmup": 300, "measure": 1200,
                      "uniform_rate": 2.0, "parsec": "canneal",
                      "parsec_scale": 1.0},
        "serve_mix": {"n_place": 12, "effort": "smoke", "writes": 24,
                      "writers": 2, "hits": 200, "evals": 200,
                      "n_eval": 16, "eval_limit": 4},
    },
    "tiny": {
        "optimize16": {"n": 6, "effort": "smoke"},
        "exact20": {"n": 8, "link_limit": 2},
        "campaign8": {"n": 8, "warmup": 30, "measure": 120,
                      "uniform_rate": 2.0, "parsec": "canneal",
                      "parsec_scale": 1.0},
        "serve_mix": {"n_place": 6, "effort": "smoke", "writes": 4,
                      "writers": 2, "hits": 6, "evals": 6,
                      "n_eval": 8, "eval_limit": 2},
    },
}


def make_inputs(workload: str, seed: int, scale: str = "full") -> Dict[str, Any]:
    """The inputs of one run: a pure function of ``(workload, seed, scale)``."""
    size = dict(SIZES[scale][workload])
    if workload in ("optimize16", "exact20"):
        # exact20's exhaustive search does not depend on the seed; it is
        # still passed, so every workload takes its inputs the same way.
        return {**size, "seed": seed}
    if workload == "campaign8":
        return {**size, "seed": seed, "express": [list(link) for link in P84_OPTIMUM],
                "express_limit": P84_LIMIT}
    if workload == "serve_mix":
        return _serve_inputs(size, seed)
    raise ValueError(f"unknown workload {workload!r}")


def _serve_inputs(size: Dict[str, Any], seed: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    seeds = rng.sample(range(1, 1 << 31), size["writes"])
    # Writer k sends every writers-th request, in order (closed loop), all
    # of size n_place + k.  The server warm-starts a solve from a stored
    # design of the same size, so each writer warm-starts only from its
    # own earlier writes: the work is a function of the seed, not of how
    # the two writers happen to interleave.
    places = [
        {"n": size["n_place"] + i % size["writers"], "effort": size["effort"],
         "config": {"seed": s}}
        for i, s in enumerate(seeds)
    ]
    writers = [places[k::size["writers"]] for k in range(size["writers"])]
    reads: List[Dict[str, Any]] = [
        {"kind": "hit", "path": "/place", "body": rng.choice(places)}
        for _ in range(size["hits"])
    ]
    reads += [
        {"kind": "evaluate", "path": "/evaluate", "body": {
            "n": size["n_eval"],
            "express_links": [list(link) for link in random_placement(
                size["n_eval"], size["eval_limit"], rng)],
            "link_limit": size["eval_limit"],
        }}
        for _ in range(size["evals"])
    ]
    rng.shuffle(reads)
    return {"writers": writers, "reads": reads}


def random_placement(n: int, limit: int, rng: random.Random) -> List[Tuple[int, int]]:
    """A random express-link set whose every cross-section holds ``<= limit``
    links (the local link counts one), built by rejection."""
    counts = [1] * (n - 1)
    links = set()
    for _ in range(4 * n):
        i = rng.randrange(0, n - 2)
        j = rng.randrange(i + 2, n)
        if (i, j) in links or any(counts[k] >= limit for k in range(i, j)):
            continue
        links.add((i, j))
        for k in range(i, j):
            counts[k] += 1
    return sorted(links)


# ----------------------------------------------------------------------
# In-process workloads (run inside worker.py)
# ----------------------------------------------------------------------

def setup(workload: str, inputs: Dict[str, Any]) -> Dict[str, Any]:
    """Import the program and build what the timed phase needs."""
    import repro
    from repro.harness.designs import EFFORTS

    if workload == "optimize16":
        return {"call": repro.optimize, "n": inputs["n"],
                "params": EFFORTS[inputs["effort"]],
                "config": repro.SearchConfig(seed=inputs["seed"])}
    if workload == "exact20":
        return {"call": repro.solve_row_problem, "n": inputs["n"],
                "link_limit": inputs["link_limit"],
                "config": repro.SearchConfig(seed=inputs["seed"])}
    if workload == "campaign8":
        return {"call": repro.run_campaign, "jobs": _campaign_jobs(inputs)}
    raise ValueError(f"{workload!r} is not an in-process workload")


def _campaign_jobs(inputs: Dict[str, Any]) -> list:
    from repro.core.optimizer import design_point
    from repro.harness.designs import SchemeDesign, hfb_design, mesh_design
    from repro.sim.campaign import SimJob, TrafficSpec, derive_job_seed
    from repro.sim.config import SimConfig
    from repro.topology.row import RowPlacement

    n, seed = inputs["n"], inputs["seed"]
    express = RowPlacement(n, frozenset(tuple(link) for link in inputs["express"]))
    designs = [
        mesh_design(n),
        hfb_design(n),
        SchemeDesign("P84opt", design_point(express, inputs["express_limit"])),
    ]
    traffics = [
        TrafficSpec(kind="synthetic", pattern="uniform_random",
                    rate=inputs["uniform_rate"]),
        TrafficSpec(kind="parsec", workload=inputs["parsec"],
                    rate=inputs["parsec_scale"]),
    ]
    jobs = []
    for d_i, design in enumerate(designs):
        config = SimConfig(
            flit_bits=design.point.flit_bits,
            warmup_cycles=inputs["warmup"],
            measure_cycles=inputs["measure"],
            max_cycles=inputs["warmup"] + inputs["measure"] + 6_000,
            seed=seed,
        )
        for t_i, traffic in enumerate(traffics):
            jobs.append(SimJob(
                design=design, traffic=traffic, config=config,
                seed=derive_job_seed(seed, d_i, t_i),
                key=(design.name, traffic.label),
            ))
    return jobs


def timed(workload: str, state: Dict[str, Any]) -> Any:
    """The timed phase: one call through the public entry point."""
    if workload == "optimize16":
        return state["call"](state["n"], params=state["params"], config=state["config"])
    if workload == "exact20":
        return state["call"](state["n"], state["link_limit"], method="exact",
                             config=state["config"])
    return state["call"](state["jobs"], jobs=1)


def export(workload: str, result: Any) -> Dict[str, Any]:
    """The timed phase's result as JSON (float-hex where bits matter)."""
    if workload in ("optimize16", "exact20"):
        return {
            "n": result.n,
            "link_limit": result.link_limit,
            "express_links": [list(link) for link in sorted(result.placement.express_links)],
            "energy": result.energy.hex(),
            "total_latency": None if result.total_latency is None
            else result.total_latency.hex(),
            "head_latency": None if result.head_latency is None
            else result.head_latency.hex(),
            "evaluations": result.evaluations,
        }
    jobs = []
    for job, res in zip(result.jobs, result.results):
        run = res.run
        jobs.append({
            "key": list(job.key),
            "drained": run.drained,
            "packets_created": run.packets_created,
            "packets_done": run.packets_done,
            "cycles_run": run.cycles_run,
            "cycles_skipped": run.cycles_skipped,
            "avg_network_latency": float(run.summary.avg_network_latency).hex(),
        })
    return {"jobs": jobs}
