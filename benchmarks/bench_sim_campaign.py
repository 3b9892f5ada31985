"""Simulation engine and campaign benchmarks.

Two runtime extensions beyond the paper are measured here:

* the simulator's event-driven step engine vs the poll-everything test
  oracle (``tests/sim/oracle.py``) on the same run (byte-identical
  ``RunResult`` required; the speedup gate is algorithmic, so it holds
  on any core count), and
* the parallel campaign layer (``run_campaign(grid, jobs=K)``) vs the
  serial loop (identical results required always; wall-clock speedup
  asserted only where the host has the cores to show one).

The published table also records the idle-skip counter on a sparse
trace -- the second mechanism (besides visiting only components with
work) that makes lightly loaded runs cheap.
"""

import os
import time
from dataclasses import asdict

from repro.harness.designs import mesh_design
from repro.sim.campaign import campaign_grid, run_campaign
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.topology.mesh import MeshTopology
from repro.traffic.injection import SyntheticTraffic, TraceTraffic
from repro.traffic.patterns import make_pattern

from benchmarks.conftest import SEED, publish, sa_effort
from tests.sim.oracle import PollEverythingSimulator

ROUNDS = 5 if sa_effort() == "paper" else 2


def _timed_run(topo, cfg, traffic_factory, simulator):
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        sim = simulator(topo, cfg, traffic_factory())
        start = time.perf_counter()
        result = sim.run()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_active_engine_speedup(capsys):
    """Event-driven engine vs poll-everything oracle, n=8 uniform random
    at low load: identical results, >= 2x serial speedup."""
    topo = MeshTopology.mesh(8)
    cfg = SimConfig(
        warmup_cycles=300, measure_cycles=1_000, max_cycles=8_000, seed=SEED
    )

    def traffic():
        return SyntheticTraffic(
            make_pattern("uniform_random", 8), 0.005, rng=SEED
        )

    active, t_active = _timed_run(topo, cfg, traffic, Simulator)
    reference, t_reference = _timed_run(topo, cfg, traffic, PollEverythingSimulator)

    # The load-bearing claim first: same run, byte for byte.
    a, r = asdict(active), asdict(reference)
    a.pop("cycles_skipped")
    r.pop("cycles_skipped")
    assert a == r

    # Idle-skip showcase: a sparse trace where the network sleeps
    # between bursts; the skip counter covers most of the window.
    trace_cfg = SimConfig(
        warmup_cycles=0, measure_cycles=6_000, max_cycles=20_000, seed=SEED
    )
    events = [(t, 0, 63, 256) for t in (0, 2_000, 5_500)]
    skip_run, t_skip = _timed_run(
        topo, trace_cfg, lambda: TraceTraffic(events), Simulator
    )
    _, t_noskip = _timed_run(
        topo, trace_cfg, lambda: TraceTraffic(events), PollEverythingSimulator
    )

    speedup = t_reference / t_active if t_active > 0 else float("inf")
    skip_speedup = t_noskip / t_skip if t_skip > 0 else float("inf")
    publish(
        capsys,
        "sim_engine_speedup",
        "\n".join(
            [
                "event-driven engine vs poll-everything oracle (n=8, "
                "uniform random, 0.005 packets/node/cycle)",
                f"  oracle:           {t_reference * 1e3:8.1f} ms",
                f"  engine:           {t_active * 1e3:8.1f} ms",
                f"  speedup:          {speedup:8.2f}x",
                "  summaries byte-identical: yes",
                "",
                "idle-skip on a 3-burst trace (6000-cycle window)",
                f"  cycles skipped:   {skip_run.cycles_skipped:8d}"
                f" of {skip_run.cycles_run}",
                f"  oracle:           {t_noskip * 1e3:8.1f} ms",
                f"  engine:           {t_skip * 1e3:8.1f} ms",
                f"  speedup:          {skip_speedup:8.2f}x",
            ]
        ),
        record={
            "uniform": {
                "n": 8, "rate": 0.005, "rounds": ROUNDS,
                "oracle_s": t_reference, "engine_s": t_active,
                "speedup": speedup, "byte_identical": True,
            },
            "sparse_trace": {
                "cycles_run": skip_run.cycles_run,
                "cycles_skipped": skip_run.cycles_skipped,
                "oracle_s": t_noskip, "engine_s": t_skip,
                "speedup": skip_speedup,
            },
        },
    )
    assert speedup >= 2.0, f"active engine only {speedup:.2f}x faster"
    assert skip_run.cycles_skipped > 4_000


def test_parallel_campaign_speedup(capsys):
    """Serial vs ``jobs=2`` campaign over a design x pattern x rate
    grid: results identical always, speedup asserted only with >= 2
    cores (a 1-core container cannot speed anything up; the parity is
    the load-bearing claim)."""
    paper = sa_effort() == "paper"
    grid = campaign_grid(
        designs=[mesh_design(8)],
        patterns=["uniform_random", "transpose"],
        rates=[0.32, 0.64, 1.28] if paper else [0.32, 0.64],
        base_seed=SEED,
        seeds_per_point=2 if paper else 1,
    )

    start = time.perf_counter()
    serial = run_campaign(grid, jobs=1)
    t_serial = time.perf_counter() - start
    start = time.perf_counter()
    fanned = run_campaign(grid, jobs=2)
    t_fanned = time.perf_counter() - start

    for a, b in zip(serial.results, fanned.results):
        assert a.key == b.key
        assert asdict(a.run) == asdict(b.run)

    speedup = t_serial / t_fanned if t_fanned > 0 else float("inf")
    cores = os.cpu_count() or 1
    publish(
        capsys,
        "sim_campaign_parallel",
        "\n".join(
            [
                f"parallel campaign speedup ({len(grid)} runs, "
                f"{cores} cpu core(s))",
                f"  serial (--jobs 1): {t_serial:8.2f} s",
                f"  fanned (--jobs 2): {t_fanned:8.2f} s",
                f"  speedup:           {speedup:8.2f}x",
                "  results byte-identical: yes",
            ]
        ),
    )
    if cores >= 2:
        assert speedup >= 1.3, (
            f"expected >= 1.3x speedup on {cores} cores, got {speedup:.2f}x"
        )
