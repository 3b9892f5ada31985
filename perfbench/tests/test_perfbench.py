"""The benchmark's own tests: plumbing smoke runs and tamper checks.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Smoke runs use ``--scale tiny``, so the whole file takes about a minute.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import report  # noqa: E402
import serve_mix  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from run import REFERENCE_PROBE_MS, child_env, rescale  # noqa: E402


def run_bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def in_process(workload: str, seed: int = 7):
    inputs = workloads.make_inputs(workload, seed, "tiny")
    state = workloads.setup(workload, inputs)
    return workloads.export(workload, workloads.timed(workload, state))


def ok_frac(ops) -> float:
    return sum(op.ok for op in ops) / len(ops)


# ----------------------------------------------------------------------
# Smoke: every workload's plumbing, untraced and traced
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = report.PER_LAYER if trace else report.E2E
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert result["metrics"]["ok_frac"]["value"] == 1.0
    else:
        assert result["metrics"]["trace.unattributed_frac"]["value"] < 1.0
    for name, _ in expected:
        assert re.search(rf"^{re.escape(name)}\s", proc.stdout, re.M), name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("optimize16", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(report.E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(report.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and len(spec["per_layer"]) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


# ----------------------------------------------------------------------
# Inputs: a pure function of the seed
# ----------------------------------------------------------------------

def test_inputs_depend_only_on_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 5) == workloads.make_inputs(workload, 5)
    a, b = workloads.make_inputs("serve_mix", 5), workloads.make_inputs("serve_mix", 6)
    assert a != b
    writes = [body for client in a["writers"] for body in client]
    assert len({json.dumps(w, sort_keys=True) for w in writes}) == len(writes) == 24
    assert sum(r["kind"] == "hit" for r in a["reads"]) == 200


def test_random_placements_respect_the_limit():
    from repro.topology.row import RowPlacement

    import random

    rng = random.Random(3)
    for _ in range(200):
        links = workloads.random_placement(16, 4, rng)
        assert RowPlacement(16, frozenset(links)).satisfies_limit(4)


# ----------------------------------------------------------------------
# Tampered outputs count as failures in ok_frac
# ----------------------------------------------------------------------

def _next_float_hex(value: str) -> str:
    import math

    return math.nextafter(float.fromhex(value), float("inf")).hex()


def test_perturbed_energy_fails_optimize_and_exact():
    out = in_process("optimize16")
    assert ok_frac(verify.check_optimize(out)) == 1.0
    bad = dict(out, energy=_next_float_hex(out["energy"]))
    assert ok_frac(verify.check_optimize(bad)) == 0.0
    bad = dict(out, total_latency=_next_float_hex(out["total_latency"]))
    assert ok_frac(verify.check_optimize(bad)) == 0.0

    out = in_process("exact20")
    assert ok_frac(verify.check_exact(out)) == 1.0
    bad = dict(out, energy=_next_float_hex(out["energy"]))
    assert ok_frac(verify.check_exact(bad)) == 0.0


def test_undrained_sim_job_fails_campaign():
    out = in_process("campaign8")
    assert ok_frac(verify.check_campaign(out)) == 1.0
    bad = copy.deepcopy(out)
    bad["jobs"][2]["drained"] = False
    ops = verify.check_campaign(bad)
    assert [op.ok for op in ops].count(False) == 1
    assert ok_frac(ops) == 5 / 6
    bad = copy.deepcopy(out)
    bad["jobs"][0]["packets_done"] = bad["jobs"][0]["packets_created"] + 1
    assert ok_frac(verify.check_campaign(bad)) == 5 / 6


@pytest.fixture(scope="module")
def serve_outputs(tmp_path_factory):
    inputs = workloads.make_inputs("serve_mix", 11, "tiny")
    server = serve_mix.boot(ROOT, child_env(), str(tmp_path_factory.mktemp("serve")))
    try:
        rep = serve_mix.run_round(inputs, server)
    finally:
        serve_mix.stop(server)
    return {k: rep[k] for k in ("writes", "reads", "counters")}


def test_serve_outputs_verify(serve_outputs):
    ops = verify.check_serve(serve_outputs)
    assert ok_frac(ops) == 1.0
    assert len(ops) == 4 + 12 + 1


def test_edited_hit_payload_fails_serve(serve_outputs):
    bad = copy.deepcopy(serve_outputs)
    hit = next(r for r in bad["reads"] if r["kind"] == "hit")
    body = json.loads(hit["response"])
    body["result"]["express_links"] = body["result"]["express_links"][:-1] or [[0, 2]]
    hit["response"] = json.dumps(body, sort_keys=True)
    ops = verify.check_serve(bad)
    assert [op.ok for op in ops].count(False) == 1


def test_wrong_evaluation_and_refused_request_fail_serve(serve_outputs):
    bad = copy.deepcopy(serve_outputs)
    evaluation = next(r for r in bad["reads"] if r["kind"] == "evaluate")
    body = json.loads(evaluation["response"])
    body["result"]["total_latency"] = _next_float_hex(body["result"]["total_latency"])
    evaluation["response"] = json.dumps(body)
    bad["writes"][1].update(status=429, response='{"error": "at capacity"}',
                            error="at capacity", latency_s=float("inf"))
    ops = verify.check_serve(bad)
    # The refused write fails itself and every hit that expected its design.
    assert not ops[1].ok and sum(not op.ok for op in ops) >= 2
    assert report.percentile([0.1, float("inf")], 0.9) == float("inf")


def test_cache_counters_must_account_for_every_place(serve_outputs):
    bad = copy.deepcopy(serve_outputs)
    bad["counters"]["serve.cache.hit"] -= 1
    ops = verify.check_serve(bad)
    assert [op.name for op in ops if not op.ok] == ["metrics"]


# ----------------------------------------------------------------------
# Host-speed probe and rescaling
# ----------------------------------------------------------------------

def test_probe_time_is_probe_cpu_per_reference_loop():
    per_reference = hostspeed.PASSES_PER_REFERENCE
    # 2 x per_reference passes in 50 ms of probe CPU time: 25 ms per loop.
    assert hostspeed.probe_ms((10, 0), (10 + 2 * per_reference, 50_000_000)) == 25.0
    assert hostspeed.probe_ms((10, 0), (10 + hostspeed.MIN_PASSES - 1, 10**9)) is None


def test_rescale_scales_only_the_cpu_part_of_a_window():
    slow = 2 * REFERENCE_PROBE_MS
    assert rescale(4.0, slow) == 2.0
    assert rescale(4.0, slow, cpu_s=3.0) == 1.5 + 1.0
    assert rescale(4.0, slow, cpu_s=4.2) == 2.0  # CPU clock rounding past the wall
    assert rescale(4.0, REFERENCE_PROBE_MS, cpu_s=1.0) == 4.0


def test_host_probe_counts_passes_at_low_priority_and_stops(tmp_path):
    probe = hostspeed.HostProbe(str(tmp_path))
    try:
        first = probe.reading()
        deadline = time.time() + 30
        while probe.reading()[0] < first[0] + hostspeed.MIN_PASSES and time.time() < deadline:
            time.sleep(0.05)
        probe_ms = hostspeed.probe_ms(first, probe.reading())
        assert probe_ms is not None and 1.0 < probe_ms < 1000.0
        with open(f"/proc/{probe.pid}/stat", encoding="ascii") as fh:
            assert int(fh.read().rsplit(")", 1)[1].split()[16]) == hostspeed.PROBE_NICE
    finally:
        probe.stop()
    assert probe.proc.returncode is not None


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

def test_aggregate_self_time_and_coverage():
    spans = [
        (1, None, "core.optimizer.optimize", 0.0, 10.0),
        (2, 1, "core.annealing.anneal", 1.0, 9.0),
        (3, 2, "core.connection_matrix.decode", 2.0, 5.0),
        (4, None, "core.latency.row_objective", 12.0, 13.0),
        (5, None, "sim.engine.run", 30.0, 31.0),  # outside the window
    ]
    agg = tracing.aggregate(spans, 0.0, 20.0)
    assert agg["names"]["core.optimizer.optimize"]["self_s"] == 2.0
    assert agg["names"]["core.annealing.anneal"]["self_s"] == 5.0
    assert agg["layers"]["core.connection_matrix"] == 3.0
    assert "sim.engine.run" not in agg["names"]
    assert agg["covered_s"] == 11.0 and agg["window_s"] == 20.0


def test_wrappers_nest_generators_and_coroutines():
    tracer = tracing.Tracer()

    def gen(k):
        yield from range(k)

    async def handler(x):
        return await asyncio.sleep(0, x)

    outer = tracer.wrap("core.optimizer.optimize", lambda: list(traced_gen(3)))
    traced_gen = tracer.wrap("core.connection_matrix.iter_unique_placements", gen,
                             per_item="items")
    assert outer() == [0, 1, 2]
    assert asyncio.run(tracer.wrap("serve.server.handle.place", handler)(5)) == 5
    names = [s[2] for s in tracer.spans]
    assert names.count("core.connection_matrix.iter_unique_placements") == 4
    parent = next(s[0] for s in tracer.spans if s[2] == "core.optimizer.optimize")
    assert all(s[1] == parent for s in tracer.spans if s[2].endswith("placements"))
    assert tracer.counts["items"] == 3


def test_install_patches_functions_where_callers_look_them_up():
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import tracing, repro.core.optimizer as opt, repro.core.annealing as ann\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "assert opt.anneal is ann.anneal and opt.anneal.__wrapped__ is not None\n"
        "import repro\n"
        "repro.solve_row_problem(6, 2, config=repro.SearchConfig(seed=1))\n"
        "names = {s[2] for s in t.spans}\n"
        "assert {'core.annealing.anneal', 'core.connection_matrix.decode',\n"
        "        'core.divide_conquer.initial_solution'} <= names, names\n"
    ) % (BENCH, os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
