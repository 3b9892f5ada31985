"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload optimize16 --seed 2019 --seconds 16 --trace 0

Workloads: ``optimize16``, ``exact20``, ``campaign8``, ``serve_mix``
(see README.md).  The run

1. pins itself, and so every process it starts, to one CPU and starts
   the host-speed probe beside them there (``hostspeed.py``);
2. generates the workload's inputs from ``--seed``;
3. starts one unmeasured interpreter to warm the page and bytecode
   caches, then (untraced) five set-up-only interpreters, each a set-up
   time sample;
4. runs timed rounds, each in a fresh interpreter (or against a freshly
   booted server on an empty store), until ``--seconds`` of timed phase
   are measured -- at least one round; with ``--trace 1`` one untraced
   round only;
5. with ``--trace 1`` adds one round with the layer wrappers installed;
6. checks every output outside the timed regions;
7. prints every metric by name and unit, then, as the last line, the
   JSON result ``{"correct", "attempted", "failed", "metrics"}`` --
   end-to-end metrics untraced, per-layer metrics traced.

Exit code 0 when the run completed (``correct`` tells whether every
output passed its checks); 1 when it could not run, without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

import hostspeed  # noqa: E402  (sibling modules; run.py is started as a script)
import report  # noqa: E402
import serve_mix  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

#: Set-up-only interpreters (or servers) per untraced run.
SETUP_ONLY_SPAWNS = 5
CHILD_TIMEOUT_S = 150.0
#: No new round starts once one more would end past this many seconds.
RUN_BUDGET_S = 150.0
#: Environment variables that would select a non-default kernel tier.
TIER_VARIABLES = ("REPRO_IMPL", "REPRO_NATIVE_BACKEND")
#: Probe time, in ms, of the reference host speed that times are rescaled
#: to (about the median probe of the host the sizes were taken on).
REFERENCE_PROBE_MS = 30.0
#: The probe runs alone this long before and after every set-up sample:
#: a set-up (a fraction of a second) leaves it too few passes to be timed.
LEAD_S = 0.15


class RunError(Exception):
    """The run could not complete; no result is printed."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in TIER_VARIABLES}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> Dict[str, Any]:
    import numpy

    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": sorted(os.sched_getaffinity(0))[0],
            "git_sha": sha}


def pin_to_one_cpu() -> None:
    """Pin this process, and so everything it starts, to one of its CPUs:
    the host-speed probe only tells the speed of the core it shares."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def rescale(seconds: float, probe: float, cpu_s: Optional[float] = None) -> float:
    """A time measured at probe time ``probe`` (ms), at the reference speed.

    With ``cpu_s`` only the CPU time the workload spent in the window is
    rescaled; the rest (waits, timers) does not depend on the host's speed.
    """
    cpu_s = seconds if cpu_s is None else min(cpu_s, seconds)
    return cpu_s * REFERENCE_PROBE_MS / probe + (seconds - cpu_s)


class Runner:
    """Starts the interpreters (or servers) of one workload's run.

    Every set-up sample and round carries the probe time (``probe_ms``)
    of its own window: the timed phase for a round; for a set-up sample,
    :data:`LEAD_S` of probe time on either side of it as well.
    """

    def __init__(self, workload: str, inputs: Dict[str, Any], scratch: str,
                 probe: hostspeed.HostProbe) -> None:
        self.workload = workload
        self.inputs = inputs
        self.scratch = scratch
        self.probe = probe
        self.env = child_env()

    def setup_only(self) -> Dict[str, Any]:
        """One set-up-time sample: interpreter start to first timed op."""
        lead = self.probe.reading()
        time.sleep(LEAD_S)
        if self.workload == "serve_mix":
            server = serve_mix.boot(ROOT, self.env, self.scratch)
            serve_mix.stop(server)
            rep = {"setup_s": server.setup_s}
        else:
            rep = self._spawn("setup")
        time.sleep(LEAD_S)
        rep["probe_ms"] = hostspeed.probe_ms(lead, self.probe.reading())
        return rep

    def round(self, trace_out: Optional[str] = None) -> Dict[str, Any]:
        if self.workload == "serve_mix":
            rep = self._serve_round(trace_out)
        else:
            rep = self._spawn("run", trace_out)
        rep["wall_s"] = rep["t1"] - rep["t0"]
        rep["probe_ms"] = hostspeed.probe_ms(rep["probe_t0"], rep["probe_t1"])
        return rep

    def _spawn(self, mode: str, trace_out: Optional[str] = None) -> Dict[str, Any]:
        job = {"workload": self.workload, "inputs": self.inputs, "mode": mode,
               "trace_out": trace_out,
               "probe": {"path": self.probe.counter_path, "pid": self.probe.pid}}
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")], cwd=ROOT, env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            out, err = proc.communicate(json.dumps(job), timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunError(f"{self.workload} worker exceeded {CHILD_TIMEOUT_S:.0f} s")
        if proc.returncode != 0:
            raise RunError(f"{self.workload} worker exited with {proc.returncode}:\n"
                           + err[-3000:])
        rep = json.loads(out.strip().splitlines()[-1])
        rep["setup_s"] = rep["t_ready"] - start
        return rep

    def _serve_round(self, trace_out: Optional[str]) -> Dict[str, Any]:
        server = serve_mix.boot(ROOT, self.env, self.scratch, trace_out)
        try:
            rep = serve_mix.run_round(self.inputs, server, probe=self.probe)
        finally:
            serve_mix.stop(server)
        rep["setup_s"] = server.setup_s
        rep["outputs"] = {k: rep[k] for k in ("writes", "reads", "counters")}
        if trace_out is not None:
            spans, counts, tags = tracing.read_spans(trace_out)
            rep["trace"] = tracing.aggregate(spans, rep["t0"], rep["t1"])
            rep["counts"] = counts
            rep["handle_durations"] = tracing.durations(
                spans, tags, "serve.server.handle.place", rep["t0"], rep["t1"])
        return rep


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str,
            scratch: str) -> Dict[str, Any]:
    inputs = workloads.make_inputs(workload, seed, scale)
    probe = hostspeed.HostProbe(scratch)
    try:
        return _measure(Runner(workload, inputs, scratch, probe), seed, seconds, trace)
    finally:
        probe.stop()


def _measure(runner: Runner, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    workload = runner.workload
    runner.setup_only()  # warm the page cache and bytecode caches; not measured
    first_reading = runner.probe.reading()
    started = time.perf_counter()
    setups = [runner.setup_only() for _ in range(0 if trace else SETUP_ONLY_SPAWNS)]
    # A traced run needs one untraced round only: the baseline of
    # trace.overhead_frac and the client percentiles.
    rounds: List[Dict[str, Any]] = []
    while True:
        round_start = time.perf_counter()
        rounds.append(runner.round())
        last = time.perf_counter() - round_start
        timed = sum(r["wall_s"] for r in rounds)
        if trace or timed >= seconds or time.perf_counter() - started + last > RUN_BUDGET_S:
            break
    traced = None
    if trace:
        os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
        spans_path = os.path.join(STATE, "traces", f"{workload}-seed{seed}.spans.jsonl.gz")
        traced = runner.round(trace_out=spans_path)
    # A window too short for the probe to time (tiny test sizes) takes
    # the probe time of the whole run.
    run_probe = hostspeed.probe_ms(first_reading, runner.probe.reading())
    if run_probe is None:
        raise RunError("the host-speed probe hardly ran; is the CPU taken by other work?")

    ops = []
    for r in rounds + ([traced] if traced else []):
        ops += verify.CHECKS[workload](r["outputs"])
    qualities = [report.quality(workload, r["outputs"]) for r in rounds]
    if workload in workloads.IN_PROCESS:
        # Deterministic at a fixed seed: every round, traced or not,
        # must return the same design / simulated latency bit for bit.
        every = qualities + ([report.quality(workload, traced["outputs"])] if traced else [])
        op = verify.Op("same result in every round")
        op.require(all(q == every[0] for q in every), f"results differ: {every}")
        ops.append(op)
    # The host's speed swings by tens of per cent within seconds, so every
    # time is rescaled to the reference speed by the probe time of its
    # own window on the same core.
    def probe_of(r: Dict[str, Any]) -> float:
        return r["probe_ms"] or run_probe

    def wall(r: Dict[str, Any]) -> float:
        return rescale(r["wall_s"], probe_of(r), r["cpu_s"])

    walls = [wall(r) for r in rounds]
    probe = statistics.median(probe_of(r) for r in rounds)
    if trace:
        metrics = report.layer_metrics(workload, walls, wall(traced), traced, rounds[0],
                                       qualities[0], probe)
        units = dict(report.PER_LAYER)
    else:
        metrics = report.e2e_metrics(
            [rescale(r["setup_s"], probe_of(r)) for r in setups], walls,
            [r["peak_rss_mb"] for r in rounds], sum(op.ok for op in ops), len(ops), qualities)
        units = dict(report.E2E)
    out = diagnostics(workload, rounds, qualities[0])
    if setups:
        out["setup_unscaled_s"] = statistics.median(r["setup_s"] for r in setups)
    out["wall_unscaled_s"] = statistics.median(r["wall_s"] for r in rounds)
    out["wall_cpu_frac"] = statistics.median(r["cpu_s"] / r["wall_s"] for r in rounds)
    return {
        "metrics": metrics, "units": units, "ops": ops, "rounds": rounds,
        "traced": traced, "setups": setups, "probe_ms": probe, "diagnostics": out,
    }


def diagnostics(workload: str, rounds: List[Dict[str, Any]],
                quality: Dict[str, float]) -> Dict[str, Any]:
    """The workload's own numbers under the names the paper's claims use
    (printed, not gated; see README.md)."""
    first = rounds[0]["outputs"]
    out: Dict[str, Any] = dict(quality)
    if workload in ("optimize16", "exact20"):
        out["evaluations"] = first["evaluations"]
    elif workload == "campaign8":
        out["jobs"] = len(first["jobs"])
        out["packets_done"] = sum(job["packets_done"] for job in first["jobs"])
    else:
        out.update(report.serve_client_summary(rounds[0]))
    return out


def _number(value: float) -> Optional[float]:
    return value if isinstance(value, int) or math.isfinite(value) else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed phase to measure, in whole rounds (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="'tiny' runs the plumbing in seconds (tests)")
    args = parser.parse_args(argv)
    for name in TIER_VARIABLES:
        os.environ.pop(name, None)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    pin_to_one_cpu()
    os.makedirs(os.path.join(STATE, "tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(STATE, "tmp"))
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      args.scale, scratch)
        env = environment()
    except (RunError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = res["ops"]
    failed = [op for op in ops if not op.ok]
    for op in failed[:10]:
        print(f"FAILED {op.name[:120]}: {'; '.join(op.problems)}", file=sys.stderr)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(res['rounds'])} setup_samples={len(res['setups'])}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" host.probe_ms={res['probe_ms']:.3f}")
    for name, value in res["metrics"].items():
        print(f"{name:48s} {report.format_value(value):>14s} {res['units'][name]}")
    for name, value in res["diagnostics"].items():
        print(f"# {name:46s} {report.format_value(value):>14s}")
    if res["traced"] is not None:
        print("# top self time: " + ", ".join(
            f"{name} {seconds:.3f}s" for name, seconds in report.top_self(res["traced"]["trace"])))
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": _number(value), "unit": res["units"][name]}
                    for name, value in res["metrics"].items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "env": env,
              "probe_ms": res["probe_ms"],
              "setup_samples": [r["setup_s"] for r in res["setups"]],
              "setup_probes_ms": [r["probe_ms"] for r in res["setups"]],
              "round_walls": [r["wall_s"] for r in res["rounds"]],
              "round_probes_ms": [r["probe_ms"] for r in res["rounds"]],
              "round_cpu_s": [r["cpu_s"] for r in res["rounds"]],
              "diagnostics": res["diagnostics"], **result}
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(STATE, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
