"""One in-process workload in a fresh interpreter (started by run.py).

Reads a job from stdin -- ``{"workload", "inputs", "mode", "trace_out",
"probe"}`` -- builds the workload, and prints one JSON line: ``t_ready``
(the ``time.perf_counter`` reading just before the first timed
operation; the clock is system-wide on Linux, so the parent can subtract
its spawn time) and, in ``run`` mode, the timed window with its CPU time
and the host-speed probe's readings at its ends, peak RSS, outputs and,
when traced, the per-layer reduction.
"""

from __future__ import annotations

import json
import sys
import time


def vm_hwm_mb() -> float:
    # Local on purpose: serve_mix.vm_hwm_mb would import the HTTP client
    # here, after the timed phase, and could lift the high-water mark.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    job = json.loads(sys.stdin.read())
    import workloads

    probe = job.get("probe")

    def probe_reading():
        if probe is None:
            return None
        import hostspeed  # after set-up: not part of the set-up time

        return hostspeed.read(probe["path"], probe["pid"])

    workload = job["workload"]
    tracer = None
    if job.get("trace_out"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    state = workloads.setup(workload, job["inputs"])
    t_ready = time.perf_counter()
    if job["mode"] == "setup":
        print(json.dumps({"t_ready": t_ready}))
        return 0
    if tracer is not None:
        tracer.counts.clear()  # count the timed phase only
    probe_t0 = probe_reading()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    result = workloads.timed(workload, state)
    t1 = time.perf_counter()
    cpu_s = time.process_time() - cpu0
    probe_t1 = probe_reading()
    report = {"t_ready": t_ready, "t0": t0, "t1": t1, "cpu_s": cpu_s,
              "probe_t0": probe_t0, "probe_t1": probe_t1, "peak_rss_mb": vm_hwm_mb(),
              "outputs": workloads.export(workload, result)}
    if tracer is not None:
        report["trace"] = tracing.aggregate(tracer.spans, t0, t1)
        report["counts"] = tracer.counts
        tracing.write_spans(job["trace_out"], tracer.spans, tracer.counts, tracer.tags)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
