"""The host-speed probe: a low-priority loop beside the workload on its core.

The speed of this host's cores moves by tens of per cent within seconds,
and each core moves on its own: a loop on one core does not follow a loop
on the other.  So ``run.py`` pins itself, and with it every process it
starts, to one CPU, and :class:`HostProbe` starts one more process there:
a fixed pure-Python loop at nice 19.  It takes about 1.5% of the core
while the workload runs, and the whole core while the workload waits.
Every pass of the loop is counted in a small shared file.

The probe's passes per second of its own CPU time over a window are the
core's speed during that window, measured at the same moments as the
workload.  ``probe_ms`` turns that into the time of the reference loop
(300,000 iterations) at that speed; ``run.py`` rescales every time it
reports to a fixed reference probe time.

Run as a script it is the probe process itself:
``python3 hostspeed.py COUNTER_FILE``.
"""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import time
from typing import Optional, Tuple

#: Iterations of one probe pass; the reference loop is
#: ``PASSES_PER_REFERENCE`` passes (300,000 iterations).
PASS_ITERATIONS = 3_000
PASSES_PER_REFERENCE = 100
PROBE_NICE = 19
#: Fewer passes than this in a window are too few to time it.
MIN_PASSES = 40
START_TIMEOUT_S = 30.0

#: ``(passes, probe CPU time in ns)`` at one moment.
Reading = Tuple[int, int]


def read(counter_path: str, pid: int) -> Reading:
    """The probe's pass count and CPU time now.

    Usable from any process that knows the counter file and the probe's
    pid (``worker.py`` reads it around its own timed phase).
    """
    with open(f"/proc/{pid}/schedstat", encoding="ascii") as fh:
        cpu_ns = int(fh.read().split()[0])
    fd = os.open(counter_path, os.O_RDONLY)
    try:
        (passes,) = struct.unpack("q", os.pread(fd, 8, 0))
    finally:
        os.close(fd)
    return passes, cpu_ns


def probe_ms(start: Reading, end: Reading) -> Optional[float]:
    """Reference-loop time in ms at the core's speed between two readings,
    or ``None`` when the probe ran too little in between to tell."""
    passes = end[0] - start[0]
    if passes < MIN_PASSES:
        return None
    return (end[1] - start[1]) / 1e6 / passes * PASSES_PER_REFERENCE


class HostProbe:
    """The probe process, started on the caller's CPU(s) and stopped by
    :meth:`stop` (it also exits by itself once its parent is gone)."""

    def __init__(self, directory: str) -> None:
        self.counter_path = os.path.join(directory, "hostspeed.counter")
        with open(self.counter_path, "wb") as fh:
            fh.write(bytes(8))
        self.proc = subprocess.Popen(
            [sys.executable, "-I", os.path.abspath(__file__), self.counter_path],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        deadline = time.perf_counter() + START_TIMEOUT_S
        while self.reading()[0] < MIN_PASSES:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("the host-speed probe did not start")
            time.sleep(0.01)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def reading(self) -> Reading:
        return read(self.counter_path, self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()


def _probe_main(counter_path: str) -> None:
    import mmap

    os.nice(PROBE_NICE)
    parent = os.getppid()
    with open(counter_path, "r+b") as fh:
        counter = mmap.mmap(fh.fileno(), 8)
    passes = 0
    while True:
        acc = 0
        for i in range(PASS_ITERATIONS):
            acc += i * i % 7
        passes += 1
        struct.pack_into("q", counter, 0, passes)
        if passes % 1000 == 0 and os.getppid() != parent:
            return


if __name__ == "__main__":
    _probe_main(sys.argv[1])
