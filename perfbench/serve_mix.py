"""serve_mix: drive a ``repro serve`` subprocess as its HTTP clients.

Every round boots its own server on an empty store and ledger under a
fresh temporary directory, so no state crosses rounds or runs.  The
timed phase is a write phase (distinct ``/place`` requests from
``writers`` concurrent closed-loop clients) followed by a read phase
(repeated ``/place`` hits and ``/evaluate`` requests, shuffled, from
one client).  Cache counters are scraped from ``GET /metrics`` and the
server's peak RSS read from ``/proc`` after the clock stopped.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    workdir: str
    setup_s: float
    stderr_path: str


def boot(root: str, env: Dict[str, str], scratch: str,
         trace_out: Optional[str] = None) -> Server:
    """Start a server on an empty store; return once ``/healthz`` answers.

    ``setup_s`` runs from just before the interpreter is started to the
    first ``/healthz`` answer.  With ``trace_out`` the benchmark's
    launcher installs the layer wrappers first and writes its spans
    there on shutdown.
    """
    workdir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
    store, ledger = os.path.join(workdir, "designs"), os.path.join(workdir, "ledger")
    serve_args = ["serve", "--port", "0", "--store", store, "--ledger", ledger]
    if trace_out is None:
        argv = [sys.executable, "-m", "repro", *serve_args]
    else:
        argv = [sys.executable, os.path.join(HERE, "serve_launcher.py"), trace_out, *serve_args]
    stderr_path = os.path.join(workdir, "stderr.txt")
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=err, stdin=subprocess.DEVNULL)
    try:
        port = _read_port(proc, start + BOOT_TIMEOUT_S)
        status, _ = _get(port, "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        setup_s = time.perf_counter() - start
    except BaseException:
        _kill(proc)
        raise RuntimeError("server failed to boot: " + _tail(stderr_path)) from None
    return Server(proc, port, workdir, setup_s, stderr_path)


def stop(server: Server) -> None:
    """Graceful SIGINT shutdown (drains in-flight work); kill on timeout."""
    proc = server.proc
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.communicate(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill(proc)
        raise RuntimeError("server did not stop within "
                           f"{STOP_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"server exited with {proc.returncode}: "
                           + _tail(server.stderr_path))


def run_round(inputs: Dict[str, Any], server: Server, probe=None) -> Dict[str, Any]:
    """The timed phase against a booted server, then the untimed scrape.

    The host-speed ``probe`` is read at both ends of the timed phase;
    ``cpu_s`` is the CPU time the server and this client spent in it.
    """
    writes: List[List[Dict[str, Any]]] = [[] for _ in inputs["writers"]]

    def writer(k: int) -> None:
        for body in inputs["writers"][k]:
            writes[k].append(_post(server.port, "/place", body))

    threads = [threading.Thread(target=writer, args=(k,))
               for k in range(len(inputs["writers"]))]
    probe_t0 = probe.reading() if probe is not None else None
    cpu0 = time.process_time() + cpu_seconds(server.proc.pid)
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    t_write = time.perf_counter()
    if [len(done) for done in writes] != [len(todo) for todo in inputs["writers"]]:
        raise RuntimeError("a writer client stopped before sending all its requests")
    reads = []
    for read in inputs["reads"]:
        record = _post(server.port, read["path"], read["body"])
        record["kind"] = read["kind"]
        reads.append(record)
    t1 = time.perf_counter()
    cpu_s = time.process_time() + cpu_seconds(server.proc.pid) - cpu0
    probe_t1 = probe.reading() if probe is not None else None
    status, text = _get(server.port, "/metrics")
    return {
        "t0": t0, "t1": t1, "cpu_s": cpu_s, "probe_t0": probe_t0, "probe_t1": probe_t1,
        "write_s": t_write - t0, "read_s": t1 - t_write,
        "writes": [record for client in writes for record in client],
        "reads": reads,
        "counters": parse_counters(text) if status == 200 else None,
        "peak_rss_mb": vm_hwm_mb(server.proc.pid),
    }


def parse_counters(text: str) -> Dict[str, float]:
    """``serve.*`` counters from the Prometheus text of ``GET /metrics``."""
    counters: Dict[str, float] = {}
    kind = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, metric_type = line.split()
            kind[name] = metric_type
            continue
        match = re.match(r"repro_(serve_\w+?)(\{[^}]*\})? (\S+)$", line)
        if match and kind.get("repro_" + match.group(1)) == "counter":
            name = match.group(1).replace("_", ".")
            counters[name] = float(match.group(3))
    return counters


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of every thread ``pid`` ran so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` in MB (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _post(port: int, path: str, body: Dict[str, Any]) -> Dict[str, Any]:
    record: Dict[str, Any] = {"body": body, "status": None, "error": None,
                              "latency_s": float("inf"), "response": None}
    payload = json.dumps(body).encode("utf-8")
    start = time.perf_counter()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("POST", path, payload, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
    except (OSError, http.client.HTTPException) as exc:
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    latency = time.perf_counter() - start
    record["status"] = resp.status
    record["response"] = data.decode("utf-8")
    if resp.status == 200:
        record["latency_s"] = latency
    else:
        record["error"] = record["response"].strip()
    return record


def _get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read().decode("utf-8")
    finally:
        conn.close()


def _read_port(proc: subprocess.Popen, deadline: float) -> int:
    buf = b""
    fd = proc.stdout.fileno()
    while True:
        match = _LISTENING.search(buf)
        if match:
            return int(match.group(2))
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("server did not report its port")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("server exited during boot")
            buf += chunk


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _tail(path: str, lines: int = 20) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-lines:])
    except OSError:
        return ""
