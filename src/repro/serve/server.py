"""Placement-as-a-service: the async HTTP/JSON application.

:class:`ServeApp` is transport-independent: :meth:`ServeApp.handle`
maps ``(method, path, body)`` to ``(status, content type, payload,
headers)``, so tests drive it in-process while
:class:`HttpServer` speaks HTTP/1.1 over ``asyncio.start_server``
(stdlib only -- no framework dependency).

Endpoints
---------
``POST /place``
    Full design search (``repro.optimize``) through the design cache:
    exact identity hits return the stored result in O(1); concurrent
    identical requests compute once (single-flight); a miss computes
    exactly what ``repro optimize`` computes for the same key, whatever
    else the store holds.
``POST /evaluate``
    Price one placement; concurrent requests coalesce into one
    population kernel call (:mod:`repro.serve.batcher`).
``POST /campaign``
    A simulation campaign grid (:mod:`repro.sim.campaign`).
``GET /runs/<id>``
    The run-ledger manifest recorded for a served computation.
``GET /metrics``
    Prometheus text (:func:`repro.obs.metrics.render_prometheus`).
``GET /healthz``
    Liveness + drain state, for boot scripts.

Robustness
----------
Every body field is type- and range-checked before any work is
queued: a malformed field is a 400 that names it, never a 500.
Per-request deadlines (``deadline_s`` in the body, capped by the
server) return 504 while the underlying computation continues and
still populates the cache; a bounded in-flight budget returns 429 with
``Retry-After``; shutdown drains in-flight work behind 503s.  Searches
and campaigns run in-process (``jobs`` is accepted but not honoured:
results never depend on it), so ``capacity`` alone bounds the
server's concurrency and no request can make it fork.  Every
request increments ``serve.*`` counters and every computed design is
recorded in the run ledger, so the obs stack is the service telemetry.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.api import SearchConfig
from repro.core.optimizer import METHODS, optimize
from repro.obs.ledger import (
    RunLedger,
    digest_parts,
    optimize_params,
    sweep_digest,
)
from repro.obs.metrics import MetricsRegistry, render_prometheus
from repro.routing.shortest_path import HopCostModel
from repro.serve.batcher import EvaluateBatcher
from repro.serve.store import DesignStore, StoreEntry
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError, InvalidPlacementError

#: Body fields every POST endpoint understands.
_COMMON_FIELDS = {"deadline_s"}

#: Largest mesh side a request may name.  Pricing one n x n row
#: allocates O(n^2) floats and runs O(n^3) relaxations, so an unbounded
#: ``n`` is a memory and CPU exhaustion vector (the canonical placement
#: encoding itself stops at 65535).
MAX_N = 1024

JSON = "application/json"
TEXT = "text/plain; version=0.0.4; charset=utf-8"

Response = Tuple[int, str, bytes, Dict[str, str]]


class RequestError(Exception):
    """A malformed request (maps to HTTP 400)."""


def _is_int(value: Any, minimum: int, maximum: Optional[int] = None) -> bool:
    """An integer (not a bool) in ``[minimum, maximum]`` (no upper bound
    for ``maximum=None``)."""
    return (not isinstance(value, bool) and isinstance(value, int)
            and value >= minimum and (maximum is None or value <= maximum))


def _is_number(value: Any) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float))


def _int_field(body: Dict, name: str, default: Any, minimum: int,
               maximum: Optional[int] = None) -> int:
    """``body[name]`` (or ``default``) as an integer in
    ``[minimum, maximum]`` (no upper bound for ``maximum=None``)."""
    value = body.get(name, default)
    if not _is_int(value, minimum, maximum):
        most = "" if maximum is None else f" and <= {maximum}"
        raise RequestError(
            f"{name} must be an integer >= {minimum}{most}, got {value!r}"
        )
    return value


def _list_field(body: Dict, name: str, default: List, valid, expected: str) -> List:
    """``body[name]`` as a non-empty list whose items all pass ``valid``
    (absent or ``null``: ``default``)."""
    value = body.get(name)
    if value is None:
        return default
    if not isinstance(value, list) or not value or not all(map(valid, value)):
        raise RequestError(
            f"{name} must be a non-empty list of {expected}, got {value!r}"
        )
    return value


def _json_bytes(obj: Any) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


class ServeApp:
    """The placement service: cache-backed solvers behind five routes."""

    def __init__(
        self,
        store: Optional[DesignStore] = None,
        registry: Optional[MetricsRegistry] = None,
        ledger: Optional[RunLedger] = None,
        *,
        capacity: int = 4,
        queue_limit: int = 256,
        default_deadline_s: float = 60.0,
        max_deadline_s: float = 600.0,
        default_effort: str = "paper",
        default_seed: Optional[int] = 2019,
        workers: Optional[int] = None,
    ) -> None:
        # Explicit None check: DesignStore has __len__, so an *empty*
        # store is falsy and `store or DesignStore()` would discard it.
        self.store = store if store is not None else DesignStore()
        self.metrics = registry or MetricsRegistry()
        self.ledger = ledger
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.default_deadline_s = default_deadline_s
        self.max_deadline_s = max_deadline_s
        self.default_effort = default_effort
        self.default_seed = default_seed
        self.executor = ThreadPoolExecutor(
            max_workers=workers or max(2, capacity),
            thread_name_prefix="repro-serve",
        )
        self.batcher = EvaluateBatcher(self.metrics, executor=self.executor)
        self.draining = False
        self._active = 0
        self._inflight: Dict[str, asyncio.Task] = {}

    # -- lifecycle -----------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no search or evaluation work is in flight."""
        return (
            self._active == 0
            and not self._inflight
            and not self.batcher._pending
        )

    async def shutdown(self) -> None:
        """Drain in-flight work, then release the worker pool.

        New requests are refused with 503 the moment draining starts;
        everything already admitted runs to completion (and still
        lands in the cache/ledger) before the pool closes.
        """
        self.draining = True
        tasks = list(self._inflight.values())
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await self.batcher.drain()
        self.executor.shutdown(wait=True)

    # -- routing -------------------------------------------------------
    async def handle(self, method: str, path: str, body: bytes = b"") -> Response:
        """Route one request; the transport-independent entry point."""
        self.metrics.counter("serve.requests").inc()
        try:
            if method == "POST" and path == "/place":
                self.metrics.counter("serve.request.place").inc()
                return await self._handle_place(self._parse_body(body))
            if method == "POST" and path == "/evaluate":
                self.metrics.counter("serve.request.evaluate").inc()
                return await self._handle_evaluate(self._parse_body(body))
            if method == "POST" and path == "/campaign":
                self.metrics.counter("serve.request.campaign").inc()
                return await self._handle_campaign(self._parse_body(body))
            if method == "GET" and path.startswith("/runs/"):
                self.metrics.counter("serve.request.runs").inc()
                return self._handle_runs(path[len("/runs/"):])
            if method == "GET" and path == "/metrics":
                self.metrics.counter("serve.request.metrics").inc()
                return self._handle_metrics()
            if method == "GET" and path == "/healthz":
                return (200, JSON, _json_bytes(
                    {"status": "draining" if self.draining else "ok",
                     "inflight": self._active,
                     "cached_designs": len(self.store)}
                ), {})
            return self._error(404, f"no route for {method} {path}")
        except RequestError as exc:
            self.metrics.counter("serve.errors.bad_request").inc()
            return self._error(400, str(exc))
        except (ConfigurationError, InvalidPlacementError) as exc:
            self.metrics.counter("serve.errors.bad_request").inc()
            return self._error(400, str(exc))
        except asyncio.TimeoutError:
            self.metrics.counter("serve.rejected.deadline").inc()
            return self._error(504, "deadline exceeded; the computation "
                               "continues and will populate the cache")
        except Exception as exc:  # noqa: BLE001 - service must not die
            self.metrics.counter("serve.errors.internal").inc()
            return self._error(500, f"{type(exc).__name__}: {exc}")

    def _error(self, status: int, message: str,
               headers: Optional[Dict[str, str]] = None) -> Response:
        return (status, JSON, _json_bytes({"error": message}), headers or {})

    @staticmethod
    def _parse_body(body: bytes) -> Dict:
        if not body:
            return {}
        try:
            data = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"body is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise RequestError("request body must be a JSON object")
        return data

    def _deadline(self, body: Dict) -> float:
        deadline = body.get("deadline_s", self.default_deadline_s)
        if not _is_number(deadline):
            raise RequestError(f"deadline_s must be a number, got "
                               f"{deadline!r}")
        if not deadline > 0:  # also rejects NaN
            raise RequestError(f"deadline_s must be positive, got {deadline}")
        return float(min(deadline, self.max_deadline_s))

    # -- /place --------------------------------------------------------
    def _place_spec(self, body: Dict) -> Dict:
        known = {"n", "method", "effort", "config",
                 "link_limits"} | _COMMON_FIELDS
        unknown = sorted(set(body) - known)
        if unknown:
            raise RequestError(f"unknown /place field(s) {unknown}; "
                               f"known: {sorted(known)}")
        if "n" not in body:
            raise RequestError("/place requires 'n' (mesh size)")
        n = _int_field(body, "n", None, 2, MAX_N)
        method = body.get("method", "dc_sa")
        if method not in METHODS:
            raise RequestError(
                f"unknown method {method!r}; expected one of {METHODS}"
            )
        effort = self._effort(body)
        config = body.get("config")
        if config is None:
            config = {}
        if not isinstance(config, dict):
            raise RequestError(f"config must be a JSON object, got {config!r}")
        # jobs is validated but not honoured: a served search never
        # forks, and results (and the store key) never depend on it.
        cfg = SearchConfig.from_json(
            {"seed": self.default_seed, **config}
        ).with_updates(jobs=1)
        link_limits = _list_field(body, "link_limits", None,
                                  lambda c: _is_int(c, 1), "integers >= 1")
        params = optimize_params(n, method, effort, cfg.space)
        if link_limits is not None:
            params["link_limits"] = list(link_limits)
            link_limits = tuple(link_limits)
        return {
            "n": n, "method": method, "effort": effort, "config": cfg,
            "link_limits": link_limits, "params": params,
        }

    def _effort(self, body: Dict) -> str:
        from repro.harness.designs import EFFORTS

        effort = body.get("effort", self.default_effort)
        if not isinstance(effort, str) or effort not in EFFORTS:
            raise RequestError(
                f"unknown effort {effort!r}; expected one of {sorted(EFFORTS)}"
            )
        return effort

    async def _handle_place(self, body: Dict) -> Response:
        deadline = self._deadline(body)
        spec = self._place_spec(body)
        cfg: SearchConfig = spec["config"]
        key = self.store.key_for("optimize", spec["params"], cfg, cfg.seed)
        try:
            cached = self.store.get(key)
        except ConfigurationError:
            # An entry this version cannot read is a miss: the
            # recompute below overwrites it atomically.
            self.metrics.counter("serve.cache.corrupt").inc()
            cached = None
        if cached is not None:
            self.metrics.counter("serve.cache.hit").inc()
            return self._place_response(cached, "hit")
        inflight = self._inflight.get(key)
        if inflight is not None:
            # Single-flight: identical concurrent requests share one
            # computation.  shield() keeps this waiter's deadline from
            # cancelling work other requests (and the cache) depend on.
            self.metrics.counter("serve.cache.coalesced").inc()
            entry = await asyncio.wait_for(
                asyncio.shield(inflight), deadline
            )
            return self._place_response(entry, "coalesced")
        if self.draining:
            self.metrics.counter("serve.rejected.draining").inc()
            return self._error(503, "server is draining",
                               {"Retry-After": "5"})
        if self._active >= self.capacity:
            self.metrics.counter("serve.rejected.backpressure").inc()
            return self._error(
                429,
                f"at capacity ({self.capacity} searches in flight)",
                {"Retry-After": "1"},
            )
        self.metrics.counter("serve.cache.miss").inc()
        task = asyncio.get_running_loop().create_task(
            self._compute_place(key, spec)
        )
        self._inflight[key] = task
        entry = await asyncio.wait_for(asyncio.shield(task), deadline)
        return self._place_response(entry, "miss")

    async def _compute_place(self, key: str, spec: Dict) -> StoreEntry:
        from repro.harness.designs import EFFORTS

        self._active += 1
        try:
            cfg: SearchConfig = spec["config"]
            loop = asyncio.get_running_loop()
            start = time.perf_counter()
            result = await loop.run_in_executor(
                self.executor,
                functools.partial(
                    optimize,
                    spec["n"],
                    method=spec["method"],
                    params=EFFORTS[spec["effort"]],
                    link_limits=spec["link_limits"],
                    config=cfg,
                ),
            )
            wall = time.perf_counter() - start
            self.metrics.quantile("serve.place.wall_s", (0.5, 0.9)).observe(wall)
            digest = sweep_digest(result.sweep)
            entry = self.store.put(
                "optimize", spec["params"], cfg, cfg.seed, result, digest,
                key=key,
            )
            if self.ledger is not None:
                self.ledger.record(
                    kind="optimize", params=spec["params"], config=cfg,
                    seed=cfg.seed, wall_time_s=wall,
                    results={
                        "best_link_limit": result.link_limit,
                        "best_flit_bits": result.flit_bits,
                        "best_total_latency": result.total_latency,
                        "express_links": len(result.express_links),
                    },
                    result_digest=digest, run_id=key,
                )
            return entry
        finally:
            self._active -= 1
            self._inflight.pop(key, None)

    def _place_response(self, entry: StoreEntry, cache: str) -> Response:
        return (200, JSON, _json_bytes({
            "key": entry.key,
            "cache": cache,
            "result_digest": entry.result_digest,
            "wall_time_s": entry.wall_time_s,
            "result": entry.result.to_json(),
        }), {})

    # -- /evaluate -----------------------------------------------------
    def _evaluate_spec(self, body: Dict) -> Tuple[RowPlacement, Optional[int],
                                                  Optional[tuple]]:
        known = {"n", "express_links", "placement_row", "link_limit",
                 "weights"} | _COMMON_FIELDS
        unknown = sorted(set(body) - known)
        if unknown:
            raise RequestError(f"unknown /evaluate field(s) {unknown}; "
                               f"known: {sorted(known)}")
        if "placement_row" in body:
            row = body["placement_row"]
            try:
                data = bytes.fromhex(row)
            except (TypeError, ValueError):
                raise RequestError(
                    f"placement_row must be canonical placement bytes as "
                    f"hex, got {row!r}"
                ) from None
            placement = RowPlacement.from_canonical_bytes(data)
        elif "n" in body:
            n = _int_field(body, "n", None, 2, MAX_N)
            links = body.get("express_links", [])
            if not isinstance(links, list) or not all(
                isinstance(link, list) and len(link) == 2
                and all(isinstance(i, int) and not isinstance(i, bool)
                        for i in link)
                for link in links
            ):
                raise RequestError(f"express_links must be a list of [i, j] "
                                   f"integer pairs, got {links!r}")
            placement = RowPlacement(
                n=n, express_links=frozenset(tuple(link) for link in links),
            )
        else:
            raise RequestError("/evaluate requires 'placement_row' (canonical "
                               "bytes hex) or 'n' + 'express_links'")
        link_limit = body.get("link_limit")
        if link_limit is not None:
            link_limit = _int_field(body, "link_limit", None, 1)
        weights = body.get("weights")
        if weights is not None:
            # Finite and within float range: 10**400 is a JSON int too.
            if not isinstance(weights, list) or not all(
                isinstance(row, list) and all(
                    _is_number(x) and 0 <= x <= sys.float_info.max
                    for x in row)
                for row in weights
            ):
                raise RequestError("weights must be an n x n matrix of "
                                   "finite numbers >= 0")
            n = placement.n
            if len(weights) != n or any(len(row) != n for row in weights):
                raise RequestError(f"weights must be {n}x{n} for this "
                                   "placement")
            weights = tuple(tuple(float(x) for x in row) for row in weights)
            total = sum(x for row in weights for x in row)
            if total <= 0:
                raise RequestError("weights must have positive sum")
            # No placement's distances exceed the plain mesh row's, whose
            # largest is n - 1 unit hops: below this bound (with 2x
            # headroom for rounding) the weighted distance sum is finite.
            if not math.isfinite(2.0 * total * (n - 1) * HopCostModel().hop_cost(1)):
                raise RequestError("weights sum is too large: the weighted "
                                   "distance sum would overflow")
        return placement, link_limit, weights

    async def _handle_evaluate(self, body: Dict) -> Response:
        deadline = self._deadline(body)
        placement, link_limit, weights = self._evaluate_spec(body)
        if self.draining:
            self.metrics.counter("serve.rejected.draining").inc()
            return self._error(503, "server is draining",
                               {"Retry-After": "5"})
        if len(self.batcher._pending) >= self.queue_limit:
            self.metrics.counter("serve.rejected.backpressure").inc()
            return self._error(
                429,
                f"evaluate queue full ({self.queue_limit} pending)",
                {"Retry-After": "1"},
            )
        result = await asyncio.wait_for(
            self.batcher.evaluate(placement, link_limit, weights), deadline
        )
        return (200, JSON, _json_bytes({
            "placement_row": placement.canonical_bytes().hex(),
            "result": result.to_json(),
        }), {})

    # -- /campaign -----------------------------------------------------
    async def _handle_campaign(self, body: Dict) -> Response:
        known = {"n", "schemes", "patterns", "rates", "seeds", "warmup",
                 "measure", "effort", "seed", "jobs"} | _COMMON_FIELDS
        unknown = sorted(set(body) - known)
        if unknown:
            raise RequestError(f"unknown /campaign field(s) {unknown}; "
                               f"known: {sorted(known)}")
        if "n" not in body:
            raise RequestError("/campaign requires 'n' (mesh size)")
        spec = self._campaign_spec(body)
        deadline = self._deadline(body)
        if self.draining:
            self.metrics.counter("serve.rejected.draining").inc()
            return self._error(503, "server is draining",
                               {"Retry-After": "5"})
        if self._active >= self.capacity:
            self.metrics.counter("serve.rejected.backpressure").inc()
            return self._error(
                429,
                f"at capacity ({self.capacity} searches in flight)",
                {"Retry-After": "1"},
            )
        task = asyncio.get_running_loop().create_task(
            self._compute_campaign(spec)
        )
        payload = await asyncio.wait_for(asyncio.shield(task), deadline)
        return (200, JSON, _json_bytes(payload), {})

    def _campaign_spec(self, body: Dict) -> Dict:
        """The validated campaign grid of a ``/campaign`` body."""
        from repro.cli import SCHEMES
        from repro.traffic.patterns import PATTERNS

        n = _int_field(body, "n", None, 2, MAX_N)

        def known(names):
            return lambda item: isinstance(item, str) and item in names

        def rate(item):
            # Aggregate packets/cycle network-wide: at most one per node.
            return _is_number(item) and 0 < item <= n * n

        spec = {
            "n": n,
            "schemes": _list_field(body, "schemes", ["mesh"], known(SCHEMES),
                                   f"scheme names ({', '.join(SCHEMES)})"),
            "patterns": _list_field(body, "patterns", ["uniform_random"],
                                    known(PATTERNS), "pattern names"),
            "rates": [float(r) for r in _list_field(
                body, "rates", [1.0], rate, f"rates in (0, {n * n}]")],
            "seeds": _int_field(body, "seeds", 1, 1),
            "warmup": _int_field(body, "warmup", 300, 0),
            "measure": _int_field(body, "measure", 1_000, 1),
            "seed": _int_field(body, "seed", 2019, 0),
            "effort": self._effort(body),
        }
        # Accepted but not honoured: a served campaign never forks.
        _int_field(body, "jobs", 1, 1)
        return spec

    async def _compute_campaign(self, spec: Dict) -> Dict:
        self._active += 1
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self.executor, functools.partial(_run_campaign_grid, spec)
            )
        finally:
            self._active -= 1

    # -- /runs, /metrics -----------------------------------------------
    def _handle_runs(self, run_id: str) -> Response:
        if self.ledger is None:
            return self._error(404, "no run ledger attached to this server")
        try:
            manifest = self.ledger.load(run_id)
        except ConfigurationError as exc:
            return self._error(404, str(exc))
        return (200, JSON, _json_bytes(manifest), {})

    def _handle_metrics(self) -> Response:
        text = render_prometheus(
            self.metrics.snapshot(), labels={"service": "repro-serve"}
        )
        return (200, TEXT, text.encode("utf-8"), {})


def _run_campaign_grid(spec: Dict) -> Dict:
    """Build and run one validated campaign grid, in-process (worker
    thread)."""
    from repro.cli import _design_for
    from repro.sim.campaign import campaign_grid, run_campaign

    designs = [
        _design_for(s, spec["n"], spec["seed"], spec["effort"])
        for s in spec["schemes"]
    ]
    grid = campaign_grid(
        designs,
        spec["patterns"],
        spec["rates"],
        base_seed=spec["seed"],
        seeds_per_point=spec["seeds"],
        warmup=spec["warmup"],
        measure=spec["measure"],
    )
    campaign = run_campaign(grid)
    rows: List[Dict] = []
    digest_fields: List[Any] = []
    for job, res in zip(campaign.jobs, campaign.results):
        scheme, pattern, rate, seed_i = job.key
        summary = res.run.summary
        rows.append({
            "scheme": scheme, "pattern": pattern, "rate": rate,
            "seed": seed_i, "packets": summary.packets,
            "avg_network_latency": summary.avg_network_latency,
            "throughput_packets_per_cycle":
                summary.throughput_packets_per_cycle,
            "cycles": res.run.cycles_run,
            "drained": res.run.drained,
        })
        digest_fields.extend([
            res.run.cycles_run, summary.packets,
            float(summary.avg_network_latency).hex(),
        ])
    return {
        "runs": len(rows),
        "results": rows,
        "result_digest": digest_parts(*digest_fields),
    }


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
    405: "Method Not Allowed", 413: "Payload Too Large",
}

#: Request body ceiling (weights matrices are the largest legit bodies).
MAX_BODY_BYTES = 4 * 1024 * 1024


class HttpServer:
    """A minimal HTTP/1.1 front end over ``asyncio.start_server``."""

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 8787) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None and self._server.sockets
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, then drain the application."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.app.shutdown()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, ctype, payload, headers = await self._dispatch(reader)
        except Exception:  # noqa: BLE001 - malformed wire input
            status, ctype, payload, headers = (
                400, JSON, _json_bytes({"error": "malformed request"}), {}
            )
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("ascii"))
        writer.write(payload)
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # client went away
            pass

    async def _dispatch(self, reader: asyncio.StreamReader) -> Response:
        request_line = await reader.readline()
        parts = request_line.decode("ascii", "replace").split()
        if len(parts) < 2:
            return (400, JSON, _json_bytes({"error": "bad request line"}), {})
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return (400, JSON,
                            _json_bytes({"error": "bad Content-Length"}), {})
        if content_length > MAX_BODY_BYTES:
            return (413, JSON, _json_bytes(
                {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
            ), {})
        body = await reader.readexactly(content_length) if content_length else b""
        return await self.app.handle(method, path, body)
