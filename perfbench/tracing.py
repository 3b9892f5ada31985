"""Span tracing for the traced run, installed from the benchmark's files.

:func:`install` wraps the public functions of each layer -- a
module-level function wherever a ``repro`` module looks it up, a method
on its class -- so no span lives in ``src/``.  Every wrapped call
records a span ``(id, parent id, name, start, end)`` in memory; the
parent comes from a context variable, so spans nest across calls,
asyncio tasks and (with :func:`propagate_context_to_threads`) executor
threads.  :func:`aggregate` reduces the spans of a timed window to
calls, busy time and self time per name and per layer, plus the share
of the window that no top-level span covers.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, float, float]


class Tracer:
    """In-memory span and counter recorder (thread- and task-safe)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.tags: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._lock = threading.Lock()

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn: Callable, post: Optional[Callable] = None,
             per_item: Optional[str] = None) -> Callable:
        """A traced stand-in for ``fn`` (function, generator or coroutine)."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, per_item)
        if inspect.iscoroutinefunction(fn):
            return self._wrap_coroutine(name, fn, post)
        current, ids, spans = self._current, self._ids, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            token = current.set(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append((sid, parent, name, start, end))
            if post is not None:
                post(self, sid, args, result)
            return result

        return traced

    def _wrap_coroutine(self, name: str, fn: Callable,
                        post: Optional[Callable]) -> Callable:
        current, ids, spans = self._current, self._ids, self.spans

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            token = current.set(sid)
            start = time.perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append((sid, parent, name, start, end))
            if post is not None:
                post(self, sid, args, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn: Callable,
                        per_item: Optional[str]) -> Callable:
        """Each resumption is one span, so busy time is the generator's
        own work and the consumer's loop body stays outside it."""
        current, ids, spans = self._current, self._ids, self.spans

        def resumptions(gen):
            while True:
                parent = current.get()
                sid = next(ids)
                token = current.set(sid)
                start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end = time.perf_counter()
                    current.reset(token)
                    spans.append((sid, parent, name, start, end))
                if per_item is not None:
                    self.add(per_item)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return resumptions(fn(*args, **kwargs))

        return traced


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------

def _anneal_counts(tracer: Tracer, sid: int, args, result) -> None:
    # One memo lookup for the initial state plus one per move; the
    # trace holds the initial and final points plus one per move.
    moves = max(0, len(result.trace) - 2)
    tracer.add("core.annealing.moves", moves)
    tracer.add("core.annealing.memo_calls", moves + 1)
    tracer.add("core.annealing.evaluations", result.evaluations)
    tracer.add("core.annealing.accepted", result.accepted_moves)


def _count(key: str, amount: Callable) -> Callable:
    def post(tracer: Tracer, sid: int, args, result) -> None:
        tracer.add(key, amount(args, result))
    return post


def _sim_run_counts(tracer: Tracer, sid: int, args, result) -> None:
    tracer.add("sim.engine.cycles", result.cycles_run)
    tracer.add("sim.engine.cycles_skipped", result.cycles_skipped)
    tracer.add("sim.engine.packets", result.packets_created)


def _batch_counts(tracer: Tracer, sid: int, args, result) -> None:
    tracer.add("serve.batcher.batches")
    tracer.add("serve.batcher.requests", len(args[0]))


def _place_class(tracer: Tracer, sid: int, args, result) -> None:
    status, _, payload, _ = result
    if status == 200:
        tracer.tags[sid] = json.loads(payload)["cache"]


_flit_moves = _count("sim.network.flit_moves", lambda args, moved: moved)

#: (span name, module, attribute path, post-call hook, per-item counter).
#: The layer of a span is its module without the ``repro.`` prefix.
TARGETS = (
    ("core.optimizer.optimize", "repro.core.optimizer", "optimize", None, None),
    ("core.annealing.anneal", "repro.core.annealing", "anneal", _anneal_counts, None),
    ("core.divide_conquer.initial_solution", "repro.core.divide_conquer",
     "initial_solution", None, None),
    ("core.branch_bound.exhaustive_matrix_search", "repro.core.branch_bound",
     "exhaustive_matrix_search", None, None),
    ("core.connection_matrix.iter_unique_placements", "repro.core.connection_matrix",
     "iter_unique_placements", None,
     "core.connection_matrix.iter_unique_placements.placements"),
    ("core.connection_matrix.decode", "repro.core.connection_matrix",
     "ConnectionMatrix.decode", None, None),
    ("topology.row.canonical_bytes", "repro.topology.row",
     "RowPlacement.canonical_bytes", None, None),
    ("core.latency.row_objective", "repro.core.latency", "RowObjective.__call__",
     None, None),
    ("core.latency.evaluate_many", "repro.core.latency", "RowObjective.evaluate_many",
     _count("core.latency.evaluate_many.placements", lambda args, r: len(r)), None),
    ("routing.shortest_path.weight_stack", "repro.routing.shortest_path",
     "weight_stack", None, None),
    ("routing.shortest_path.weight_stack_population", "repro.routing.shortest_path",
     "weight_stack_population", None, None),
    ("routing.shortest_path.batched_mean_distances", "repro.routing.shortest_path",
     "batched_mean_distances", None, None),
    ("routing.shortest_path.fw_batch", "repro.routing.shortest_path",
     "floyd_warshall_distances_batch",
     _count("routing.shortest_path.fw_batch.slices", lambda args, r: args[0].shape[0]),
     None),
    ("sim.engine.init", "repro.sim.engine", "Simulator.__init__", None, None),
    ("sim.engine.run", "repro.sim.engine", "Simulator.run", _sim_run_counts, None),
    ("sim.network.deliver_active", "repro.sim.network", "Network.deliver_active",
     _flit_moves, None),
    ("sim.network.tick_nis_active", "repro.sim.network", "Network.tick_nis_active",
     _flit_moves, None),
    ("sim.network.allocate_active", "repro.sim.network", "Network.allocate_active",
     _flit_moves, None),
    ("traffic.injection.packets_for_cycle", "repro.traffic.injection",
     "SyntheticTraffic.packets_for_cycle", None, None),
    ("traffic.injection.packets_for_cycle", "repro.traffic.injection",
     "MatrixTraffic.packets_for_cycle", None, None),
    ("serve.server.handle.place", "repro.serve.server", "ServeApp._handle_place",
     _place_class, None),
    ("serve.server.handle.evaluate", "repro.serve.server", "ServeApp._handle_evaluate",
     None, None),
    ("serve.store.get", "repro.serve.store", "DesignStore.get", None, None),
    ("serve.store.put", "repro.serve.store", "DesignStore.put", None, None),
    ("serve.store.nearest", "repro.serve.store", "DesignStore.nearest", None, None),
    ("serve.batcher.price_batch", "repro.serve.batcher", "_price_batch",
     _batch_counts, None),
    ("obs.ledger.record", "repro.obs.ledger", "RunLedger.record", None, None),
    ("api.to_json", "repro.api", "PlacementResult.to_json", None, None),
    ("api.to_json", "repro.api", "EvalResult.to_json", None, None),
    ("api.from_json", "repro.api", "PlacementResult.from_json", None, None),
    ("api.from_json", "repro.api", "EvalResult.from_json", None, None),
)

#: Span name -> layer (module) name.
LAYER_OF = {name: module[len("repro."):] for name, module, *_ in TARGETS}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))


def install(tracer: Tracer) -> None:
    """Wrap every target before the workload starts."""
    for name, module_name, path, post, per_item in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            _wrap_method(tracer, getattr(module, cls_name), attr, name, post, per_item)
        else:
            _wrap_function(tracer, module, path, name, post, per_item)


def _wrap_method(tracer, cls, attr, name, post, per_item) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, post, per_item)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, post, per_item))


def _wrap_function(tracer, module, attr, name, post, per_item) -> None:
    """Replace ``module.attr`` everywhere a loaded ``repro`` module holds it,
    so callers that imported the name directly see the wrapper too."""
    original = getattr(module, attr)
    wrapper = tracer.wrap(name, original, post, per_item)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def propagate_context_to_threads() -> None:
    """Run executor work in the submitting task's context (as
    ``asyncio.to_thread`` does), so spans in worker threads get their
    parent.  Only the traced server process calls this."""
    from concurrent.futures import ThreadPoolExecutor

    submit = ThreadPoolExecutor.submit

    def submit_in_context(self, fn, /, *args, **kwargs):
        return submit(self, contextvars.copy_context().run, fn, *args, **kwargs)

    ThreadPoolExecutor.submit = submit_in_context


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------

def aggregate(spans: List[Span], t0: float, t1: float) -> Dict[str, Any]:
    """Calls, busy and self time per span name and per layer over the
    spans that ran inside ``[t0, t1]``, plus the seconds of the window
    covered by top-level spans."""
    window = [s for s in spans if s[3] >= t0 and s[4] <= t1]
    children: Dict[int, float] = {}
    for _, parent, _, start, end in window:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    names: Dict[str, Dict[str, float]] = {}
    layers: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    top: List[Tuple[float, float]] = []
    for sid, parent, name, start, end in window:
        busy = end - start
        own = busy - children.get(sid, 0.0)
        entry = names.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += busy
        entry["self_s"] += own
        layers[LAYER_OF[name]] += own
        if parent is None:
            top.append((start, end))
    covered = 0.0
    reach = t0
    for start, end in sorted(top):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return {"names": names, "layers": layers, "covered_s": covered,
            "window_s": t1 - t0}


def durations(spans: List[Span], tags: Dict[int, str], name: str,
              t0: float, t1: float) -> Dict[str, List[float]]:
    """Durations of the ``name`` spans inside ``[t0, t1]``, by tag."""
    out: Dict[str, List[float]] = {}
    for sid, _, span_name, start, end in spans:
        if span_name == name and start >= t0 and end <= t1:
            out.setdefault(tags.get(sid, ""), []).append(end - start)
    return out


def write_spans(path: str, spans: List[Span], counts: Dict[str, float],
                tags: Dict[int, str]) -> None:
    """Spans as gzip JSON lines ``[id, parent, name, start, end]``; the
    first line holds the counters and tags."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps({"counts": counts,
                             "tags": {str(k): v for k, v in tags.items()}}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path: str):
    """Inverse of :func:`write_spans`: ``(spans, counts, tags)``."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        head = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh]
    return spans, head["counts"], {int(k): v for k, v in head["tags"].items()}
