"""Timing spans: nested context-manager probes with per-run aggregation.

``with recorder.span("latency.floyd_warshall"):`` times a region.
Spans nest: each completed span adds its elapsed time to its parent's
child-time so the profile can report both *cumulative* time (including
children) and *self* time (excluding them).  Aggregation is by span
name into :class:`SpanStats`; :func:`render_profile` renders the
per-run profile table sorted by cumulative time.

When a bus is attached, every completed span also emits a ``span``
event (name, elapsed seconds, nesting depth) so offline traces can be
profiled by ``repro trace-report``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


@dataclass
class SpanStats:
    """Aggregate for one span name."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0


class _NullSpan:
    """Shared no-op context manager returned when spans are disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class Span:
    """One live timing region; created by :meth:`SpanRecorder.span`."""

    __slots__ = ("_recorder", "name", "_start", "_child_s", "span_id",
                 "parent_id")

    def __init__(self, recorder: "SpanRecorder", name: str) -> None:
        self._recorder = recorder
        self.name = name
        self._start = 0.0
        self._child_s = 0.0
        self.span_id = 0
        self.parent_id: "int | None" = None

    def __enter__(self) -> "Span":
        rec = self._recorder
        self.span_id = rec._next_id
        rec._next_id += 1
        self.parent_id = rec._stack[-1].span_id if rec._stack else None
        rec._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = time.perf_counter() - self._start
        rec = self._recorder
        rec._stack.pop()
        stats = rec.stats.get(self.name)
        if stats is None:
            stats = rec.stats[self.name] = SpanStats(self.name)
        stats.calls += 1
        stats.total_s += elapsed
        stats.self_s += elapsed - self._child_s
        if elapsed > stats.max_s:
            stats.max_s = elapsed
        depth = len(rec._stack)
        if rec._stack:
            rec._stack[-1]._child_s += elapsed
        bus = rec.bus
        if bus is not None and bus.enabled:
            # span_id / parent_span_id tie the completed-span events
            # back into a tree (span events fire at *exit*, so a parent
            # always appears after its children in the stream).  Ids
            # are recorder-local, monotone in entry order; merged
            # multi-worker traces disambiguate by the worker stamp.
            payload = {"name": self.name, "elapsed_s": round(elapsed, 9),
                       "depth": depth, "span_id": self.span_id}
            if self.parent_id is not None:
                payload["parent_span_id"] = self.parent_id
            bus.emit("span", **payload)
        return False


class SpanRecorder:
    """Collects span timings for one run."""

    def __init__(self, bus=None) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self.bus = bus
        self._stack: List[Span] = []
        self._next_id = 0

    def span(self, name: str) -> Span:
        return Span(self, name)

    def merge(self, stats: Iterable[SpanStats]) -> None:
        """Fold aggregates recorded by another recorder into this one.

        The search runner records each task's spans in the task's own
        recorder (on a pool worker or inline) and merges them here, so
        a profile lists the same spans and call counts at every
        ``jobs`` value.
        """
        for other in stats:
            mine = self.stats.get(other.name)
            if mine is None:
                mine = self.stats[other.name] = SpanStats(other.name)
            mine.calls += other.calls
            mine.total_s += other.total_s
            mine.self_s += other.self_s
            mine.max_s = max(mine.max_s, other.max_s)

    def reserve_ids(self, count: int) -> int:
        """Claim ``count`` span ids; returns the first one."""
        first = self._next_id
        self._next_id += count
        return first

    def top(self, k: Optional[int] = None) -> List[SpanStats]:
        """Span aggregates sorted by cumulative time, descending."""
        ranked = sorted(self.stats.values(), key=lambda s: -s.total_s)
        return ranked if k is None else ranked[:k]


def render_profile(recorder: SpanRecorder, k: Optional[int] = None) -> str:
    """The per-run profile table (cumulative-time order)."""
    rows = recorder.top(k)
    if not rows:
        return "profile: (no spans recorded)"
    lines = [
        "profile (by cumulative time):",
        f"  {'span':<32} {'calls':>8} {'total s':>10} {'self s':>10} {'max s':>10}",
    ]
    for s in rows:
        lines.append(
            f"  {s.name:<32} {s.calls:>8} {s.total_s:>10.4f} "
            f"{s.self_s:>10.4f} {s.max_s:>10.5f}"
        )
    return "\n".join(lines)
