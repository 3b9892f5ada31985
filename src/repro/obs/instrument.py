"""The bundle the rest of the library talks to.

:class:`Instrumentation` groups one event bus, one metrics registry and
one span recorder behind a tiny surface:

* ``obs.enabled`` -- True iff a sink is attached; hot loops guard event
  construction behind it,
* ``obs.emit(kind, ...)`` -- forward to the bus,
* ``obs.span(name)`` -- a timing context manager, or a shared no-op
  object when neither profiling nor a sink is active,
* ``obs.metrics`` -- the registry.

Every instrumented entry point (``anneal``, ``Simulator``,
``initial_solution``, ...) takes ``obs=None`` and substitutes the
module-level :data:`NULL` instance, whose ``enabled`` is permanently
False -- instrumentation then costs one attribute read per guard and
cannot perturb results (it never touches any RNG stream).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SPAN, SpanRecorder, render_profile


class Instrumentation:
    """One run's observability context."""

    def __init__(self, sinks: Iterable = (), profile: bool = False) -> None:
        self.bus = EventBus()
        for sink in sinks:
            self.bus.attach(sink)
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(bus=self.bus)
        self.profiling = bool(profile)
        #: True for the shared do-nothing instance only.
        self.is_null = False

    # -- events --------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """A sink is listening; build and emit events."""
        return self.bus.enabled

    def attach(self, sink) -> None:
        self.bus.attach(sink)

    def set_context(self, **stamps) -> None:
        """Stamp correlation fields onto every subsequent event.

        ``run_id``, ``worker`` and ``task`` (the grid coordinates of a
        worker's unit of work) are the conventional keys; a ``None``
        value removes the stamp.  Stamps never overwrite keys a
        producer passes explicitly, so replayed worker events keep
        their worker-side coordinates while gaining the parent's
        ``run_id``.
        """
        for key, value in stamps.items():
            if value is None:
                self.bus.context.pop(key, None)
            else:
                self.bus.context[key] = value

    def emit(self, kind: str, move: Optional[int] = None,
             cycle: Optional[int] = None, **payload) -> None:
        self.bus.emit(kind, move=move, cycle=cycle, **payload)

    def replay(self, events: Iterable[dict], worker: Optional[int] = None) -> None:
        """Re-emit serialized worker events (``Event.to_dict`` form).

        The parallel engine captures each worker's events in a
        :class:`~repro.obs.sinks.MemorySink`, ships them back as dicts
        and replays them here in deterministic task order, tagging each
        payload with its ``worker`` index.  Replayed events get fresh
        ``seq`` / ``wall_time`` stamps from this bus, so a merged trace
        stays monotone and ``trace-report`` keeps working under
        ``--jobs K``.  Worker-side stamps (the ``task`` coordinates,
        ``span_id`` links) ride inside the payloads untouched, which is
        what keeps span parent/child relationships attributable after
        the merge.  Without a ``worker`` the events join this bus's own
        stream, so their span ids are shifted into a range reserved
        from this recorder and cannot collide with its other spans.
        """
        if not self.enabled:
            return
        events = list(events)
        offset = 0
        if worker is None:
            ids = [ev["payload"]["span_id"] for ev in events
                   if ev["kind"] == "span" and "span_id" in ev.get("payload", ())]
            if ids:
                offset = self.spans.reserve_ids(max(ids) + 1)
        for ev in events:
            payload = dict(ev.get("payload", ()))
            if worker is not None:
                payload.setdefault("worker", worker)
            elif ev["kind"] == "span":
                for key in ("span_id", "parent_span_id"):
                    if key in payload:
                        payload[key] += offset
            self.bus.emit(
                ev["kind"], move=ev.get("move"), cycle=ev.get("cycle"), **payload
            )

    # -- spans ---------------------------------------------------------
    def span(self, name: str):
        """A timing context manager; no-op unless profiling or tracing."""
        if self.profiling or self.bus.enabled:
            return self.spans.span(name)
        return NULL_SPAN

    def profile_table(self, k: Optional[int] = None) -> str:
        return render_profile(self.spans, k)

    # -- lifecycle -----------------------------------------------------
    def metrics_summary(self) -> str:
        return self.metrics.render()

    def close(self) -> None:
        """Flush/close every sink (JSONL files, stderr summaries)."""
        self.bus.close()


#: Shared disabled instance used when callers pass ``obs=None``.
NULL = Instrumentation()
NULL.is_null = True


def ensure_obs(obs: Optional[Instrumentation]) -> Instrumentation:
    """``obs`` itself, or the shared :data:`NULL` instance for ``None``."""
    return NULL if obs is None else obs
