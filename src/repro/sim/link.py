"""Pipelined links and credit return channels.

Express links are segmented by repeaters (Section 2.2 / [20]): a link
of Manhattan length ``L`` has ``L`` cycles of traversal latency but
sustains one flit per cycle -- it behaves as an ``L``-deep pipeline,
not a blocking resource.  Credits ride an identical reverse pipeline.

Both pipelines are modeled as deques of ``(ready_cycle, payload)``
pairs; entries are appended in increasing ``ready_cycle`` order (one
insertion per cycle at the upstream end), so delivery pops from the
left only.

Each pipeline optionally carries an ``on_activity`` callback, invoked
on every :meth:`send` with the cycle the new entry comes due.  The
network files the owning wire under that cycle in its due-cycle
calendar, so the delivery phase
(:meth:`repro.sim.network.Network.deliver_active`) visits a wire only in
a cycle where something on it arrives.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.sim.flit import Flit


class LinkPipeline:
    """A unidirectional flit pipeline of fixed latency."""

    __slots__ = ("latency", "_queue", "on_activity")

    def __init__(self, latency: int):
        if latency < 0:
            raise ValueError("link latency must be nonnegative")
        self.latency = latency
        self._queue: Deque[Tuple[int, Flit, int]] = deque()
        self.on_activity = None

    def send(self, cycle: int, flit: Flit, vc: int) -> None:
        """Launch ``flit`` toward downstream VC ``vc`` at ``cycle`` (ST time)."""
        due = cycle + 1 + self.latency
        self._queue.append((due, flit, vc))
        if self.on_activity is not None:
            self.on_activity(due)

    def deliver(self, cycle: int) -> List[Tuple[Flit, int]]:
        """Pop every flit whose traversal completes by ``cycle``."""
        out: List[Tuple[Flit, int]] = []
        q = self._queue
        while q and q[0][0] <= cycle:
            _, flit, vc = q.popleft()
            out.append((flit, vc))
        return out

    def vc_occupancy(self, num_vcs: int) -> List[int]:
        """In-flight flit count per destination VC (conservation checks)."""
        counts = [0] * num_vcs
        for _, _, vc in self._queue:
            counts[vc] += 1
        return counts

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def occupancy(self) -> int:
        """Flits currently in flight on this link."""
        return len(self._queue)


class CreditPipeline:
    """The reverse channel carrying per-VC credits upstream."""

    __slots__ = ("latency", "_queue", "on_activity")

    def __init__(self, latency: int):
        self.latency = latency
        self._queue: Deque[Tuple[int, int]] = deque()
        self.on_activity = None

    def send(self, cycle: int, vc: int) -> None:
        due = cycle + 1 + self.latency
        self._queue.append((due, vc))
        if self.on_activity is not None:
            self.on_activity(due)

    def deliver(self, cycle: int) -> List[int]:
        out: List[int] = []
        q = self._queue
        while q and q[0][0] <= cycle:
            out.append(q.popleft()[1])
        return out

    def vc_counts(self, num_vcs: int) -> List[int]:
        """Returning-credit count per VC (conservation checks)."""
        counts = [0] * num_vcs
        for _, vc in self._queue:
            counts[vc] += 1
        return counts

    def __len__(self) -> int:
        return len(self._queue)
