"""Network interfaces: packetization, injection, and ejection endpoints.

The NI owns the injection channel into its router's local input port
(zero-length link, credit flow-controlled like any other channel) and
consumes ejected flits at link rate.  Source queueing happens here: a
packet waits in the NI queue until a free injection VC with credit is
available, then streams one flit per cycle -- so measured network
latency starts when the head flit actually enters the router
(``Packet.injected``), while ``Packet.created`` additionally captures
the source queue time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.sim.flit import Flit, Packet, make_flits
from repro.sim.router import OutputChannel, Router


class NetworkInterface:
    """One per node: injects packets into and ejects flits from a router."""

    __slots__ = (
        "node",
        "router",
        "channel",
        "queue",
        "current_flits",
        "current_index",
        "current_vc",
        "stats",
        "vc_class",
        "packets_queued",
        "flits_injected",
        "wake",
    )

    def __init__(
        self,
        node: int,
        router: Router,
        channel: OutputChannel,
        stats,
        vc_class: "dict | None" = None,
    ) -> None:
        self.node = node
        self.router = router
        self.channel = channel  # NI -> router injection channel
        self.queue: Deque[Packet] = deque()
        self.current_flits: Optional[List[Flit]] = None
        self.current_index = 0
        self.current_vc: Optional[int] = None
        self.stats = stats
        # order -> (lo, hi) injection-VC range (the O1TURN class split).
        self.vc_class = vc_class or {}
        self.packets_queued = 0
        self.flits_injected = 0
        # Active-NI set (shared with the Network); enqueue adds this
        # node so the engine's injection sweep can skip idle NIs.
        self.wake: "set | None" = None
        router.eject_sink = self._on_eject

    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Accept a freshly generated packet into the source queue."""
        self.queue.append(packet)
        self.packets_queued += 1
        if self.wake is not None:
            self.wake.add(self.node)
        if self.stats is not None:
            self.stats.packet_created(packet)

    def has_backlog(self) -> bool:
        return bool(self.queue) or self.current_flits is not None

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> int:
        """Advance injection by up to one flit; return flits injected.

        Credits returning on the injection channel are already counted:
        the channel is one of the network's wires, drained earlier in
        the same cycle.
        """
        if self.current_flits is None:
            if not self.queue:
                return 0
            lo, hi = self.vc_class.get(self.queue[0].order, (0, None))
            vc = self.channel.free_vc_with_credit(lo, hi)
            if vc is None:
                return 0
            packet = self.queue.popleft()
            packet.injected = cycle
            self.current_flits = make_flits(packet)
            self.current_index = 0
            self.current_vc = vc
            self.channel.vc_busy[vc] = packet.pid

        vc = self.current_vc
        assert vc is not None
        if self.channel.credits[vc] <= 0:
            return 0
        flit = self.current_flits[self.current_index]
        self.channel.credits[vc] -= 1
        self.channel.link.send(cycle, flit, vc)
        self.channel.flits_sent += 1
        self.flits_injected += 1
        self.current_index += 1
        if flit.is_tail:
            self.channel.vc_busy[vc] = None
            self.current_flits = None
            self.current_vc = None
        return 1

    # ------------------------------------------------------------------
    def _on_eject(self, flit: Flit, cycle: int) -> None:
        packet = flit.packet
        if flit.is_head:
            packet.head_ejected = cycle
        if flit.is_tail:
            packet.tail_ejected = cycle
            if self.stats is not None:
                self.stats.packet_done(packet)
