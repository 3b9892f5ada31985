"""The 3-stage credit-based wormhole router (Section 4.5.2, Figure 3).

Pipeline timing (matching ``Tr = 3`` of the analytical model): a flit
readable in an input VC at cycle ``t`` undergoes buffer write + route
computation conceptually at ``t``, competes in VC/switch allocation
from ``t + 1``, and on a grant at cycle ``s`` traverses the switch at
``s + 1`` and then the link for ``len`` cycles -- arriving readable at
the next router at ``s + 2 + len``.  An uncontended hop therefore costs
``3 + len`` cycles, exactly ``Tr + len * Tl``.

Allocation is a separable two-constraint arbitration: at most one grant
per output channel and one per input port per cycle, with round-robin
priority per output.  Virtual-channel allocation is folded into switch
allocation: a head flit wins only if a free downstream VC with an
available credit exists (non-atomic VC reuse -- the VC is released when
the tail flit is sent, which is safe because worms on one VC stay
contiguous and drain in order).

Requests are gathered from the occupied input VCs only: ``occupied`` is
a bitmask over ``input_vcs`` that the VCs keep up to date on every push
and pop, and its set bits are walked in ascending order -- the same
request order as a scan of every input VC.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.buffers import InputPort, VirtualChannel
from repro.sim.flit import Flit
from repro.sim.link import CreditPipeline, LinkPipeline

#: Output-channel key for local ejection.
EJECT = -1


class OutputChannel:
    """A router's view of one outgoing directed channel."""

    __slots__ = ("dest", "link", "credit_pipe", "credits", "vc_busy", "rr", "flits_sent")

    def __init__(self, dest: int, length: int, num_vcs: int, downstream_depth: int):
        self.dest = dest
        self.link = LinkPipeline(length)
        self.credit_pipe = CreditPipeline(length)
        self.credits = [downstream_depth] * num_vcs
        self.vc_busy: List[Optional[int]] = [None] * num_vcs
        self.rr = 0
        self.flits_sent = 0

    def free_vc_with_credit(self, lo: int = 0, hi: Optional[int] = None) -> Optional[int]:
        """Lowest-index downstream VC in ``[lo, hi)`` that is free with room.

        The range restricts allocation to one VC class; O1TURN packets
        may only occupy the class matching their dimension order.
        """
        hi = len(self.vc_busy) if hi is None else hi
        for v in range(lo, hi):
            if self.vc_busy[v] is None and self.credits[v] > 0:
                return v
        return None

    def drain_credits(self, cycle: int) -> None:
        for vc in self.credit_pipe.deliver(cycle):
            self.credits[vc] += 1


class Router:
    """One network router: input ports, output channels, allocator."""

    __slots__ = (
        "node",
        "in_ports",
        "input_vcs",
        "occupied",
        "outputs",
        "output_order",
        "route_tables",
        "vc_class",
        "credit_sinks",
        "eject_sink",
        "eject_rr",
        "flits_routed",
        "buffer_writes",
        "buffer_reads",
        "crossbar_traversals",
    )

    def __init__(self, node: int):
        self.node = node
        # key: upstream node id, or the router's own id for injection.
        self.in_ports: Dict[int, InputPort] = {}
        # (port key, vc index, vc) over every input VC, in port order:
        # bit ``i`` of ``occupied`` is set while ``input_vcs[i]`` holds
        # a flit (maintained by ``VirtualChannel.push``/``pop``).
        self.input_vcs: List[Tuple[int, int, VirtualChannel]] = []
        self.occupied = 0
        # key: downstream node id, or EJECT.
        self.outputs: Dict[int, OutputChannel] = {}
        self.output_order: List[int] = []
        # order ("xy"/"yx") -> {dst node -> output key}, precomputed
        # from the routing tables.
        self.route_tables: Dict[str, Dict[int, int]] = {}
        # order -> (lo, hi) VC index range packets of that order may
        # occupy downstream (O1TURN splits the VCs into two classes).
        self.vc_class: Dict[str, Tuple[int, int]] = {}
        # input-port key -> credit pipeline (or NI adapter) to notify
        # when a flit leaves that port's buffer.
        self.credit_sinks: Dict[int, CreditPipeline] = {}
        # callback(flit, cycle) for ejected flits.
        self.eject_sink: Optional[Callable[[Flit, int], None]] = None
        # Round-robin pointer for the ejection pseudo-output.  EJECT has
        # no OutputChannel (hence no ``out.rr``); without its own
        # pointer the lowest-keyed input port would win every cycle and
        # starve the others under ejection contention.
        self.eject_rr = 0
        # Activity counters for the power model.  Every VC push bumps
        # ``buffer_writes`` and every pop ``buffer_reads``, so their
        # difference is the flits buffered here.
        self.flits_routed = 0
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.crossbar_traversals = 0

    # ------------------------------------------------------------------
    def add_input(self, key: int, port: InputPort, credit_sink: CreditPipeline) -> None:
        self.in_ports[key] = port
        for vci, vc in enumerate(port.vcs):
            vc.owner = self
            vc.bit = 1 << len(self.input_vcs)
            self.input_vcs.append((key, vci, vc))
        self.credit_sinks[key] = credit_sink

    def add_output(self, key: int, channel: OutputChannel) -> None:
        self.outputs[key] = channel
        self.output_order.append(key)

    @property
    def radix(self) -> int:
        """Network ports (inputs excluding injection)."""
        return len(self.in_ports) - (1 if self.node in self.in_ports else 0)

    # ------------------------------------------------------------------
    def allocate(self, cycle: int) -> int:
        """Run one cycle of VC/switch allocation; return flits moved."""
        # Requests (out key, port key, vc index, vc, front flit) of the
        # occupied VCs whose front flit is ready, in input-VC order.
        ready = []
        mask = self.occupied
        input_vcs = self.input_vcs
        while mask:
            low = mask & -mask
            mask ^= low
            pkey, vci, vc = input_vcs[low.bit_length() - 1]
            flit = vc.buffer[0]
            if cycle <= flit.ready_at:
                continue
            out_key = vc.out_channel
            if out_key is None:
                if not flit.is_head:  # pragma: no cover - invariant
                    raise RuntimeError("body flit at VC front without route state")
                packet = flit.packet
                out_key = vc.out_channel = self.route_tables[packet.order][packet.dst]
            ready.append((out_key, pkey, vci, vc, flit))
        if not ready:
            return 0
        if len(ready) == 1:
            # One request: it wins its output if the output is arbitrated
            # and can take the flit (round robin over one is that one).
            out_key, pkey, vci, vc, flit = ready[0]
            if out_key not in self.output_order:
                return 0
            return self._try_grant(cycle, out_key, pkey, vci, vc, flit)

        # Gather requests per output channel.
        requests: Dict[int, List[Tuple[int, int, VirtualChannel, Flit]]] = {}
        for out_key, pkey, vci, vc, flit in ready:
            requests.setdefault(out_key, []).append((pkey, vci, vc, flit))
        moved = 0
        granted_inports: set = set()
        for out_key in self.output_order:
            reqs = requests.get(out_key)
            if not reqs:
                continue
            num = len(reqs)
            rr = self.eject_rr if out_key == EJECT else self.outputs[out_key].rr
            for offset in range(num):
                pkey, vci, vc, flit = reqs[(offset + rr) % num]
                if pkey in granted_inports:
                    continue
                if self._try_grant(cycle, out_key, pkey, vci, vc, flit):
                    granted_inports.add(pkey)
                    moved += 1
                    break
        return moved

    def _try_grant(self, cycle, out_key: int, pkey, vci, vc, flit: Flit) -> int:
        """Grant ``out_key`` to one request if it can move; return 1 or 0.

        A grant advances the output's round-robin pointer.
        """
        if out_key == EJECT:
            self._grant_eject(cycle, pkey, vci, vc, flit)
            self.eject_rr += 1
            return 1
        out = self.outputs[out_key]
        ovc = self._output_vc(out, vc, flit)
        if ovc is None:
            return 0
        self._grant(cycle, out, ovc, pkey, vci, vc, flit)
        out.rr += 1
        return 1

    # ------------------------------------------------------------------
    def _output_vc(self, out: OutputChannel, vc, flit: Flit) -> Optional[int]:
        """Downstream VC for this flit, or None if it must stall."""
        if flit.is_head and vc.out_vc is None:
            lo, hi = self.vc_class.get(flit.packet.order, (0, None))
            return out.free_vc_with_credit(lo, hi)
        ovc = vc.out_vc
        if ovc is None:  # pragma: no cover - invariant
            raise RuntimeError("body flit without an allocated output VC")
        return ovc if out.credits[ovc] > 0 else None

    def _grant(self, cycle, out: OutputChannel, ovc: int, pkey, vci, vc, flit: Flit) -> None:
        vc.pop()
        self.buffer_reads += 1
        self.crossbar_traversals += 1
        self.flits_routed += 1
        self.credit_sinks[pkey].send(cycle, vci)
        if flit.is_head:
            out.vc_busy[ovc] = flit.packet.pid
            vc.out_vc = ovc
        out.credits[ovc] -= 1
        out.link.send(cycle + 1, flit, ovc)  # ST at cycle+1, then LT
        out.flits_sent += 1
        if flit.is_tail:
            out.vc_busy[ovc] = None
            vc.reset_route()

    def _grant_eject(self, cycle, pkey, vci, vc, flit: Flit) -> None:
        vc.pop()
        self.buffer_reads += 1
        self.crossbar_traversals += 1
        self.flits_routed += 1
        self.credit_sinks[pkey].send(cycle, vci)
        if self.eject_sink is not None:
            self.eject_sink(flit, cycle + 1)  # consumed after ST
        if flit.is_tail:
            vc.reset_route()
