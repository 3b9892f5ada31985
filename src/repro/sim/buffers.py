"""Virtual-channel input buffers (credit-based wormhole flow control).

Each input port holds ``V`` virtual channels.  A VC buffer is a FIFO of
flits belonging to back-to-back worms (packets never interleave within
a VC because the upstream router sends each worm contiguously on the VC
it allocated).  The VC tracks the route state of the worm currently at
its head: the output channel chosen by route computation and the
downstream VC granted by VC allocation.

Every VC reports whether it holds a flit to the router that owns it:
:meth:`VirtualChannel.push` sets, and :meth:`VirtualChannel.pop` clears,
the VC's bit in ``Router.occupied`` as the buffer leaves or reaches
empty, so the allocator visits occupied VCs only.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.flit import Flit


class VirtualChannel:
    """One VC FIFO plus the route state of the worm at its head."""

    __slots__ = ("buffer", "out_channel", "out_vc", "owner", "bit")

    def __init__(self) -> None:
        self.buffer: Deque[Flit] = deque()
        # Output channel key chosen for the current head worm (None until
        # route computation runs for the head flit at the buffer front).
        self.out_channel: Optional[int] = None
        # Downstream VC index granted by VC allocation (None until VA).
        self.out_vc: Optional[int] = None
        # The router whose ``occupied`` mask carries this VC's ``bit``
        # (bound by ``Router.add_input``).
        self.owner = None
        self.bit = 0

    def push(self, flit: Flit, cycle: int) -> None:
        flit.ready_at = cycle
        buffer = self.buffer
        if not buffer:
            self.owner.occupied |= self.bit
        buffer.append(flit)

    def pop(self) -> Flit:
        buffer = self.buffer
        flit = buffer.popleft()
        if not buffer:
            self.owner.occupied &= ~self.bit
        return flit

    def reset_route(self) -> None:
        self.out_channel = None
        self.out_vc = None

    def __len__(self) -> int:
        return len(self.buffer)


class InputPort:
    """A router input port: ``V`` virtual channels of equal depth.

    ``credit_home`` identifies where freed buffer slots are reported:
    the upstream router's output channel (via a credit pipeline) or the
    local network interface.
    """

    __slots__ = ("vcs", "depth")

    def __init__(self, num_vcs: int, depth: int):
        self.vcs = [VirtualChannel() for _ in range(num_vcs)]
        self.depth = depth

    def occupancy(self) -> int:
        return sum(len(vc) for vc in self.vcs)
