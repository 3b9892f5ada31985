"""The poll-everything step loop: the simulator's test oracle.

The simulator's step engine (:meth:`repro.sim.engine.Simulator.step`)
visits only the network's active sets, skips idle routers by their
buffer counters and fast-forwards quiescent stretches.  This oracle
trusts none of that bookkeeping: every cycle it visits every wire, every
NI and every router in ascending order, calls ``Router.allocate`` on
every router without an activity guard, and never skips a cycle.  It
keeps no active sets, so run it without ``check_invariants``.

The parity tests run the engine and the oracle on the same inputs and
require equal ``RunResult`` fields apart from ``cycles_skipped``.
"""

from __future__ import annotations

from repro.sim.engine import Simulator


class _NoLookahead:
    """A traffic generator without ``next_packet_cycle``.

    The run loop fast-forwards only when the generator can bound its
    next emission, so hiding that bound keeps every cycle stepped.
    """

    def __init__(self, traffic):
        self._traffic = traffic

    def packets_for_cycle(self, cycle: int):
        return self._traffic.packets_for_cycle(cycle)


class PollEverythingSimulator(Simulator):
    """A :class:`Simulator` whose step polls every component each cycle."""

    def __init__(self, topology, config, traffic, **kwargs):
        super().__init__(topology, config, _NoLookahead(traffic), **kwargs)

    def step(self, cycle: int) -> int:
        self._inject(cycle)
        net = self.network
        moved = 0
        for out, down_router, port_key in net._wires:
            out.drain_credits(cycle)
            arrivals = out.link.deliver(cycle)
            if arrivals:
                port = down_router.in_ports[port_key]
                for flit, vc in arrivals:
                    port.vcs[vc].push(flit, cycle)
                    down_router.buffer_writes += 1
                moved += len(arrivals)
        for ni in net.nis:
            moved += ni.tick(cycle)
        for router in net.routers:
            moved += router.allocate(cycle)
        return moved
