"""The poll-everything step loop: the simulator's test oracle.

The simulator's step engine (:meth:`repro.sim.engine.Simulator.step`)
drains only the wires its due-cycle calendar files under the cycle,
allocates only active routers over their occupied input VCs, wakes
routers a cycle late and fast-forwards quiescent stretches.  This
oracle trusts none of that bookkeeping: every cycle it visits every
wire, every NI and every router in ascending order, runs its own
allocator (:func:`poll_allocate`, a scan of every input VC, then every
output in ``output_order``) on every router without an activity guard,
and never skips a cycle.  It keeps no calendar or active sets, so run
it without ``check_invariants``.

The parity tests run the engine and the oracle on the same inputs and
require equal ``RunResult`` fields apart from ``cycles_skipped``.
"""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.sim.router import EJECT


class _NoLookahead:
    """A traffic generator without ``next_packet_cycle``.

    The run loop fast-forwards only when the generator can bound its
    next emission, so hiding that bound keeps every cycle stepped.
    """

    def __init__(self, traffic):
        self._traffic = traffic

    def packets_for_cycle(self, cycle: int):
        return self._traffic.packets_for_cycle(cycle)


def poll_allocate(router, cycle: int) -> int:
    """One cycle of ``router``'s VC/switch allocation by a full scan.

    Gathers requests from every input VC in ``input_vcs`` order, then
    serves every output in ``output_order`` round-robin, one grant per
    output and per input port; the grant itself is the router's.
    """
    requests = {}
    for pkey, vci, vc in router.input_vcs:
        buffer = vc.buffer
        if not buffer:
            continue
        flit = buffer[0]
        if cycle <= flit.ready_at:
            continue
        if vc.out_channel is None:
            if not flit.is_head:
                raise RuntimeError("body flit at VC front without route state")
            vc.out_channel = router.route_tables[flit.packet.order][flit.packet.dst]
        requests.setdefault(vc.out_channel, []).append((pkey, vci, vc, flit))

    moved = 0
    granted_inports = set()
    for out_key in router.output_order:
        reqs = requests.get(out_key)
        if not reqs:
            continue
        out = router.outputs[out_key] if out_key != EJECT else None
        num = len(reqs)
        rr = out.rr if out is not None else router.eject_rr
        for offset in range(num):
            pkey, vci, vc, flit = reqs[(offset + rr) % num]
            if pkey in granted_inports:
                continue
            if out_key == EJECT:
                router._grant_eject(cycle, pkey, vci, vc, flit)
                granted_inports.add(pkey)
                moved += 1
                router.eject_rr += 1
                break
            ovc = router._output_vc(out, vc, flit)
            if ovc is None:
                continue
            router._grant(cycle, out, ovc, pkey, vci, vc, flit)
            granted_inports.add(pkey)
            moved += 1
            out.rr += 1
            break
    return moved


class PollEverythingSimulator(Simulator):
    """A :class:`Simulator` whose step polls every component each cycle."""

    def __init__(self, topology, config, traffic, **kwargs):
        super().__init__(topology, config, _NoLookahead(traffic), **kwargs)
        # Unhook the pipelines from the calendar: this loop never reads
        # it, so filing every send there would only grow it.
        for out, _, _ in self.network._wires:
            out.link.on_activity = None
            out.credit_pipe.on_activity = None

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
            moved += poll_allocate(router, cycle)
        return moved
