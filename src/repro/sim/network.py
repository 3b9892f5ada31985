"""Network assembly: topology + routing tables -> routers, links, NIs.

Builds one :class:`~repro.sim.router.Router` per node, one directed
channel pair per topology link (flit pipeline downstream, credit
pipeline upstream), a zero-length injection channel per node, and the
ejection path.  Route lookups are precomputed into flat per-router
``dst -> output`` dictionaries so the hot allocation loop never touches
the table machinery.

Event-driven scheduling: the network keeps three structures that are
updated at the moment state changes, so each cycle phase visits only
components that have work.

* A due-cycle **calendar** of wires (``wire_calendar``: cycle -> wire
  indices).  Every pipeline ``send`` passes the cycle its flit or
  credit comes due to the wire's hook, which files the wire under that
  cycle; :meth:`deliver_active` pops the current cycle's entry and
  drains exactly those wires.  Each wire's delivery touches only its own
  sender credits and its own downstream input port, so the order among
  one cycle's wires changes nothing.
* The **active routers**, those holding buffered flits.  A router that
  flit arrivals woke joins the set after this cycle's allocation: every
  flit it holds arrived this cycle, and a flit is not eligible in the
  cycle it became readable, so allocating it could move nothing and
  change no state.  Inside a router, the allocator visits only occupied
  input VCs (``Router.occupied``).
* The **active NIs**, those with injection backlog (the NI ``wake``
  hook on enqueue).

Routers and NIs are visited in ascending node order, so every stateful
effect (including the float-summation order of the stats) is
byte-identical to a loop that polls every component each cycle -- the
test oracle in ``tests/sim/oracle.py`` is exactly that loop, with its
own full-scan allocator.
"""

from __future__ import annotations

from collections import defaultdict
from typing import DefaultDict, Dict, List, Set, Tuple

from repro.routing.tables import RoutingTables
from repro.sim.buffers import InputPort
from repro.sim.config import SimConfig
from repro.sim.interface import NetworkInterface
from repro.sim.router import EJECT, OutputChannel, Router
from repro.sim.stats import StatsCollector
from repro.topology.mesh import MeshTopology


class Network:
    """All simulator state for one topology."""

    def __init__(
        self,
        topology: MeshTopology,
        tables: "RoutingTables | Dict[str, RoutingTables]",
        config: SimConfig,
        stats: StatsCollector,
    ):
        self.topology = topology
        self.config = config
        if isinstance(tables, RoutingTables):
            tables_by_order = {tables.order: tables}
        else:
            tables_by_order = dict(tables)
        self.tables_by_order = tables_by_order
        # VC classes: O1TURN splits the VCs between the two orders;
        # single-order modes use the full range.
        if config.routing_mode == "o1turn":
            half = config.vcs_per_port // 2
            vc_class = {"xy": (0, half), "yx": (half, config.vcs_per_port)}
        else:
            vc_class = {order: (0, config.vcs_per_port) for order in tables_by_order}
        self.routers: List[Router] = [Router(v) for v in range(topology.num_nodes)]
        # (output_channel, downstream_router, downstream_port_key)
        self._wires: List[Tuple[OutputChannel, Router, int]] = []
        self.nis: List[NetworkInterface] = []
        # Scheduling state of the step engine (see module docstring).
        self.wire_calendar: DefaultDict[int, Set[int]] = defaultdict(set)
        self.active_routers: Set[int] = set()
        self.active_nis: Set[int] = set()
        # Routers woken by this cycle's arrivals; they join
        # ``active_routers`` after this cycle's allocation.
        self._woken: Set[int] = set()

        num_vcs = config.vcs_per_port
        depth_at = [
            config.vc_depth_for_radix(topology.radix(v)) for v in range(topology.num_nodes)
        ]

        for a, b, _dim in topology.channels():
            length = topology.channel_length(a, b)
            for up, down in ((a, b), (b, a)):
                out = OutputChannel(down, length, num_vcs, depth_at[down])
                port = InputPort(num_vcs, depth_at[down])
                self.routers[up].add_output(down, out)
                self.routers[down].add_input(up, port, out.credit_pipe)
                self._register_wire(out, self.routers[down], up)

        for v in range(topology.num_nodes):
            router = self.routers[v]
            router.vc_class = dict(vc_class)
            # Ejection pseudo-output (no channel object needed).
            router.output_order.append(EJECT)
            # Injection channel: NI -> router local port, zero length.
            inj = OutputChannel(v, 0, num_vcs, depth_at[v])
            port = InputPort(num_vcs, depth_at[v])
            router.add_input(v, port, inj.credit_pipe)
            self._register_wire(inj, router, v)
            ni = NetworkInterface(v, router, inj, stats, vc_class=vc_class)
            ni.wake = self.active_nis
            self.nis.append(ni)
            # Precompute route lookups, one table per dimension order.
            for order, order_tables in tables_by_order.items():
                table = {}
                for dst in range(topology.num_nodes):
                    table[dst] = EJECT if dst == v else order_tables.next_hop(v, dst)
                router.route_tables[order] = table

    def _register_wire(self, out: OutputChannel, down_router: Router, port_key: int) -> None:
        """Track one directed wire and hook its pipelines into the calendar."""
        index = len(self._wires)
        self._wires.append((out, down_router, port_key))
        calendar = self.wire_calendar

        def file_under(due, idx=index, calendar=calendar):
            calendar[due].add(idx)

        out.link.on_activity = file_under
        out.credit_pipe.on_activity = file_under

    # ------------------------------------------------------------------
    def deliver_active(self, cycle: int) -> int:
        """Move flits/credits whose pipeline latency expired; return flits.

        Drains the wires the calendar files under ``cycle`` and nothing
        else.  Routers receiving flits are woken for the next cycle's
        allocation (see the module docstring).
        """
        due = self.wire_calendar.pop(cycle, None)
        if due is None:
            return 0
        moved = 0
        wires = self._wires
        woken = self._woken
        for idx in due:
            out, down_router, port_key = wires[idx]
            queue = out.credit_pipe._queue
            while queue and queue[0][0] <= cycle:
                out.credits[queue.popleft()[1]] += 1
            queue = out.link._queue
            if queue and queue[0][0] <= cycle:
                vcs = down_router.in_ports[port_key].vcs
                arrived = 0
                while queue and queue[0][0] <= cycle:
                    _, flit, vc = queue.popleft()
                    vcs[vc].push(flit, cycle)
                    arrived += 1
                down_router.buffer_writes += arrived
                moved += arrived
                woken.add(down_router.node)
        return moved

    def allocate_active(self, cycle: int) -> int:
        """Run the allocator of every router holding flits; return grants.

        A router leaves the set once its input buffers empty, which its
        occupancy mask tells in O(1); routers woken by this cycle's
        arrivals join it afterwards.  Ascending node order fixes the
        order of packet completions, and therefore the stats'
        float-summation order.
        """
        moved = 0
        active = self.active_routers
        if active:
            routers = self.routers
            for node in sorted(active):
                router = routers[node]
                moved += router.allocate(cycle)
                if not router.occupied:
                    active.discard(node)
        woken = self._woken
        if woken:
            active |= woken
            woken.clear()
        return moved

    def tick_nis_active(self, cycle: int) -> int:
        """Advance injection for every NI with backlog; return flits.

        NIs enter :attr:`active_nis` when a packet is enqueued (the
        ``wake`` hook) and leave once their source queue and in-progress
        packet are gone.  Iteration is in ascending node order.
        """
        if not self.active_nis:
            return 0
        moved = 0
        for node in sorted(self.active_nis):
            ni = self.nis[node]
            moved += ni.tick(cycle)
            if not ni.has_backlog():
                self.active_nis.discard(node)
        return moved

    def is_idle(self) -> bool:
        """No flit buffered, in flight, or credit outstanding anywhere.

        Constant-time: every wire with pipeline content is in the
        calendar and every router with buffered flits is active (between
        steps).  NI backlog is tracked separately via :attr:`active_nis`.
        """
        return not self.wire_calendar and not self.active_routers

    # ------------------------------------------------------------------
    def flits_in_flight(self) -> int:
        """Flits buffered or on links (conservation-law checks)."""
        count = 0
        for router in self.routers:
            for port in router.in_ports.values():
                count += port.occupancy()
        for out, _, _ in self._wires:
            count += out.link.occupancy
        return count

    def credit_invariant_ok(self) -> bool:
        """Per-VC credit conservation: the law, not just the bounds.

        For every directed wire and every VC, the buffer slots of the
        downstream VC are all accounted for at any inter-phase instant:

        ``credits at the sender + flits in flight on the link + flits
        buffered downstream + credits returning upstream == depth``

        (with each term also individually within ``[0, depth]``).  The
        earlier form of this check only verified ``0 <= credit <=
        depth``, which a lost or duplicated credit can satisfy for a
        long time while the worm scheduler silently degrades.
        """
        for out, down_router, port_key in self._wires:
            port = down_router.in_ports[port_key]
            num_vcs = len(out.credits)
            in_flight = out.link.vc_occupancy(num_vcs)
            returning = out.credit_pipe.vc_counts(num_vcs)
            for v, credit in enumerate(out.credits):
                if credit < 0 or credit > port.depth:
                    return False
                total = credit + in_flight[v] + len(port.vcs[v]) + returning[v]
                if total != port.depth:
                    return False
        return True

    def ni_backlog(self) -> int:
        """Packets queued or mid-injection at the NIs.

        Includes the packet currently streaming flits into the network
        (``current_flits``): a worm blocked half-injected with no credit
        return is exactly the stall the watchdog must see.
        """
        return sum(
            len(ni.queue) + (ni.current_flits is not None) for ni in self.nis
        )

    def buffer_occupancies(self) -> List[int]:
        """Per-router total input-buffer occupancy (histogram samples)."""
        return [
            sum(port.occupancy() for port in router.in_ports.values())
            for router in self.routers
        ]

    def link_utilization(self, cycles: int) -> List[Dict]:
        """Per-directed-link flit counts and utilization (flits/cycle).

        Covers router-to-router channels only (injection channels are
        reported through the NI counters); links that never carried a
        flit are omitted.
        """
        cycles = max(cycles, 1)
        out: List[Dict] = []
        for router in self.routers:
            for dest, channel in router.outputs.items():
                if channel.flits_sent:
                    out.append({
                        "link": f"{router.node}->{dest}",
                        "flits": channel.flits_sent,
                        "utilization": channel.flits_sent / cycles,
                    })
        return out

    def activity_counters(self) -> Dict[str, int]:
        """Aggregate activity for the power model."""
        return {
            "buffer_writes": sum(r.buffer_writes for r in self.routers),
            "buffer_reads": sum(r.buffer_reads for r in self.routers),
            "crossbar_traversals": sum(r.crossbar_traversals for r in self.routers),
            "link_flit_hops": sum(
                out.flits_sent * max(out.link.latency, 1)
                for r in self.routers
                for out in r.outputs.values()
            ),
        }
