"""The cycle loop: traffic generation, delivery, allocation, draining.

One simulated cycle proceeds in fixed phases:

1. the traffic generator offers new packets to the NIs (source queues),
2. link and credit pipelines deliver everything due this cycle,
3. NIs stream at most one flit each into their injection channels,
4. every router that held flits before this cycle's deliveries runs one
   round of VC/switch allocation (flits that arrived this cycle cannot
   move before the next).

Phase effects only become visible to other phases on later cycles
(pipelines add at least one cycle), so intra-cycle phase order cannot
create causality artifacts.

Each phase is driven by events (see :mod:`repro.sim.network`): delivery
drains only the wires the due-cycle calendar files under this cycle,
injection ticks only NIs with backlog, and allocation runs only routers
holding flits, over their occupied input VCs.  When the whole fabric is
quiescent between injections the loop jumps the cycle counter straight
to the next cycle at which the traffic generator can possibly emit a
packet (``next_packet_cycle``).  Per-run summaries are byte-identical
to a loop that polls every wire, NI and router each cycle, scans every
input VC and never skips; the parity tests check this against such a
loop (``tests/sim/oracle.py``) across routing modes.

The run ends when every packet created inside the measurement window
has been ejected, or at ``max_cycles`` (whichever first); a watchdog
aborts if the network holds flits -- or NIs hold backlog that can
never inject -- but nothing moves: the simulator's deadlock-freedom
assertion.
"""

from __future__ import annotations

import time

import numpy as np
from dataclasses import dataclass
from typing import Optional, Protocol

from repro.obs.instrument import Instrumentation, ensure_obs
from repro.routing.shortest_path import HopCostModel
from repro.routing.tables import RoutingTables
from repro.sim.config import SimConfig
from repro.sim.flit import Packet
from repro.sim.network import Network
from repro.sim.stats import LatencySummary, StatsCollector
from repro.topology.mesh import MeshTopology
from repro.util.errors import SimulationError

#: Upper bounds for the per-router buffer-occupancy histogram (flits).
BUFFER_OCCUPANCY_BUCKETS = (0, 2, 4, 8, 16, 32, 64, 128)


class TrafficProtocol(Protocol):
    """What the engine needs from a traffic generator."""

    def packets_for_cycle(self, cycle: int):
        """Yield ``(src, dst, size_bits)`` triples to inject this cycle."""
        ...  # pragma: no cover


@dataclass
class RunResult:
    """Summary plus run-health metadata."""

    summary: LatencySummary
    cycles_run: int
    drained: bool
    packets_created: int
    packets_done: int
    activity: dict
    #: Quiescent cycles the loop fast-forwarded over (0 when skipping is
    #: off: invariant checks or heartbeats).  ``cycles_run`` includes
    #: them -- skipping changes wall-clock cost, never simulated time.
    cycles_skipped: int = 0


class Simulator:
    """Drives one :class:`Network` under one traffic generator."""

    def __init__(
        self,
        topology: MeshTopology,
        config: SimConfig,
        traffic: TrafficProtocol,
        tables: Optional[RoutingTables] = None,
        cost: Optional[HopCostModel] = None,
        check_invariants: bool = False,
        obs: Optional[Instrumentation] = None,
        metrics_every: int = 0,
    ):
        self.topology = topology
        self.config = config
        self.traffic = traffic
        cost = cost or HopCostModel()
        mode = config.routing_mode
        if tables is not None:
            tables_by_order = {tables.order: tables}
        elif mode == "o1turn":
            tables_by_order = {
                "xy": RoutingTables.build(topology, cost, "xy"),
                "yx": RoutingTables.build(topology, cost, "yx"),
            }
        else:
            tables_by_order = {mode: RoutingTables.build(topology, cost, mode)}
        if mode == "o1turn" and set(tables_by_order) != {"xy", "yx"}:
            raise SimulationError("o1turn needs routing tables for both orders")
        self.tables_by_order = tables_by_order
        # Primary tables (analysis helpers, zero-load cross-checks).
        self.tables = tables_by_order.get("xy") or next(iter(tables_by_order.values()))
        # The order stamped on packets in single-order modes.
        self._default_order = mode if mode in tables_by_order else next(
            iter(tables_by_order)
        )
        self._order_rng = np.random.default_rng(config.seed ^ 0x5EED)
        self.stats = StatsCollector(config.warmup_cycles, config.measure_cycles)
        self.network = Network(topology, tables_by_order, config, self.stats)
        self._next_pid = 0
        #: When set, conservation laws are re-verified every 64 cycles
        #: (used by the property tests; costs ~10% runtime).
        self.check_invariants = check_invariants
        #: Instrumentation (heartbeats, link utilization, occupancy
        #: histograms); the shared NULL instance when not observing.
        self.obs = ensure_obs(obs)
        #: Heartbeat period in cycles; 0 disables periodic emission.
        self.metrics_every = max(0, int(metrics_every))

    # ------------------------------------------------------------------
    def _inject(self, cycle: int) -> None:
        # Background load keeps being offered during drain so measured
        # packets finish under realistic contention; the run loop exits
        # once everything measured has completed.
        o1turn = self.config.routing_mode == "o1turn"
        for src, dst, size_bits in self.traffic.packets_for_cycle(cycle):
            packet = Packet(
                self._next_pid, src, dst, size_bits, self.config.flit_bits, cycle
            )
            if o1turn:
                packet.order = "xy" if self._order_rng.random() < 0.5 else "yx"
            else:
                packet.order = self._default_order
            self._next_pid += 1
            self.network.nis[src].enqueue(packet)

    def step(self, cycle: int) -> int:
        """Advance one cycle; return the number of flit movements.

        Visits only the components that have work this cycle.
        """
        self._inject(cycle)
        net = self.network
        moved = net.deliver_active(cycle)
        moved += net.tick_nis_active(cycle)
        moved += net.allocate_active(cycle)
        return moved

    def run(self) -> RunResult:
        """Run to drain (or ``max_cycles``) and summarize."""
        cfg = self.config
        obs = self.obs
        net = self.network
        window_end = cfg.warmup_cycles + cfg.measure_cycles
        heartbeat = self.metrics_every if obs.enabled else 0
        # Idle-skipping needs a traffic generator that can bound its
        # next emission; periodic invariant checks and heartbeats must
        # observe every cycle, so either disables it.
        can_skip = not self.check_invariants and heartbeat == 0
        next_packet_cycle = getattr(self.traffic, "next_packet_cycle", None)
        wall_start = time.perf_counter()
        idle_streak = 0
        cycles_skipped = 0
        cycle = 0
        next_cycle = 0
        while next_cycle < cfg.max_cycles:
            cycle = next_cycle
            moved = self.step(cycle)
            if self.check_invariants and cycle % 64 == 0:
                self._verify_invariants(cycle)
            if moved == 0 and (
                net.flits_in_flight() > 0 or net.ni_backlog() > 0
            ):
                # Nothing moved while work remains -- either flits are
                # wedged in the fabric or NI backlog can never inject
                # (e.g. a credit leak on an injection channel).  Both
                # are deadlocks the watchdog must catch; the in-flight
                # check alone is blind to the stuck-NI case.
                idle_streak += 1
                if idle_streak >= cfg.watchdog_cycles:
                    if obs.enabled:
                        obs.emit("sim.watchdog", cycle=cycle,
                                 flits_in_flight=net.flits_in_flight(),
                                 ni_backlog=net.ni_backlog(),
                                 idle_streak=idle_streak, aborted=True)
                    raise SimulationError(
                        f"watchdog: {net.flits_in_flight()} flits in flight, "
                        f"{net.ni_backlog()} packets backlogged, stuck "
                        f"for {idle_streak} cycles at cycle {cycle}"
                    )
            else:
                idle_streak = 0
            if heartbeat and cycle % heartbeat == 0:
                self._heartbeat(cycle, moved, idle_streak)
            if cycle >= window_end and self.stats.drained:
                break
            next_cycle = cycle + 1
            if (
                can_skip
                and moved == 0
                and next_packet_cycle is not None
                and net.is_idle()
                and not net.active_nis
            ):
                # Fully quiescent: no flit buffered or in flight, no
                # credit outstanding, no NI backlog.  Nothing can
                # happen until the traffic generator next emits, so
                # jump there.  Cap at ``window_end`` (where the drain
                # check can break) and ``max_cycles - 1`` (so truncated
                # runs report the same ``cycles_run`` as a loop that
                # idles through those cycles one by one).
                nxt = next_packet_cycle(next_cycle)
                target = window_end if nxt is None else min(nxt, window_end)
                target = min(target, cfg.max_cycles - 1)
                if target > next_cycle:
                    cycles_skipped += target - next_cycle
                    next_cycle = target
        if obs.enabled:
            cycles_run = cycle + 1
            for entry in net.link_utilization(cycles_run):
                obs.emit("sim.link_util", cycle=cycle, **entry)
            obs.emit("sim.end", cycle=cycle, cycles_run=cycles_run,
                     cycles_skipped=cycles_skipped,
                     drained=self.stats.drained,
                     packets_created=self.stats.created_total,
                     packets_done=self.stats.done_total)
        if not obs.is_null:
            m = obs.metrics
            m.counter("sim.cycles").inc(cycle + 1)
            m.counter("sim.cycles_skipped").inc(cycles_skipped)
            m.counter("sim.packets_created").inc(self.stats.created_total)
            m.counter("sim.packets_done").inc(self.stats.done_total)
            if self.stats.measured:
                # Packet latencies are deterministic cycle counts, so
                # the streaming quantile digest is replay-stable and
                # belongs in the ledger's deterministic summary.
                q = m.quantile("sim.packet_latency")
                for pkt in self.stats.measured:
                    q.observe(pkt.network_latency)
            # Wall-derived: excluded from the deterministic summary.
            m.meter("sim.cycle_rate").add(
                cycle + 1, time.perf_counter() - wall_start
            )
        return RunResult(
            summary=self.stats.summary(cycle + 1),
            cycles_run=cycle + 1,
            drained=self.stats.drained,
            packets_created=self.stats.created_total,
            packets_done=self.stats.done_total,
            activity=net.activity_counters(),
            cycles_skipped=cycles_skipped,
        )

    def _heartbeat(self, cycle: int, moved: int, idle_streak: int) -> None:
        """Emit one periodic health sample (the simulator's pulse).

        Carries the numbers needed to watch congestion build: flits in
        flight, NI source-queue backlog, flit movements this cycle and
        the watchdog's idle streak.  Buffer occupancies additionally
        feed a per-router histogram in the metrics registry.
        """
        obs = self.obs
        in_flight = self.network.flits_in_flight()
        backlog = self.network.ni_backlog()
        obs.emit("sim.heartbeat", cycle=cycle,
                 flits_in_flight=in_flight, ni_backlog=backlog,
                 moved=moved, idle_streak=idle_streak,
                 packets_done=self.stats.done_total)
        m = obs.metrics
        m.gauge("sim.flits_in_flight").set(in_flight)
        m.gauge("sim.ni_backlog").set(backlog)
        hist = m.histogram("sim.buffer_occupancy", BUFFER_OCCUPANCY_BUCKETS)
        for occupancy in self.network.buffer_occupancies():
            hist.observe(occupancy)

    def _verify_invariants(self, cycle: int) -> None:
        """Conservation laws that must hold at every instant.

        * credits never negative nor above the receiving buffer depth,
        * no input VC holds more flits than its depth,
        * each router's ``buffer_writes - buffer_reads`` equals the
          flits it buffers (the power model's activity counters),
        * each router's occupancy mask has exactly the bits of its
          non-empty input VCs (the allocator visits nothing else),
        * every router holding flits is active, every NI with backlog
          is active, and each wire is in the calendar at the due cycle
          of each of its pipelines' heads (the step visits nothing
          else).

        Violations are simulator bugs, surfaced as
        :class:`SimulationError` with the offending cycle.
        """
        net = self.network
        if not net.credit_invariant_ok():
            raise SimulationError(f"credit bound violated at cycle {cycle}")
        for router in net.routers:
            buffered = 0
            for port in router.in_ports.values():
                for vc in port.vcs:
                    if len(vc) > port.depth:
                        raise SimulationError(
                            f"VC overflow at router {router.node}, cycle {cycle}: "
                            f"{len(vc)} flits in a depth-{port.depth} buffer"
                        )
                    buffered += len(vc)
            counted = router.buffer_writes - router.buffer_reads
            if counted != buffered:
                raise SimulationError(
                    f"buffer counters at router {router.node}, cycle {cycle}: "
                    f"writes - reads = {counted} but {buffered} flits buffered"
                )
            occupied = sum(
                1 << i for i, (_, _, vc) in enumerate(router.input_vcs) if vc.buffer
            )
            if router.occupied != occupied:
                raise SimulationError(
                    f"occupancy mask at router {router.node}, cycle {cycle}: "
                    f"{router.occupied:#x} but the VCs holding flits are "
                    f"{occupied:#x}"
                )
            if buffered and router.node not in net.active_routers:
                raise SimulationError(
                    f"router {router.node} holds {buffered} flits but is not "
                    f"in the active set at cycle {cycle}"
                )
        calendar = net.wire_calendar
        for idx, (out, _, _) in enumerate(net._wires):
            for queue in (out.link._queue, out.credit_pipe._queue):
                if queue and idx not in calendar.get(queue[0][0], ()):
                    raise SimulationError(
                        f"wire {idx} has pipeline content due at cycle "
                        f"{queue[0][0]} but is not in the calendar at cycle {cycle}"
                    )
        for ni in net.nis:
            if ni.has_backlog() and ni.node not in net.active_nis:
                raise SimulationError(
                    f"NI {ni.node} has backlog but is not in the active set "
                    f"at cycle {cycle}"
                )
