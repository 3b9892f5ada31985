"""Failure injection: verify the simulator *detects* broken states.

The deadlock watchdog and the invariant checker exist to turn silent
wedges into loud errors.  These tests sabotage a healthy network in
controlled ways and assert the right alarm fires.
"""

import pytest

from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.topology.mesh import MeshTopology
from repro.traffic.injection import SyntheticTraffic, TraceTraffic
from repro.traffic.patterns import make_pattern
from repro.util.errors import SimulationError


def make_sim(watchdog=200, max_cycles=5_000, events=((0, 0, 3, 128),)):
    topo = MeshTopology.mesh(4)
    cfg = SimConfig(
        flit_bits=128,
        warmup_cycles=0,
        measure_cycles=10,
        max_cycles=max_cycles,
        watchdog_cycles=watchdog,
    )
    return Simulator(topo, cfg, TraceTraffic(list(events)))


class TestWatchdog:
    def test_stuck_router_trips_watchdog(self):
        sim = make_sim()
        # Sabotage: router 1 forgets how to arbitrate -- its output
        # order is emptied, so flits arriving there wait forever.
        sim.network.routers[1].output_order.clear()
        with pytest.raises(SimulationError, match="watchdog"):
            sim.run()

    def test_missing_credits_trip_watchdog(self):
        sim = make_sim()
        # Sabotage: strip all credits from router 0's output to 1 and
        # cut the replenishment pipe, so the first flit can never win.
        out = sim.network.routers[0].outputs[1]
        out.credits = [0] * len(out.credits)
        out.credit_pipe.latency = 10**9
        with pytest.raises(SimulationError, match="watchdog"):
            sim.run()

    def test_healthy_run_never_trips(self):
        result = make_sim().run()
        assert result.drained


class TestInvariantChecker:
    def test_negative_credit_detected(self):
        sim = make_sim()
        sim.check_invariants = True
        sim.network.routers[0].outputs[1].credits[0] = -1
        with pytest.raises(SimulationError, match="credit bound"):
            sim.run()

    def test_buffer_overflow_detected(self):
        sim = make_sim()
        sim.check_invariants = True
        # Inflate a credit counter: upstream now believes downstream
        # has more room than its depth, eventually overflowing the VC.
        router = sim.network.routers[0]
        out = router.outputs[1]
        out.credits[0] = 10**6
        # Freeze the downstream router so the buffer cannot drain.
        sim.network.routers[1].output_order.clear()
        with pytest.raises(SimulationError):
            # Either the overflow check or (if the stream stops first)
            # the credit-bound check fires -- both are SimulationError.
            sim2_events = [(t, 0, 3, 512) for t in range(0, 200, 1)]
            sim = make_sim(events=sim2_events, watchdog=10_000)
            sim.check_invariants = True
            sim.network.routers[0].outputs[1].credits[0] = 10**6
            sim.network.routers[1].output_order.clear()
            sim.run()


class SabotagedSimulator(Simulator):
    """Runs ``sabotage(network)`` right after stepping cycle 128.

    128 is a multiple of 64, so the invariant check that follows the
    same step is the first to see the damage.
    """

    def __init__(self, sabotage):
        # Narrow flits make multi-flit worms, so NIs hold backlog too.
        cfg = SimConfig(flit_bits=64, warmup_cycles=100, measure_cycles=300,
                        max_cycles=5_000, seed=3)
        traffic = SyntheticTraffic(make_pattern("uniform_random", 4), 0.15, rng=3)
        super().__init__(MeshTopology.mesh(4), cfg, traffic, check_invariants=True)
        self.sabotage = sabotage

    def step(self, cycle):
        moved = super().step(cycle)
        if cycle == 128:
            self.sabotage(self.network)
        return moved


class TestBookkeepingChecks:
    """The activity counters, occupancy masks, active sets and the wire
    calendar are checked state."""

    def test_corrupt_buffer_counter_detected(self):
        def sabotage(net):
            net.routers[6].buffer_writes += 1

        with pytest.raises(SimulationError, match=r"router 6, cycle 128"):
            SabotagedSimulator(sabotage).run()

    def test_router_missing_from_active_set_detected(self):
        dropped = []

        def sabotage(net):
            node = min(
                r.node for r in net.routers
                if r.buffer_writes > r.buffer_reads
            )
            net.active_routers.discard(node)
            dropped.append(node)

        with pytest.raises(SimulationError, match="not in the active set at cycle 128") as exc:
            SabotagedSimulator(sabotage).run()
        assert f"router {dropped[0]} holds" in str(exc.value)

    def test_wire_missing_from_active_set_detected(self):
        dropped = []

        def sabotage(net):
            # The earliest calendar entry holds wires whose head is due
            # then; unfiling one leaves its arrival unscheduled.
            wires = net.wire_calendar[min(net.wire_calendar)]
            dropped.append(min(wires))
            wires.discard(dropped[0])

        with pytest.raises(SimulationError, match=r"wire \d+ .* cycle 128") as exc:
            SabotagedSimulator(sabotage).run()
        assert f"wire {dropped[0]} has" in str(exc.value)
        assert "not in the calendar" in str(exc.value)

    def test_corrupt_occupancy_mask_detected(self):
        dropped = []

        def sabotage(net):
            # Clear the lowest occupied VC's bit: the allocator would
            # never see that VC's flits again.
            router = min((r for r in net.routers if r.occupied), key=lambda r: r.node)
            router.occupied &= router.occupied - 1
            dropped.append(router.node)

        mask_error = r"occupancy mask at router \d+, cycle 128"
        with pytest.raises(SimulationError, match=mask_error) as exc:
            SabotagedSimulator(sabotage).run()
        assert f"router {dropped[0]}," in str(exc.value)

    def test_ni_missing_from_active_set_detected(self):
        def sabotage(net):
            node = min(ni.node for ni in net.nis if ni.has_backlog())
            net.active_nis.discard(node)

        with pytest.raises(SimulationError, match=r"NI \d+ .* cycle 128"):
            SabotagedSimulator(sabotage).run()

    def test_healthy_run_passes_every_check(self):
        result = SabotagedSimulator(lambda net: None).run()
        assert result.drained


class TestRoutingFailure:
    def test_corrupt_route_entry_detected_as_stall(self):
        # Corrupt one routing-table entry to point at a nonexistent
        # output: the request can never be served, and the watchdog
        # (not a silent hang) reports the wedge.
        sim = make_sim()
        sim.network.routers[0].route_tables["xy"][3] = 99  # no such port
        with pytest.raises(SimulationError, match="watchdog"):
            sim.run()
