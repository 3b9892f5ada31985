"""Step-engine parity: byte-identical to the poll-everything oracle.

The simulator's active-set step must not be "approximately" the loop
that polls every wire, NI and router each cycle (``tests/sim/oracle.py``)
-- every ``RunResult`` field, including the float latency averages
(whose value depends on packet completion *order*), must match exactly.
These tests are the contract that lets the simulator skip idle
components and cycles.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.designs import hfb_design
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.topology.mesh import MeshTopology
from repro.traffic.injection import CombinedTraffic, SyntheticTraffic, TraceTraffic
from repro.traffic.patterns import make_pattern

from tests.conftest import row_placements
from tests.sim.oracle import PollEverythingSimulator


def run_engine(topology, cfg, traffic_factory):
    return Simulator(topology, cfg, traffic_factory()).run()


def run_oracle(topology, cfg, traffic_factory):
    return PollEverythingSimulator(topology, cfg, traffic_factory()).run()


def assert_byte_identical(topology, cfg, traffic_factory):
    """Engine and oracle produce the same RunResult (sans skip accounting)."""
    active = asdict(run_engine(topology, cfg, traffic_factory))
    reference = asdict(run_oracle(topology, cfg, traffic_factory))
    active.pop("cycles_skipped")
    reference.pop("cycles_skipped")
    assert active == reference


class TestEngineParity:
    @pytest.mark.parametrize("mode", ["xy", "yx", "o1turn"])
    @pytest.mark.parametrize("rate", [0.01, 0.15])
    def test_synthetic_mesh(self, mode, rate):
        cfg = SimConfig(
            routing_mode=mode, warmup_cycles=150, measure_cycles=500,
            max_cycles=5_000, seed=9,
        )
        assert_byte_identical(
            MeshTopology.mesh(4), cfg,
            lambda: SyntheticTraffic(make_pattern("uniform_random", 4), rate, rng=5),
        )

    @pytest.mark.parametrize("pattern", ["transpose", "hotspot"])
    def test_express_link_topology(self, pattern):
        topo = hfb_design(4).topology
        cfg = SimConfig(warmup_cycles=100, measure_cycles=400, max_cycles=5_000, seed=2)
        assert_byte_identical(
            topo, cfg,
            lambda: SyntheticTraffic(make_pattern(pattern, 4), 0.08, rng=3),
        )

    def test_trace_with_gaps_skips_and_matches(self):
        # Sparse trace: the engine must fast-forward the gaps yet
        # report identical cycles_run / summaries.
        events = [(0, 0, 15, 256), (900, 3, 12, 512), (2_500, 5, 10, 128)]
        cfg = SimConfig(warmup_cycles=0, measure_cycles=3_000, max_cycles=10_000, seed=1)
        topo = MeshTopology.mesh(4)
        assert_byte_identical(topo, cfg, lambda: TraceTraffic(events))
        active = run_engine(topo, cfg, lambda: TraceTraffic(events))
        assert active.cycles_skipped > 2_000
        assert active.cycles_run == run_oracle(
            topo, cfg, lambda: TraceTraffic(events)
        ).cycles_run

    def test_truncated_run_parity(self):
        # Run cut off by max_cycles before the window completes.
        cfg = SimConfig(warmup_cycles=100, measure_cycles=2_000, max_cycles=600, seed=4)
        assert_byte_identical(
            MeshTopology.mesh(4), cfg,
            lambda: SyntheticTraffic(make_pattern("uniform_random", 4), 0.05, rng=7),
        )

    def test_stopped_traffic_idle_skip_parity(self):
        # Traffic stops mid-window; the engine jumps the idle tail to
        # window_end and must land on the same cycles_run.
        cfg = SimConfig(warmup_cycles=0, measure_cycles=4_000, max_cycles=20_000, seed=6)
        topo = MeshTopology.mesh(4)

        def factory():
            return SyntheticTraffic(
                make_pattern("uniform_random", 4), 0.05, rng=8, stop_cycle=300
            )

        assert_byte_identical(topo, cfg, factory)
        active = run_engine(topo, cfg, factory)
        assert active.cycles_skipped > 3_000

    def test_combined_traffic_parity(self):
        cfg = SimConfig(warmup_cycles=100, measure_cycles=400, max_cycles=5_000, seed=3)

        def factory():
            return CombinedTraffic([
                SyntheticTraffic(make_pattern("uniform_random", 4), 0.03, rng=11),
                TraceTraffic([(50, 1, 14, 512), (2_000, 2, 13, 256)]),
            ])

        assert_byte_identical(MeshTopology.mesh(4), cfg, factory)

    def test_invariant_checking_runs_on_active_engine(self):
        cfg = SimConfig(warmup_cycles=50, measure_cycles=200, max_cycles=3_000, seed=5)
        traffic = SyntheticTraffic(make_pattern("uniform_random", 4), 0.1, rng=5)
        sim = Simulator(MeshTopology.mesh(4), cfg, traffic, check_invariants=True)
        result = sim.run()
        assert result.drained
        assert result.cycles_skipped == 0  # checking disables skipping


@pytest.mark.slow
class TestEngineParityProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        placement=row_placements(min_n=4, max_n=4, max_links=3),
        rate=st.sampled_from([0.02, 0.1, 0.25]),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_random_topologies(self, placement, rate, seed):
        topo = MeshTopology.uniform(placement)
        cfg = SimConfig(warmup_cycles=100, measure_cycles=300, max_cycles=4_000, seed=seed)
        assert_byte_identical(
            topo, cfg,
            lambda: SyntheticTraffic(make_pattern("uniform_random", 4), rate, rng=seed),
        )
