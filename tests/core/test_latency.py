"""Tests for the analytical latency model (Eqs. 1, 2, 5)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.latency import (
    BandwidthConfig,
    PacketMix,
    RowObjective,
    full_connectivity_limit,
    mean_row_head_latency,
    mesh_average_head_latency_2d,
    network_average_latency,
    network_worst_case_latency,
    row_head_latency_matrix,
    worst_case_head_latency_2d,
)
from repro.routing.shortest_path import HopCostModel
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError

from tests.conftest import row_placements


class TestPacketMix:
    def test_paper_default(self):
        mix = PacketMix.paper_default()
        assert mix.types == ((512, 0.2), (128, 0.8))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            PacketMix(((512, 0.5), (128, 0.4)))

    def test_serialization_at_256(self):
        # Figure 1's example: 512b packet at 256b flits = 2 cycles.
        mix = PacketMix.paper_default()
        assert mix.serialization_cycles(256) == pytest.approx(0.2 * 2 + 0.8 * 1)

    def test_serialization_at_128(self):
        # Figure 1: halving the width doubles the long packet's flits.
        mix = PacketMix.paper_default()
        assert mix.serialization_cycles(128) == pytest.approx(0.2 * 4 + 0.8 * 1)

    def test_serialization_rounds_up(self):
        mix = PacketMix.single(100)
        assert mix.serialization_cycles(64) == 2

    def test_average_size(self):
        assert PacketMix.paper_default().average_size_bits() == pytest.approx(204.8)

    def test_flits_per_packet(self):
        assert PacketMix.paper_default().flits_per_packet(64) == {512: 8, 128: 2}

    def test_invalid_flit_width(self):
        with pytest.raises(ConfigurationError):
            PacketMix.paper_default().serialization_cycles(0)


class TestBandwidthConfig:
    def test_flit_width_scaling(self):
        bw = BandwidthConfig(base_flit_bits=256)
        assert bw.flit_bits(1) == 256
        assert bw.flit_bits(4) == 64
        assert bw.flit_bits(16) == 16

    def test_non_divisor_rejected(self):
        with pytest.raises(ConfigurationError):
            BandwidthConfig(base_flit_bits=256).flit_bits(3)

    def test_base_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            BandwidthConfig(base_flit_bits=200)

    def test_from_bisection_matches_paper(self):
        # 8x8 at 2 KGb/s (bits/cycle at 1 GHz) -> 128-bit baseline flit.
        assert BandwidthConfig.from_bisection(2048, 8).base_flit_bits == 128
        assert BandwidthConfig.from_bisection(8192, 8).base_flit_bits == 512

    def test_valid_limits_4x4(self):
        # Section 4.1: C in {1, 2, 4} for 4x4.
        assert BandwidthConfig().valid_link_limits(4) == (1, 2, 4)

    def test_valid_limits_8x8(self):
        assert BandwidthConfig().valid_link_limits(8) == (1, 2, 4, 8, 16)

    def test_valid_limits_16x16(self):
        assert BandwidthConfig().valid_link_limits(16) == (1, 2, 4, 8, 16, 32, 64)


class TestFullConnectivityLimit:
    def test_eq4_values(self):
        assert full_connectivity_limit(4) == 4
        assert full_connectivity_limit(8) == 16
        assert full_connectivity_limit(16) == 64

    def test_odd(self):
        assert full_connectivity_limit(5) == 6


class TestRowHeadLatency:
    def test_mesh_closed_form(self):
        # Mesh row: dist(i,j) = 4|i-j|; mean over all n^2 ordered pairs.
        for n in (4, 8):
            d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            expected = 4.0 * d.mean()
            assert mean_row_head_latency(RowPlacement.mesh(n)) == pytest.approx(expected)

    def test_2d_is_twice_1d(self):
        p = RowPlacement(8, frozenset({(0, 4), (3, 7)}))
        assert mesh_average_head_latency_2d(p) == pytest.approx(
            2 * mean_row_head_latency(p)
        )

    def test_weighted_mean(self):
        p = RowPlacement.mesh(4)
        w = np.zeros((4, 4))
        w[0, 3] = 1.0
        assert mean_row_head_latency(p, weights=w) == pytest.approx(12.0)

    def test_weighted_mean_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            mean_row_head_latency(RowPlacement.mesh(4), weights=np.ones((3, 3)))

    def test_weighted_mean_rejects_zero_weights(self):
        with pytest.raises(ConfigurationError):
            mean_row_head_latency(RowPlacement.mesh(4), weights=np.zeros((4, 4)))

    def test_weighted_mean_rejects_non_finite_sum(self):
        # Sixteen entries of 1e308 sum to inf, which used to pass the
        # positive-sum check and price to inf / inf = nan; the scalar
        # and batched paths and the objective (so the annealer's
        # incremental walk too) reject it.
        from repro.routing.shortest_path import batched_mean_distances

        p = RowPlacement(4, frozenset({(0, 2)}))
        huge = np.full((4, 4), 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(ConfigurationError, match="finite"):
                mean_row_head_latency(p, weights=huge)
            with pytest.raises(ConfigurationError, match="finite"):
                batched_mean_distances([p], weights=huge)
            with pytest.raises(ConfigurationError, match="finite"):
                RowObjective(weights=huge)
        assert np.isfinite(RowObjective(weights=np.full((4, 4), 1e300))(p))

    def test_worst_case_mesh(self):
        # Worst pair: corner to corner = 2 * (n-1) hops * 4 cycles.
        assert worst_case_head_latency_2d(RowPlacement.mesh(8)) == pytest.approx(
            2 * 7 * 4
        )


class TestNetworkLatency:
    def test_mesh_baseline_breakdown(self):
        b = network_average_latency(RowPlacement.mesh(8), 1)
        assert b.head == pytest.approx(21.0)
        assert b.serialization == pytest.approx(1.2)
        assert b.total == pytest.approx(22.2)

    def test_limit_enforced(self):
        p = RowPlacement.fully_connected(8)
        from repro.util.errors import InvalidPlacementError

        with pytest.raises(InvalidPlacementError):
            network_average_latency(p, 2)

    def test_worst_case_includes_long_packet(self):
        v = network_worst_case_latency(RowPlacement.mesh(8), 1)
        assert v == pytest.approx(56.0 + 2.0)

    def test_row_objective_callable(self):
        obj = RowObjective()
        assert obj(RowPlacement.mesh(4)) == pytest.approx(
            mean_row_head_latency(RowPlacement.mesh(4))
        )


@settings(max_examples=40, deadline=None)
@given(row_placements(max_n=8))
def test_express_never_increases_mean_latency(p):
    mesh = mean_row_head_latency(RowPlacement.mesh(p.n))
    assert mean_row_head_latency(p) <= mesh + 1e-9


@settings(max_examples=40, deadline=None)
@given(row_placements(max_n=8))
def test_mean_latency_mirror_invariant(p):
    assert mean_row_head_latency(p) == pytest.approx(
        mean_row_head_latency(p.reversed())
    )


@settings(max_examples=30, deadline=None)
@given(row_placements(max_n=8))
def test_latency_matrix_positive_off_diagonal(p):
    dist = row_head_latency_matrix(p)
    off = dist[~np.eye(p.n, dtype=bool)]
    assert (off >= 4.0).all()  # at least one minimal hop
