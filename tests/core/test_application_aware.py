"""Application-aware optimization tests (Section 5.6.4)."""

import numpy as np
import pytest

from repro.core.annealing import AnnealingParams
from repro.core.application_aware import (
    col_weights,
    optimize_application_aware,
    row_weights,
    weighted_average_head_latency,
)
from repro.core.latency import mean_row_head_latency
from repro.routing.shortest_path import HopCostModel, directional_paths
from repro.topology.mesh import MeshTopology
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError

QUICK = AnnealingParams(total_moves=300, moves_per_cooldown=100)


def brute_force_weighted_head_latency(topology: MeshTopology, gamma: np.ndarray) -> float:
    """Ground truth: sum gamma[s,d] * (row leg + column leg) directly."""
    n = topology.n
    cost = HopCostModel()
    row_d = [directional_paths(p, cost)[0] for p in topology.row_placements]
    col_d = [directional_paths(p, cost)[0] for p in topology.col_placements]
    total = 0.0
    for s in range(n * n):
        sx, sy = topology.coords(s)
        for d in range(n * n):
            if gamma[s, d] == 0:
                continue
            dx, dy = topology.coords(d)
            total += gamma[s, d] * (row_d[sy][sx, dx] + col_d[dx][sy, dy])
    return total / gamma.sum()


class TestWeights:
    def test_gamma_shape_checked(self):
        with pytest.raises(ConfigurationError):
            row_weights(np.ones((4, 4)), 4)

    def test_negative_rejected(self):
        g = np.ones((16, 16))
        g[0, 1] = -1
        with pytest.raises(ConfigurationError):
            row_weights(g, 4)

    def test_single_flow_row_weight(self):
        n = 4
        g = np.zeros((16, 16))
        src = 1  # (x=1, y=0)
        dst = 14  # (x=2, y=3)
        g[src, dst] = 5.0
        rw = row_weights(g, n)
        assert rw[0][1, 2] == 5.0  # row 0 carries x 1 -> 2
        assert sum(w.sum() for w in rw) == 5.0

    def test_single_flow_col_weight(self):
        n = 4
        g = np.zeros((16, 16))
        g[1, 14] = 5.0  # turns at (2, 0), rides column 2 from y0 to y3
        cw = col_weights(g, n)
        assert cw[2][0, 3] == 5.0
        assert sum(w.sum() for w in cw) == 5.0

    def test_uniform_gamma_recovers_unweighted(self):
        n = 4
        g = np.ones((16, 16))
        np.fill_diagonal(g, 0)
        topo = MeshTopology.mesh(n)
        weighted = weighted_average_head_latency(topo, g)
        brute = brute_force_weighted_head_latency(topo, g)
        assert weighted == pytest.approx(brute)


class TestWeightedLatency:
    def test_matches_brute_force_random_gamma(self, rng):
        n = 4
        g = rng.random((16, 16))
        np.fill_diagonal(g, 0)
        p = RowPlacement(4, frozenset({(0, 2)}))
        topo = MeshTopology.uniform(p)
        assert weighted_average_head_latency(topo, g) == pytest.approx(
            brute_force_weighted_head_latency(topo, g)
        )

    def test_matches_brute_force_per_dimension(self, rng):
        n = 4
        g = rng.random((16, 16))
        np.fill_diagonal(g, 0)
        rows = [RowPlacement.mesh(4), RowPlacement(4, frozenset({(0, 2)}))] * 2
        cols = [RowPlacement(4, frozenset({(1, 3)}))] * 4
        topo = MeshTopology.per_dimension(rows, cols)
        assert weighted_average_head_latency(topo, g) == pytest.approx(
            brute_force_weighted_head_latency(topo, g)
        )


class TestObjectiveSlicing:
    def test_slice_restricts_weights(self):
        import numpy as np

        from repro.core.latency import RowObjective

        w = np.zeros((8, 8))
        w[0, 7] = 1.0  # only the full-row flow has weight
        obj = RowObjective(weights=tuple(map(tuple, w.tolist())))
        left = obj.for_slice(0, 4)
        # The sliced weights contain no traffic: evaluation falls back
        # to the unweighted mean so the sub-search stays well defined.
        from repro.core.latency import mean_row_head_latency
        from repro.topology.row import RowPlacement as RP

        assert left(RP.mesh(4)) == pytest.approx(mean_row_head_latency(RP.mesh(4)))

    def test_unweighted_slice_is_identity(self):
        from repro.core.latency import RowObjective

        obj = RowObjective()
        assert obj.for_slice(0, 4) is obj

    def test_weighted_slice_keeps_block(self):
        import numpy as np

        from repro.core.latency import RowObjective

        w = np.zeros((8, 8))
        w[1, 3] = 2.0
        obj = RowObjective(weights=tuple(map(tuple, w.tolist())))
        left = obj.for_slice(0, 4)
        # Pair (1, 3) inside the slice keeps its weight: the objective
        # equals the latency of that single pair.
        assert left(RowPlacement.mesh(4)) == pytest.approx(8.0)  # 2 hops * 4


class TestOptimizeApplicationAware:
    def test_improves_on_skewed_traffic(self, rng):
        n = 4
        g = np.zeros((16, 16))
        # All traffic goes row-wise 0 -> 3 on row 0.
        g[0, 3] = 1.0
        result = optimize_application_aware(g, n, 2, params=QUICK, rng=1)
        # Row 0 should get the (0,3) express link: one-hop path.
        d, _ = directional_paths(result.topology.row_placements[0])
        assert d[0, 3] == 6.0  # Tr + 3 units
        assert result.weighted_head_latency == pytest.approx(6.0)

    def test_result_valid_everywhere(self, rng):
        n = 4
        g = rng.random((16, 16))
        np.fill_diagonal(g, 0)
        result = optimize_application_aware(g, n, 2, params=QUICK, rng=1)
        for p in result.topology.row_placements + result.topology.col_placements:
            p.validate(2)

    def test_no_worse_than_general_purpose(self, rng):
        n = 4
        g = rng.random((16, 16)) ** 3  # skewed
        np.fill_diagonal(g, 0)
        from repro.core.optimizer import solve_row_problem

        from repro.api import SearchConfig

        general = solve_row_problem(n, 2, params=QUICK, config=SearchConfig(seed=2))
        general_topo = MeshTopology.uniform(general.placement)
        general_head = weighted_average_head_latency(general_topo, g)
        aware = optimize_application_aware(g, n, 2, params=QUICK, rng=2)
        assert aware.weighted_head_latency <= general_head + 1e-6

    def test_large_gain_on_strongly_skewed_traffic(self):
        # Referenced by bench_sec564: on traffic concentrated on a few
        # long-distance flows the app-aware optimizer recovers a large
        # fraction of the head latency (>20% vs the general-purpose
        # placement) -- the regime behind the paper's 18.1% claim.
        import numpy as np

        from repro.core.optimizer import solve_row_problem

        n = 8
        gen = np.random.default_rng(3)
        g = np.zeros((64, 64))
        count = 0
        while count < 10:
            a, b = (int(v) for v in gen.integers(64, size=2))
            ax, ay, bx, by = a % 8, a // 8, b % 8, b // 8
            if a != b and abs(ax - bx) + abs(ay - by) >= 7:
                g[a, b] = 1.0
                count += 1
        params = AnnealingParams(total_moves=1_500, moves_per_cooldown=300)
        from repro.api import SearchConfig

        general = solve_row_problem(n, 4, params=params, config=SearchConfig(seed=1))
        general_topo = MeshTopology.uniform(general.placement)
        general_head = weighted_average_head_latency(general_topo, g)
        aware = optimize_application_aware(g, n, 4, params=params, rng=1)
        gain = (general_head - aware.weighted_head_latency) / general_head
        assert gain > 0.15

    def test_total_includes_serialization(self, rng):
        n = 4
        g = np.ones((16, 16))
        np.fill_diagonal(g, 0)
        result = optimize_application_aware(g, n, 2, params=QUICK, rng=1)
        assert result.total_latency == pytest.approx(
            result.weighted_head_latency + result.serialization
        )


class TestSelfTrafficHandling:
    def test_diagonal_stripped_from_weighted_average(self):
        # Self-traffic never enters the network; adding it must not
        # dilute the weighted average.
        n = 4
        rng = np.random.default_rng(3)
        gamma = rng.random((n * n, n * n))
        np.fill_diagonal(gamma, 0.0)
        topo = MeshTopology.uniform(RowPlacement.mesh(n))
        clean = weighted_average_head_latency(topo, gamma)
        diluted = gamma.copy()
        np.fill_diagonal(diluted, 10.0)
        assert weighted_average_head_latency(topo, diluted) == pytest.approx(clean)

    def test_diagonal_only_gamma_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_average_head_latency(
                MeshTopology.mesh(3), np.eye(9)
            )

    def test_pinned_corrected_average(self):
        # One unit flow (0,0) -> (2,0) on a 3x3 mesh plus self-traffic:
        # the row leg is 2 mesh hops at router_delay 3 + link 1 each,
        # no column leg, so the weighted average is exactly 8.0
        # regardless of the diagonal (which previously diluted it).
        n = 3
        gamma = np.zeros((9, 9))
        gamma[0, 2] = 1.0
        np.fill_diagonal(gamma, 5.0)
        got = weighted_average_head_latency(MeshTopology.mesh(n), gamma)
        assert got == pytest.approx(8.0)

    def test_weights_unchanged_by_diagonal(self):
        n = 3
        rng = np.random.default_rng(9)
        gamma = rng.random((9, 9))
        np.fill_diagonal(gamma, 0.0)
        noisy = gamma.copy()
        np.fill_diagonal(noisy, 7.0)
        for clean_w, noisy_w in zip(row_weights(gamma, n), row_weights(noisy, n)):
            assert np.allclose(clean_w, noisy_w)
        for clean_w, noisy_w in zip(col_weights(gamma, n), col_weights(noisy, n)):
            assert np.allclose(clean_w, noisy_w)


class TestSingleValidation:
    def test_optimize_validates_gamma_once(self, monkeypatch):
        import repro.core.application_aware as mod

        calls = []
        real = mod._check_gamma

        def counting(gamma, n):
            calls.append(n)
            return real(gamma, n)

        monkeypatch.setattr(mod, "_check_gamma", counting)
        n = 3
        rng = np.random.default_rng(1)
        gamma = rng.random((9, 9))
        np.fill_diagonal(gamma, 0.0)
        mod.optimize_application_aware(gamma, n, 2, params=QUICK, rng=7)
        assert len(calls) == 1

    def test_results_identical_with_or_without_diagonal(self):
        n = 3
        rng = np.random.default_rng(4)
        gamma = rng.random((9, 9))
        np.fill_diagonal(gamma, 0.0)
        noisy = gamma.copy()
        np.fill_diagonal(noisy, 3.0)
        a = optimize_application_aware(gamma, n, 2, params=QUICK, rng=11)
        b = optimize_application_aware(noisy, n, 2, params=QUICK, rng=11)
        assert a.weighted_head_latency == b.weighted_head_latency
        for sa, sb in zip(a.row_solutions, b.row_solutions):
            assert sa.placement == sb.placement
        for sa, sb in zip(a.col_solutions, b.col_solutions):
            assert sa.placement == sb.placement


def test_exact_search_tells_mirror_images_apart():
    """All traffic flows into the rightmost column, so each row's
    weights are not mirror-symmetric: the exact optimum must be found
    among both mirror images, not one per mirror pair."""
    n = 6
    gamma = np.zeros((n * n, n * n))
    for src in range(n * n):
        for r in range(n):
            dst = r * n + n - 1
            if dst != src:
                gamma[src, dst] = 1.0
    result = optimize_application_aware(gamma, n, 2, method="exact")
    for solution in result.row_solutions:
        assert solution.placement.express_links == frozenset({(0, 2), (2, 5)})
        assert solution.energy == pytest.approx(6.685714285714286, abs=1e-12)
