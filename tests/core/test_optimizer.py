"""Top-level optimizer tests (the C sweep of Section 4)."""

import pytest

from repro.api import PlacementResult, SearchConfig
from repro.core.annealing import AnnealingParams
from repro.core.latency import BandwidthConfig, PacketMix
from repro.core.optimizer import (
    METHODS,
    design_point,
    optimize,
    solve_row_problem,
)
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError

QUICK = AnnealingParams(total_moves=400, moves_per_cooldown=100)


class TestSolveRowProblem:
    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            solve_row_problem(8, 4, method="magic")

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_rows_below_two_routers_rejected(self, n):
        with pytest.raises(ConfigurationError, match="n must be >= 2"):
            solve_row_problem(n, 2)
        with pytest.raises(ConfigurationError, match="n must be >= 2"):
            optimize(n)

    @pytest.mark.parametrize("method", ["dc_sa", "only_sa"])
    def test_heuristics_return_valid(self, method):
        sol = solve_row_problem(
            8, 4, method=method, params=QUICK, config=SearchConfig(seed=1)
        )
        assert isinstance(sol, PlacementResult)
        sol.placement.validate(4)
        assert sol.method == method
        assert sol.evaluations > 0

    def test_exact_method(self):
        sol = solve_row_problem(6, 2, method="exact")
        assert sol.solution is not None and sol.solution.exact is not None
        sol.placement.validate(2)

    def test_dc_sa_no_worse_than_seed(self):
        sol = solve_row_problem(
            8, 4, method="dc_sa", params=QUICK, config=SearchConfig(seed=1)
        )
        raw = sol.solution
        assert raw is not None and raw.seed_solution is not None
        assert sol.energy <= raw.seed_solution.energy + 1e-9

    def test_methods_registry(self):
        assert set(METHODS) == {"dc_sa", "only_sa", "exact"}


class TestDesignPoint:
    def test_mesh_point(self):
        p = design_point(RowPlacement.mesh(8), 1)
        assert p.flit_bits == 256
        assert p.total_latency == pytest.approx(22.2)

    def test_narrower_flits_at_higher_c(self):
        p = design_point(RowPlacement(8, frozenset({(0, 4)})), 2)
        assert p.flit_bits == 128
        assert p.latency.serialization == pytest.approx(0.2 * 4 + 0.8 * 1)


def _sweep(n, **kwargs):
    res = optimize(n, params=QUICK, config=SearchConfig(seed=1), **kwargs)
    assert isinstance(res, PlacementResult)
    return res.sweep


class TestOptimize:
    def test_sweep_covers_valid_limits(self):
        assert set(_sweep(4).points) == {1, 2, 4}

    def test_best_is_minimum(self):
        sweep = _sweep(4)
        assert sweep.best.total_latency == min(
            p.total_latency for p in sweep.points.values()
        )

    def test_c1_point_is_mesh(self):
        assert _sweep(4).points[1].placement == RowPlacement.mesh(4)

    def test_latency_curve_sorted(self):
        curve = _sweep(4).latency_curve()
        assert [c for c, _ in curve] == sorted(c for c, _ in curve)

    def test_restricted_limits(self):
        assert set(_sweep(8, link_limits=(1, 4)).points) == {1, 4}

    def test_custom_bandwidth(self):
        sweep = _sweep(4, bandwidth=BandwidthConfig(base_flit_bits=128))
        assert sweep.points[1].flit_bits == 128

    def test_beats_mesh_on_8x8(self):
        sweep = _sweep(8, link_limits=(1, 2, 4))
        assert sweep.best.total_latency < sweep.points[1].total_latency

    def test_single_size_packets(self):
        sweep = _sweep(4, mix=PacketMix.single(256))
        assert sweep.points[1].latency.serialization == 1.0

    def test_result_mirrors_sweep_best(self):
        res = optimize(4, params=QUICK, config=SearchConfig(seed=1))
        best = res.sweep.best
        assert res.link_limit == best.link_limit
        assert res.placement == best.placement
        assert res.flit_bits == best.flit_bits
        assert res.total_latency == best.total_latency
        assert res.latency_curve == res.sweep.latency_curve()
