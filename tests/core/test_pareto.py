"""Pareto co-design tests: dominance algebra, drivers, determinism."""

import json

import numpy as np
import pytest

from repro.api import OBJECTIVES, SearchConfig
from repro.core.annealing import AnnealingParams
from repro.core.application_aware import weighted_average_head_latency
from repro.core.latency import mean_row_head_latency
from repro.core.optimizer import solve_row_problem
from repro.core.connection_matrix import iter_unique_placements
from repro.core.pareto import (
    ParetoFront,
    ParetoPricer,
    ParetoSpec,
    _VectorObjective,
    aggregate_weights,
    dominates,
    hypervolume,
    nondominated,
    pareto_front,
    pareto_sweep,
)
from repro.routing.shortest_path import HopCostModel
from repro.topology.mesh import MeshTopology
from repro.topology.row import RowPlacement
from repro.traffic.parsec import PARSEC_WORKLOADS, workload_gamma
from repro.util.errors import ConfigurationError

SMOKE = AnnealingParams(total_moves=200, moves_per_cooldown=50)
CFG = SearchConfig(seed=2019)


def front_for(n, c, *, objectives=("latency", "power"), driver="epsilon",
              config=CFG, **kwargs):
    kwargs.setdefault("params", SMOKE)
    kwargs.setdefault("points", 2)
    kwargs.setdefault("population", 6)
    kwargs.setdefault("generations", 2)
    return pareto_front(n, c, objectives=objectives, driver=driver,
                        config=config, **kwargs)


class TestDominance:
    def test_dominates_strict(self):
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert not dominates((1.0, 2.0), (1.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))

    def test_nondominated_filters_and_orders(self):
        entries = [
            ((2.0, 1.0), b"b"),
            ((2.0, 2.0), b"c"),
            ((1.0, 2.0), b"a"),
            ((3.0, 3.0), b"d"),
        ]
        front = nondominated(entries)
        assert front == [((1.0, 2.0), b"a"), ((2.0, 1.0), b"b")]

    def test_nondominated_dedupes_equal_vectors(self):
        front = nondominated([((1.0, 1.0), b"z"), ((1.0, 1.0), b"a")])
        assert front == [((1.0, 1.0), b"a")]

    def test_matches_quadratic_filter_random(self):
        rng = np.random.default_rng(5)
        pts = [tuple(v) for v in rng.integers(0, 6, size=(60, 3)).astype(float)]
        entries = [(p, str(i).encode()) for i, p in enumerate(pts)]
        fast = {v for v, _ in nondominated(entries)}
        slow = {
            p for p in set(pts)
            if not any(dominates(q, p) for q in set(pts))
        }
        assert fast == slow


class TestHypervolume:
    def test_single_point_box(self):
        assert hypervolume([(0.0, 0.0)], (1.0, 1.0)) == 1.0

    def test_two_point_staircase(self):
        assert hypervolume([(0.0, 1.0), (1.0, 0.0)], (2.0, 2.0)) == pytest.approx(3.0)

    def test_dominated_point_adds_nothing(self):
        base = hypervolume([(0.0, 1.0), (1.0, 0.0)], (2.0, 2.0))
        more = hypervolume([(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)], (2.0, 2.0))
        assert more == pytest.approx(base)

    def test_point_outside_reference_ignored(self):
        assert hypervolume([(3.0, 3.0)], (2.0, 2.0)) == 0.0

    def test_monte_carlo_agreement_3d(self):
        rng = np.random.default_rng(11)
        pts = [tuple(v) for v in rng.random((8, 3))]
        ref = (1.0, 1.0, 1.0)
        exact = hypervolume(pts, ref)
        samples = rng.random((20000, 3))
        hits = np.zeros(len(samples), dtype=bool)
        for p in pts:
            hits |= (samples >= np.array(p)).all(axis=1)
        assert exact == pytest.approx(hits.mean(), abs=0.02)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            hypervolume([(0.0, 0.0, 0.0)], (1.0, 1.0))


class TestAggregateWeights:
    def test_parity_with_weighted_average(self):
        """2 * weighted row energy == the full 2D weighted average."""
        rng = np.random.default_rng(7)
        n = 6
        gamma = rng.random((n * n, n * n))
        np.fill_diagonal(gamma, 0.0)
        w = np.array(aggregate_weights(gamma, n))
        for placement in (RowPlacement.mesh(n),
                          RowPlacement(n, frozenset({(0, 3), (3, 5)}))):
            lhs = weighted_average_head_latency(
                MeshTopology.uniform(placement), gamma
            )
            rhs = 2 * mean_row_head_latency(placement, weights=tuple(
                map(tuple, w.tolist())
            ))
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestSpecAndPricer:
    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            ParetoSpec(n=8, link_limit=2, objectives=("latency", "speed"))

    def test_duplicate_objective_rejected(self):
        with pytest.raises(ConfigurationError):
            ParetoSpec(n=8, link_limit=2, objectives=("latency", "latency"))

    def test_flit_bits_divisor_and_floor_fallback(self):
        assert ParetoSpec(n=8, link_limit=2, objectives=("latency",)).flit_bits == 128
        assert ParetoSpec(n=8, link_limit=4, objectives=("latency",)).flit_bits == 64
        # 3 does not divide 256: floor fallback instead of an error.
        assert ParetoSpec(n=8, link_limit=3, objectives=("latency",)).flit_bits == 85

    def test_pricer_memoizes(self):
        spec = ParetoSpec(n=6, link_limit=2, objectives=OBJECTIVES)
        pricer = ParetoPricer(spec)
        p = RowPlacement.mesh(6)
        first = pricer.price(p)
        again = pricer.price_many([p, p])
        assert again == [first, first]
        assert pricer.evaluations == 1
        assert len(first) == len(OBJECTIVES)
        assert all(v > 0 for v in first)

    def test_express_links_shift_every_axis(self):
        spec = ParetoSpec(n=8, link_limit=2, objectives=OBJECTIVES)
        pricer = ParetoPricer(spec)
        mesh = pricer.price(RowPlacement.mesh(8))
        express = pricer.price(RowPlacement(8, frozenset({(0, 4), (4, 7)})))
        by_axis = dict(zip(OBJECTIVES, zip(mesh, express)))
        # Express links cut latency and channel load but buy them with
        # router area; power nets out per design.
        assert by_axis["latency"][1] < by_axis["latency"][0]
        assert by_axis["channel_load"][1] < by_axis["channel_load"][0]
        assert by_axis["area"][1] > by_axis["area"][0]


class TestMirrorFold:
    """The exact search folds a placement with its mirror image only
    where every axis prices the pair bit for bit."""

    @pytest.mark.parametrize("c", [2, 3])
    @pytest.mark.parametrize("objectives", [
        ("latency",),
        ("latency", "power"),
        ("power", "area"),
        ("latency", "channel_load"),
    ])
    def test_fold_predicate_implies_bit_identical_mirrors(self, c, objectives):
        pricer = ParetoPricer(ParetoSpec(n=8, link_limit=c, objectives=objectives))
        if not _VectorObjective(pricer, 0).mirror_invariant():
            assert objectives != ("latency",)
            return
        for placement in iter_unique_placements(8, c, fold=False):
            assert pricer.price(placement) == pricer.price(placement.reversed())

    def test_static_power_tells_mirrors_apart(self):
        # The pair behind the rule: mesh axes sum in node order.
        pricer = ParetoPricer(ParetoSpec(n=8, link_limit=2, objectives=("power",)))
        left = pricer.price(RowPlacement(8, frozenset({(2, 6)})))
        right = pricer.price(RowPlacement(8, frozenset({(1, 5)})))
        assert left != right
        assert left == pytest.approx(right, rel=1e-12)

    def test_weights_or_non_integral_costs_never_fold(self):
        w = tuple(tuple(float(i == j + 1) for j in range(8)) for i in range(8))
        for spec in (
            ParetoSpec(n=8, link_limit=2, objectives=("latency",), weights=w),
            ParetoSpec(n=8, link_limit=2, objectives=("latency",),
                       cost=HopCostModel(router_delay=2.5)),
        ):
            assert not _VectorObjective(ParetoPricer(spec), 0).mirror_invariant()


class TestFrontSearch:
    @pytest.mark.parametrize("driver", ["epsilon", "nsga2"])
    def test_front_is_nondominated(self, driver):
        front = front_for(8, 2, driver=driver)
        assert len(front.points) >= 1
        values = [p.values for p in front.points]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert i == j or not dominates(a, b)

    @pytest.mark.parametrize("c", [2, 3, 4])
    def test_acceptance_grid_uniform(self, c):
        """n=8, C in {2..4}: every reported point is nondominated."""
        front = front_for(8, c, points=1)
        assert front.points
        values = [p.values for p in front.points]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert i == j or not dominates(a, b)

    def test_acceptance_parsec_traffic(self):
        gamma = workload_gamma(PARSEC_WORKLOADS["blackscholes"], 8)
        front = front_for(8, 2, gamma=gamma, points=1)
        assert front.points
        values = [p.values for p in front.points]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert i == j or not dominates(a, b)

    def test_front_placements_satisfy_limit(self):
        front = front_for(8, 2, driver="nsga2")
        from repro.core.connection_matrix import ConnectionMatrix

        for point in front.points:
            ConnectionMatrix.from_placement(point.placement, 2)

    @pytest.mark.parametrize("driver", ["epsilon", "nsga2"])
    def test_jobs_invariance_byte_identical(self, driver):
        a = front_for(8, 3, driver=driver, config=CFG.with_updates(jobs=1))
        b = front_for(8, 3, driver=driver, config=CFG.with_updates(jobs=2))
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)

    @pytest.mark.parametrize("driver", ["epsilon", "nsga2"])
    def test_single_objective_matches_scalar_solve_bitwise(self, driver):
        # P(8, 3) at this budget ends in different designs under the
        # seed's own stream and the derived (C, restart 0) stream, so
        # agreement here pins the shared stream, not convergence.
        front = pareto_front(8, 3, objectives=("latency",), driver=driver,
                             params=SMOKE, config=CFG)
        scalar = solve_row_problem(8, 3, method="dc_sa", params=SMOKE,
                                   config=CFG)
        assert len(front.points) == 1
        point = front.points[0]
        assert point.placement.canonical_bytes() == \
            scalar.placement.canonical_bytes()
        assert point.values[0] == scalar.energy

    def test_single_objective_exact_matches_optimize(self):
        front = pareto_front(6, 2, objectives=("latency",), driver="epsilon",
                             method="exact", params=SMOKE, config=CFG)
        scalar = solve_row_problem(6, 2, method="exact", params=SMOKE,
                                   config=CFG)
        assert front.points[0].placement.canonical_bytes() == \
            scalar.placement.canonical_bytes()

    def test_sweep_covers_requested_limits(self):
        fronts = pareto_sweep(6, (2, 3), params=SMOKE, config=CFG, points=1,
                              objectives=("latency", "power"))
        assert sorted(fronts) == [2, 3]
        assert all(f.points for f in fronts.values())

    def test_config_defaults_used(self):
        cfg = CFG.with_updates(objectives=("latency", "power"),
                               pareto="epsilon")
        front = pareto_front(6, 2, params=SMOKE, config=cfg, points=1)
        assert front.objectives == ("latency", "power")
        assert front.driver == "epsilon"

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            pareto_front(8, 2, objectives=("latency",), driver="weighted-sum")
        with pytest.raises(ConfigurationError):
            pareto_front(8, 2, objectives=("latency", "power"), points=0)
        with pytest.raises(ConfigurationError):
            pareto_front(8, 2, objectives=("latency", "power"),
                         driver="nsga2", population=1)
        with pytest.raises(ConfigurationError):
            front_for(8, 2, method="bogus")


class TestFrontResult:
    def test_json_round_trip_bit_exact(self):
        front = front_for(6, 2, points=1)
        data = front.to_json()
        again = ParetoFront.from_json(data)
        assert again == front
        assert again.to_json() == data

    def test_json_rejects_wrong_kind_and_schema(self):
        front = front_for(6, 2, points=1)
        data = front.to_json()
        bad_kind = dict(data, kind="placement_result")
        with pytest.raises(ConfigurationError):
            ParetoFront.from_json(bad_kind)
        bad_schema = dict(data, schema=99)
        with pytest.raises(ConfigurationError):
            ParetoFront.from_json(bad_schema)
        bad_axis = dict(data, objectives=["latency", "speed"])
        with pytest.raises(ConfigurationError):
            ParetoFront.from_json(bad_axis)

    def test_json_excludes_wall_time(self):
        front = front_for(6, 2, points=1)
        assert "wall_time_s" not in json.dumps(front.to_json())

    def test_hypervolume_positive_for_tradeoff_front(self):
        front = front_for(8, 2)
        assert front.hypervolume() > 0
        # A tighter reference shrinks the measure.
        ref = front.default_reference()
        tight = tuple(v - 1e-9 for v in ref)
        assert front.hypervolume(tight) <= front.hypervolume(ref)


@pytest.mark.slow
class TestNSGAProperties:
    def test_more_generations_never_shrink_dominated_volume(self):
        """The elitist archive only grows: HV is monotone in generations."""
        ref = None
        previous = None
        for generations in (0, 2, 4):
            front = pareto_front(
                8, 2, objectives=("latency", "power"), driver="nsga2",
                params=SMOKE, config=CFG, population=8,
                generations=generations,
            )
            if ref is None:
                ref = tuple(v + 1.0 for v in front.default_reference())
            hv = front.hypervolume(ref)
            if previous is not None:
                assert hv >= previous - 1e-12
            previous = hv

    def test_three_axis_front_nondominated_and_deterministic(self):
        kwargs = dict(
            objectives=("latency", "power", "area"), driver="nsga2",
            params=SMOKE, population=8, generations=3,
        )
        a = pareto_front(8, 3, config=CFG.with_updates(jobs=1), **kwargs)
        b = pareto_front(8, 3, config=CFG.with_updates(jobs=3), **kwargs)
        assert a.to_json() == b.to_json()
        values = [p.values for p in a.points]
        for i, x in enumerate(values):
            for j, y in enumerate(values):
                assert i == j or not dominates(x, y)
