"""Exact-solver tests: the exhaustive search against a brute-force
minimum over every matrix, and its batched path against the scalar one."""

import functools

import numpy as np
import pytest

from repro.core import branch_bound
from repro.core.annealing import MemoizedObjective
from repro.core.branch_bound import effective_link_limit, exhaustive_matrix_search
from repro.core.connection_matrix import (
    enumerate_matrices,
    iter_unique_blocks,
    iter_unique_placements,
)
from repro.core.latency import RowObjective, mean_row_head_latency
from repro.core.pareto import ParetoPricer, ParetoSpec, _VectorObjective
from repro.routing.shortest_path import HopCostModel
from repro.topology.row import RowPlacement


def _random_weights(n: int, seed: int):
    gen = np.random.default_rng(seed)
    w = gen.random((n, n))
    np.fill_diagonal(w, 0.0)
    return tuple(map(tuple, w.tolist()))


def _objectives(n: int):
    """Uniform, traffic-weighted and non-integral-cost objectives; the
    last two are not mirror-invariant, so their search is unfolded."""
    return [
        RowObjective(),
        RowObjective(weights=_random_weights(n, n)),
        RowObjective(cost=HopCostModel(2.7, 0.3, 0.1)),
    ]


class TestEffectiveLimit:
    def test_clamps_to_full_connectivity(self):
        assert effective_link_limit(4, 64) == 4
        assert effective_link_limit(8, 64) == 16
        assert effective_link_limit(8, 2) == 2


class TestExhaustive:
    def test_beats_or_equals_mesh(self):
        result = exhaustive_matrix_search(6, 2, RowObjective())
        assert result.energy <= mean_row_head_latency(RowPlacement.mesh(6))

    def test_valid_result(self):
        result = exhaustive_matrix_search(6, 3, RowObjective())
        result.placement.validate(3)

    def test_c1_trivial(self):
        result = exhaustive_matrix_search(6, 1, RowObjective())
        assert result.placement == RowPlacement.mesh(6)

    def test_known_optimum_p42(self):
        # P~(4, 2): the single express link (0,2) or (1,3) is optimal:
        # dist matrix mean drops from 4*avg|i-j| accordingly.
        result = exhaustive_matrix_search(4, 2, RowObjective())
        assert result.placement.express_links in (
            frozenset({(0, 2)}),
            frozenset({(1, 3)}),
            frozenset({(0, 3)}),
        )

    def test_dedup_reduces_evaluations(self):
        result = exhaustive_matrix_search(8, 3, RowObjective())
        assert result.evaluations < result.states_visited

    @pytest.mark.parametrize("n,c", [(8, 2), (8, 3), (6, 4), (9, 2), (7, 3)])
    def test_batched_identical_to_scalar(self, n, c, monkeypatch):
        # Population batching is a kernel-launch optimization only:
        # placement, energy, evaluation count and state count must all
        # match the scalar loop (batch_size=1), for any chunk size and
        # any code-block size -- blocks of 5 codes split the space, so
        # chunks end at block boundaries -- under every objective kind.
        split = functools.partial(iter_unique_blocks, block_size=5)
        for objective in _objectives(n):
            scalar = exhaustive_matrix_search(n, c, objective, batch_size=1)
            runs = []
            for blocks in (iter_unique_blocks, split):
                monkeypatch.setattr(branch_bound, "iter_unique_blocks", blocks)
                runs += [
                    exhaustive_matrix_search(n, c, objective, batch_size=size)
                    for size in (7, 128)
                ]
            for batched in runs:
                assert batched.placement == scalar.placement
                assert batched.energy == scalar.energy
                assert batched.evaluations == scalar.evaluations
                assert batched.states_visited == scalar.states_visited

    @pytest.mark.parametrize("n,c", [(6, 2), (8, 3)])
    def test_first_tied_optimum_wins_across_chunks(self, n, c):
        # The chunk size puts the first optimal class last in its chunk
        # and a tied class in a later chunk, so a `<=` comparison with
        # the incumbent would hand the win to the later class.
        objective = RowObjective()
        classes = list(iter_unique_placements(n, c))
        energies = [objective(p) for p in classes]
        ties = [k for k, e in enumerate(energies) if e == min(energies)]
        batch_size = ties[0] + 1
        assert len(ties) >= 2 and ties[1] >= batch_size
        for size in (batch_size, 1):
            result = exhaustive_matrix_search(n, c, objective, batch_size=size)
            assert result.placement == classes[ties[0]] != classes[ties[1]]
            assert result.energy == energies[ties[0]]

    def test_objectives_without_array_pricing_get_placements(self):
        # A wrapper with its own evaluate_many but no link-block pricing
        # (the Fig. 7 bench's full-FW wrapper) is handed placements.
        handed = []

        class Wrapper:
            def __init__(self):
                self.inner = RowObjective()

            def __call__(self, placement):
                return self.inner(placement)

            def evaluate_many(self, placements):
                handed.append(type(placements))
                return self.inner.evaluate_many(placements)

        assert not MemoizedObjective(Wrapper()).prices_link_blocks()
        assert MemoizedObjective(MemoizedObjective(RowObjective())).prices_link_blocks()
        wrapped = exhaustive_matrix_search(8, 3, Wrapper(), batch_size=7)
        plain = exhaustive_matrix_search(8, 3, RowObjective(), batch_size=7)
        assert set(handed) == {list}
        assert (wrapped.placement, wrapped.energy, wrapped.evaluations) == (
            plain.placement, plain.energy, plain.evaluations
        )

    def test_pareto_exact_solve_archives_every_class(self):
        # Every class the search enumerated lands in the vector
        # objective's archive.
        pricer = ParetoPricer(
            ParetoSpec(n=6, link_limit=3, objectives=("latency", "power"))
        )
        objective = _VectorObjective(pricer, 1)
        assert not objective.mirror_invariant()
        result = exhaustive_matrix_search(6, 3, objective)
        classes = list(iter_unique_placements(6, 3, fold=False))
        assert result.evaluations == pricer.evaluations == len(classes)
        assert set(pricer.archive) == {p.canonical_bytes() for p in classes}
        assert result.energy == min(v[1] for v in pricer.archive.values())

    @pytest.mark.parametrize("constraints", [(), ((0, 6.1, 8.0),)])
    def test_pareto_exact_solve_prices_a_chunk_per_call(self, constraints):
        # The scan hands the vector objective each chunk of classes as
        # one population: one price_many call per chunk, not one per
        # class, with the one-member scan's result and archive.
        spec = ParetoSpec(n=6, link_limit=3, objectives=("latency", "power"))

        def scan(batch_size):
            pricer = ParetoPricer(spec)
            sizes = []
            price_many = pricer.price_many

            def counted(placements, jobs=1):
                placements = list(placements)
                sizes.append(len(placements))
                return price_many(placements, jobs)

            pricer.price_many = counted
            objective = _VectorObjective(pricer, 1, constraints)
            result = exhaustive_matrix_search(6, 3, objective, batch_size)
            return result, sizes, pricer.archive

        result, sizes, archive = scan(branch_bound.DEFAULT_BATCH_SIZE)
        chunks = [
            len(chunk)
            for block in iter_unique_blocks(6, 3, fold=False)
            for chunk in block.chunks(branch_bound.DEFAULT_BATCH_SIZE)
        ]
        assert sizes == chunks and len(chunks) < result.evaluations
        one, one_sizes, one_archive = scan(1)
        assert set(one_sizes) == {1} and len(one_sizes) == one.evaluations
        assert (result.placement, result.energy, result.evaluations) == (
            one.placement, one.energy, one.evaluations
        )
        assert list(archive.items()) == list(one_archive.items())


class TestMirrorFold:
    """The exact search folds mirror pairs only for objectives that
    price a placement and its mirror image alike."""

    @pytest.mark.parametrize("seed", range(12))
    def test_weighted_optimum_equals_brute_force(self, seed):
        gen = np.random.default_rng((7, seed))
        n, c = int(gen.integers(4, 8)), int(gen.integers(2, 4))
        objective = RowObjective(weights=_random_weights(n, seed))
        assert not objective.mirror_invariant()
        result = exhaustive_matrix_search(n, c, objective)
        brute = min(objective(m.decode()) for m in enumerate_matrices(n, c))
        assert result.energy == brute
        result.placement.validate(c)

    @pytest.mark.parametrize("n,c", [(4, 2), (5, 2), (6, 2), (6, 3), (8, 2)])
    def test_uniform_optimum_equals_brute_force(self, n, c):
        # The folded search prices one class per mirror pair; the brute
        # force decodes and prices every matrix of the space.
        objective = RowObjective()
        assert objective.mirror_invariant()
        result = exhaustive_matrix_search(n, c, objective)
        brute = min(objective(m.decode()) for m in enumerate_matrices(n, c))
        assert result.energy == brute
        result.placement.validate(c)

    def test_weighted_search_prices_both_mirror_images(self):
        folded = exhaustive_matrix_search(7, 2, RowObjective())
        weighted = exhaustive_matrix_search(
            7, 2, RowObjective(weights=_random_weights(7, 0))
        )
        assert weighted.evaluations == 2 ** 5 > folded.evaluations

    def test_invariance_is_declared_by_the_objective(self):
        assert RowObjective().mirror_invariant()
        # A slice with no traffic prices as the unweighted mean.
        assert RowObjective(weights=((0.0, 0.0), (0.0, 0.0))).mirror_invariant()
        assert not RowObjective(weights=_random_weights(4, 1)).mirror_invariant()
        # Non-integral hop costs round differently in reversed order.
        assert not RowObjective(
            cost=HopCostModel(router_delay=1.5)
        ).mirror_invariant()
        weighted = RowObjective(weights=_random_weights(4, 1))
        assert not MemoizedObjective(weighted).mirror_invariant()
        assert MemoizedObjective(MemoizedObjective(RowObjective())).mirror_invariant()
        # An objective that declares nothing keeps the documented fold.
        assert MemoizedObjective(RowObjective().__call__).mirror_invariant()


class TestFigure12Instances:
    """The paper's exact-comparison instances (small ones in unit tests;
    P(8,4)/P(16,2) run in the benchmark suite)."""

    def test_p42_dc_sa_matches_optimal(self):
        from repro.core.optimizer import solve_row_problem

        obj = RowObjective()
        exact = exhaustive_matrix_search(4, 2, obj)
        from repro.api import SearchConfig

        dc = solve_row_problem(
            4, 2, method="dc_sa", objective=obj, config=SearchConfig(seed=3)
        )
        assert dc.energy == pytest.approx(exact.energy)

    def test_p82_dc_sa_matches_optimal(self):
        from repro.core.annealing import AnnealingParams
        from repro.core.optimizer import solve_row_problem

        obj = RowObjective()
        exact = exhaustive_matrix_search(8, 2, obj)
        from repro.api import SearchConfig

        dc = solve_row_problem(
            8,
            2,
            method="dc_sa",
            objective=obj,
            params=AnnealingParams(total_moves=2_000, moves_per_cooldown=500),
            config=SearchConfig(seed=3),
        )
        assert dc.energy == pytest.approx(exact.energy)
