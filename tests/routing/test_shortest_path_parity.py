"""Cross-impl parity suite: every kernel tier == pure-Python reference.

The batched NumPy kernels in :mod:`repro.routing.shortest_path` run on
the annealing hot path; :mod:`repro.routing.shortest_path_ref` is the
triple-loop specification, and the optional compiled tier
(:mod:`repro.routing.native`) must be indistinguishable from both.
These tests are a cross-impl *gate* parameterized over every tier
available on this machine: they demand bit-identical distances and
next-hop tables over randomized rows -- all implementations relax
``k`` in the same order and break ties with the same strict ``<``, so
exact equality is the contract, not an approximation.

Distances are priced with one triangular left-to-right pass
(:func:`repro.routing.shortest_path.row_distances_batch`) while the
oracle keeps the paper's two full passes, so every distance case here
also checks the transpose identity (right-to-left == left-to-right
transposed) and the triangle restriction; two tests pin those
identities directly, on the oracle itself and on the row kernel.

The second half proves the search runner's worker count is an
execution detail: for a fixed seed, ``optimize`` and
``solve_row_problem`` with ``SearchConfig(restarts=R, jobs=K)`` return
byte-identical results for every ``K``, including the inline ``K=1``
path.
"""

import json


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.annealing import AnnealingParams
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective
from repro.api import SearchConfig
from repro.core.optimizer import optimize, solve_row_problem
from repro.routing.shortest_path import (
    HopCostModel,
    directional_distances,
    directional_paths,
    floyd_warshall_batch,
    floyd_warshall_distances_batch,
    row_distances_batch,
    weight_stack,
)
from repro.routing import shortest_path_ref as ref
from repro.routing.impls import available_impls
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError
from tests.conftest import row_placements, row_weight_stacks

#: Every tier usable here ("native" joins when a backend loads); the
#: fast tiers are gated against the oracle below.
AVAILABLE_IMPLS = available_impls()
FAST_IMPLS = tuple(i for i in AVAILABLE_IMPLS if i != "reference")

SIZES = (4, 6, 8, 16)
LIMITS = (2, 3, 4, 5)

#: Non-default costs exercise the float paths beyond small integers.
COSTS = (
    HopCostModel(),
    HopCostModel(router_delay=2.0, unit_link_delay=1.5, contention_delay=0.3),
)

SMALL = AnnealingParams(total_moves=300, moves_per_cooldown=100)


def random_placements(n, limit, count=5, seed=0):
    """Valid random placements for P~(n, limit), via the matrix space."""
    gen = np.random.default_rng((n, limit, seed))
    return [ConnectionMatrix.random(n, limit, gen).decode() for _ in range(count)]


@pytest.mark.parametrize("impl", FAST_IMPLS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("limit", LIMITS)
def test_directional_distances_bit_identical(n, limit, impl):
    for cost in COSTS:
        for placement in random_placements(n, limit):
            fast = directional_distances(placement, cost, impl=impl)
            ref = directional_distances(placement, cost, impl="reference")
            assert fast.shape == ref.shape == (n, n)
            assert np.array_equal(fast, ref), str(placement)


@pytest.mark.parametrize("impl", FAST_IMPLS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("limit", LIMITS)
def test_directional_paths_bit_identical(n, limit, impl):
    for cost in COSTS:
        for placement in random_placements(n, limit):
            d_fast, nh_fast = directional_paths(placement, cost, impl=impl)
            d_ref, nh_ref = directional_paths(placement, cost, impl="reference")
            assert np.array_equal(d_fast, d_ref), str(placement)
            assert np.array_equal(nh_fast, nh_ref), str(placement)
            assert nh_fast.dtype == nh_ref.dtype == np.int64


@pytest.mark.parametrize("impl", FAST_IMPLS)
@pytest.mark.parametrize("n", SIZES)
def test_batched_kernels_match_single_matrix_kernels(n, impl):
    cost = HopCostModel()
    for placement in random_placements(n, 4, count=3, seed=1):
        stack = weight_stack(placement, cost)
        w_lr = np.asarray(ref.weight_matrix_py(placement, cost, "l2r"))
        w_rl = np.asarray(ref.weight_matrix_py(placement, cost, "r2l"))
        assert np.array_equal(stack[0], w_lr)
        assert np.array_equal(stack[1], w_rl)

        d_row = row_distances_batch(stack[:1], impl=impl)
        assert np.array_equal(d_row[0], floyd_warshall_distances_batch(w_lr[None])[0])
        assert np.array_equal(d_row[0].T, floyd_warshall_distances_batch(w_rl[None])[0])

        d_full, nh_full = floyd_warshall_batch(stack, impl=impl)
        for k, w in enumerate((w_lr, w_rl)):
            d, nh = ref.floyd_warshall_py(w.tolist())
            assert np.array_equal(d_full[k], d) and np.array_equal(nh_full[k], nh)


def test_batch_kernels_reject_non_stack_input():
    w = np.zeros((4, 4))
    with pytest.raises(ValueError):
        floyd_warshall_batch(w)
    with pytest.raises(ValueError):
        floyd_warshall_distances_batch(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError):
        row_distances_batch(w)


#: Hop costs drawn from the reals (almost never integral), so sums
#: round and any difference in operand order or in the set of
#: candidates would show in the bits.
hop_costs = st.builds(
    HopCostModel,
    router_delay=st.floats(0.0, 8.0),
    unit_link_delay=st.floats(0.0, 4.0),
    contention_delay=st.floats(0.0, 2.0),
)


@settings(max_examples=80, deadline=None)
@given(placement=row_placements(min_n=3, max_n=14, max_links=14), cost=hop_costs)
@example(
    placement=RowPlacement(5, frozenset({(0, 2), (1, 4)})),
    cost=HopCostModel(router_delay=2.1, unit_link_delay=0.7, contention_delay=0.3),
)
def test_oracle_right_to_left_is_left_to_right_transposed(placement, cost):
    # The transpose identity on the specification itself: the paper's
    # right-to-left pass equals its left-to-right pass transposed.
    d_lr = ref.floyd_warshall_distances_py(
        ref.weight_matrix_py(placement, cost, "l2r")
    )
    d_rl = ref.floyd_warshall_distances_py(
        ref.weight_matrix_py(placement, cost, "r2l")
    )
    assert np.array_equal(np.asarray(d_rl), np.asarray(d_lr).T)


@pytest.mark.parametrize("impl", AVAILABLE_IMPLS)
@settings(max_examples=60, deadline=None)
@given(w=row_weight_stacks())
def test_row_kernel_equals_full_pass(w, impl):
    # The triangle restriction: relaxing only i < k < j leaves every
    # cell where the full pass leaves it, on any left-to-right stack.
    got = row_distances_batch(w, impl=impl)
    assert got.dtype == np.float64
    assert np.array_equal(got, floyd_warshall_distances_batch(w))


@pytest.mark.parametrize("impl", AVAILABLE_IMPLS)
@pytest.mark.parametrize("n", (2, 3))
def test_row_kernel_tiny_rows(n, impl):
    # n = 2 has no pivot with i < k < j; n = 3 has exactly one cell.
    w = np.full((1, n, n), np.inf)
    w[0, np.arange(n), np.arange(n)] = 0.0
    w[0, np.arange(n - 1), np.arange(1, n)] = 0.37
    if n == 3:
        w[0, 0, 2] = 0.75  # above 0.37 + 0.37: the pivot must win
    got = row_distances_batch(w, impl=impl)
    assert np.array_equal(got, floyd_warshall_distances_batch(w))
    if n == 3:
        assert got[0, 0, 2] == 0.37 + 0.37


def test_unknown_impl_rejected():
    p = RowPlacement.mesh(6)
    with pytest.raises(ValueError):
        directional_distances(p, impl="cuda")
    with pytest.raises(ValueError):
        directional_paths(p, impl="")


@pytest.mark.parametrize("impl", AVAILABLE_IMPLS)
def test_next_hop_tables_are_self_consistent(impl):
    """dist[i, j] decomposes exactly as hop-to-next + dist[next, j]."""
    cost = HopCostModel()
    for placement in random_placements(10, 4, count=4, seed=2):
        dist, nh = directional_paths(placement, cost, impl=impl)
        n = placement.n
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert nh[i, j] == i
                    continue
                step = int(nh[i, j])
                assert step in placement.neighbors(i)
                assert dist[i, j] == cost.hop_cost(abs(step - i)) + dist[step, j]


@pytest.mark.parametrize("impl", AVAILABLE_IMPLS)
def test_objective_identical_under_every_impl(impl):
    base = RowObjective()
    other = RowObjective(impl=impl)
    for placement in random_placements(8, 4, count=6, seed=3):
        assert base(placement) == other(placement)


def _parallel_sweep(n, seed, restarts, jobs, **kwargs):
    cfg = SearchConfig(seed=seed, restarts=restarts, jobs=jobs)
    return optimize(n, params=SMALL, config=cfg, **kwargs).sweep


def _result_bytes(result):
    """A result's JSON minus its wall time: the whole document,
    ``config`` included, is the same for every ``jobs``."""
    data = result.to_json()
    del data["wall_time_s"]
    return json.dumps(data, sort_keys=True)


class TestParallelEngineParity:
    """The jobs knob changes wall-clock only, never results."""

    def test_optimize_parallel_bit_identical_to_serial(self):
        serial = _parallel_sweep(8, seed=2019, restarts=3, jobs=1)
        fanned = _parallel_sweep(8, seed=2019, restarts=3, jobs=4)
        assert serial.best.placement == fanned.best.placement
        assert serial.best.link_limit == fanned.best.link_limit
        assert serial.best.latency == fanned.best.latency
        assert serial.best == fanned.best  # frozen dataclass: bit-wise
        for c in serial.solutions:
            assert serial.solutions[c].placement == fanned.solutions[c].placement
            assert serial.solutions[c].energy == fanned.solutions[c].energy
            assert serial.solutions[c].evaluations == fanned.solutions[c].evaluations
        assert serial.restart_energies == fanned.restart_energies

    @pytest.mark.parametrize("restarts", [1, 2])
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_every_jobs_value_agrees(self, jobs, restarts):
        def run(entry, *args, jobs):
            cfg = SearchConfig(seed=7, restarts=restarts, jobs=jobs)
            return _result_bytes(entry(*args, params=SMALL, config=cfg))

        assert run(optimize, 6, jobs=1) == run(optimize, 6, jobs=jobs)
        assert (run(solve_row_problem, 8, 3, jobs=1)
                == run(solve_row_problem, 8, 3, jobs=jobs))

    def test_row_search_parallel_bit_identical(self):
        a, b = (
            solve_row_problem(8, 4, params=SMALL,
                              config=SearchConfig(seed=11, restarts=4, jobs=jobs))
            for jobs in (1, 3)
        )
        assert a.placement == b.placement
        assert a.energy == b.energy
        assert a.restart_energies == b.restart_energies

    def test_restart_seeds_are_independent_of_grid(self):
        # Dropping a C from the sweep must not shift other chains' seeds.
        full = _parallel_sweep(6, seed=5, restarts=2, jobs=1)
        partial = _parallel_sweep(
            6, seed=5, restarts=2, jobs=1, link_limits=(2, 4)
        )
        for c in (2, 4):
            assert full.solutions[c].placement == partial.solutions[c].placement
            assert full.restart_energies[c] == partial.restart_energies[c]

    def test_unpicklable_objective_runs_inline_only(self):
        # The objective travels with each task: inline any callable
        # works; a pool needs one that pickles, checked before any
        # worker starts.
        objective = RowObjective()
        local = lambda placement: objective(placement)  # noqa: E731
        cfg = SearchConfig(seed=3, restarts=2)
        inline = solve_row_problem(6, 2, objective=local, params=SMALL,
                                   config=cfg)
        default = solve_row_problem(6, 2, params=SMALL, config=cfg)
        assert inline.placement == default.placement
        assert inline.restart_energies == default.restart_energies
        with pytest.raises(ConfigurationError, match="picklable"):
            solve_row_problem(6, 2, objective=local, params=SMALL,
                              config=cfg.with_updates(jobs=2))

    def test_reduction_tie_break_prefers_lowest_restart(self):
        # exact method: every restart returns the same optimum, so the
        # (energy, restart) tie-break must pick restart 0.
        sol = solve_row_problem(
            6, 2, method="exact",
            config=SearchConfig(seed=1, restarts=3, jobs=2),
        )
        (_, energies), = sol.restart_energies
        assert len(set(energies)) == 1
        assert sol.energy == energies[0]
