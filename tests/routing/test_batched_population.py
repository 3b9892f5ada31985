"""Population-batched evaluation == scalar evaluation, bit for bit.

The batched kernels (`weight_stack_population`, `batched_mean_distances`,
``RowObjective.evaluate_many``) exist purely for throughput -- the exact
searches and the serving layer's ``/evaluate`` batcher price whole
populations with them: one ``(B, n, n)`` left-to-right row stack
instead of ``B`` single-placement passes.  Min-plus relaxation is
elementwise per slice and the final reduction runs over each slice's
contiguous row, so the
contract is *bit-identical* results -- strict ``==`` on floats, byte
equality on placements -- which is what every test here demands.

Hypothesis drives the population shapes (including ``B = 1`` and
duplicate members) and non-integral hop costs.  The kernel-level checks are cross-impl gates: they run once per tier
available on this machine (``native`` joins when a compiled backend
loads), always comparing against the default path's bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SearchConfig
from repro.core.annealing import AnnealingParams, MemoizedObjective
from repro.core.branch_bound import validated_link_limit
from repro.core.connection_matrix import (
    ConnectionMatrix,
    enumerate_matrices,
    iter_unique_placements,
)
from repro.core.latency import RowObjective
from repro.core.optimizer import solve_row_problem
from repro.obs import MemorySink
from repro.obs.instrument import Instrumentation
from repro.routing.impls import available_impls
from repro.routing.shortest_path import (
    HopCostModel,
    batched_mean_distances,
    floyd_warshall_distances_batch,
    row_distances_batch,
    weight_stack,
    weight_stack_population,
)
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError

#: Integral and deliberately non-integral hop costs: the fold/dedup
#: fast paths gate on integrality, so both branches must agree.
COSTS = (
    HopCostModel(),
    HopCostModel(router_delay=2.7, unit_link_delay=0.3, contention_delay=0.1),
)

SMOKE = AnnealingParams(total_moves=400, moves_per_cooldown=100)

#: Cross-impl gate axis: every tier usable on this machine.
AVAILABLE_IMPLS = available_impls()
FAST_IMPLS = tuple(i for i in AVAILABLE_IMPLS if i != "reference")


@st.composite
def populations(draw):
    """(n, [RowPlacement]) batches, possibly with duplicate members."""
    n = draw(st.integers(4, 10))
    limit = draw(st.integers(2, 4))
    count = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    gen = np.random.default_rng((n, limit, seed))
    batch = [ConnectionMatrix.random(n, limit, gen).decode() for _ in range(count)]
    if count > 2 and draw(st.booleans()):
        batch[-1] = batch[0]  # force a duplicate
    return n, batch


# ----------------------------------------------------------------------
# Kernel-level parity
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(populations())
def test_weight_stack_population_matches_scalar_stacks(pop):
    _, batch = pop
    for cost in COSTS:
        stacked = weight_stack_population(batch, cost)
        assert stacked.shape == (len(batch), batch[0].n, batch[0].n)
        for b, placement in enumerate(batch):
            single = weight_stack(placement, cost)
            assert np.array_equal(stacked[b], single[0])
            # The right-to-left matrix is the left-to-right one
            # transposed: the weight-level half of the transpose identity.
            assert np.array_equal(single[1], single[0].T)


@pytest.mark.parametrize("impl", AVAILABLE_IMPLS)
@settings(max_examples=40, deadline=None)
@given(pop=populations())
def test_batched_mean_distances_matches_scalar_objective(pop, impl):
    _, batch = pop
    for cost in COSTS:
        objective = RowObjective(cost=cost)
        energies = batched_mean_distances(batch, cost, impl=impl)
        assert energies.shape == (len(batch),)
        for placement, energy in zip(batch, energies):
            assert float(energy) == objective(placement)


@settings(max_examples=25, deadline=None)
@given(populations(), st.integers(0, 2**16))
def test_batched_mean_distances_weighted_parity(pop, seed):
    n, batch = pop
    gen = np.random.default_rng(seed)
    weights = gen.random((n, n))
    np.fill_diagonal(weights, 0.0)
    for cost in COSTS:
        objective = RowObjective(cost=cost, weights=weights)
        energies = batched_mean_distances(batch, cost, weights=objective.weights)
        for placement, energy in zip(batch, energies):
            assert float(energy) == objective(placement)


@pytest.mark.parametrize("impl", FAST_IMPLS)
def test_batched_distances_equal_per_placement_passes(impl):
    # The (B, n, n) row stack relaxes each slice independently, so slice
    # b must equal placement b's full left-to-right pass exactly, and
    # its transpose the full right-to-left pass -- under every fast
    # tier, bit-identical to the default tier's two full passes.
    batch = [
        ConnectionMatrix.random(8, 3, np.random.default_rng(k)).decode()
        for k in range(6)
    ]
    stacked = row_distances_batch(
        weight_stack_population(batch, COSTS[1]), impl=impl
    )
    for b, placement in enumerate(batch):
        single = floyd_warshall_distances_batch(weight_stack(placement, COSTS[1]))
        assert np.array_equal(stacked[b], single[0])
        assert np.array_equal(stacked[b].T, single[1])


# ----------------------------------------------------------------------
# Objective-level parity (fold/dedup layers)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("impl", AVAILABLE_IMPLS)
@settings(max_examples=40, deadline=None)
@given(pop=populations())
def test_evaluate_many_matches_scalar_calls(pop, impl):
    _, batch = pop
    for cost in COSTS:
        scalar = RowObjective(cost=cost)
        batched = RowObjective(cost=cost, impl=impl)
        expected = [scalar(p) for p in batch]
        got = batched.evaluate_many(batch)
        assert [float(v) for v in got] == expected


@settings(max_examples=25, deadline=None)
@given(populations())
def test_evaluate_many_folded_flag_is_value_safe(pop):
    # folded=True only skips the objective-level dedup; values must not
    # move even when the caller's "already folded" claim is false.
    _, batch = pop
    for cost in COSTS:
        objective = RowObjective(cost=cost)
        plain = objective.evaluate_many(batch)
        folded = objective.evaluate_many(batch, folded=True)
        assert np.array_equal(plain, folded)


@settings(max_examples=25, deadline=None)
@given(populations())
def test_memoized_evaluate_many_accounting_matches_scalar(pop):
    _, batch = pop
    scalar = MemoizedObjective(RowObjective())
    batched = MemoizedObjective(RowObjective())
    expected = [scalar(p) for p in batch]
    got = batched.evaluate_many(batch)
    assert [float(v) for v in got] == expected
    # Unique-evaluation accounting is the Figure 7 x-axis: batching a
    # population must count exactly like pricing it one by one.
    assert batched.evaluations == scalar.evaluations
    assert batched.calls == scalar.calls
    # A second pass is all memo hits on both paths.
    scalar_hits = scalar.hits
    for p in batch:
        scalar(p)
    batched.evaluate_many(batch)
    assert batched.hits == scalar.hits
    assert scalar.hits == scalar_hits + len(batch)
    assert batched.evaluations == scalar.evaluations


# ----------------------------------------------------------------------
# Enumeration parity
# ----------------------------------------------------------------------

def _decode_loop(n, limit, fold):
    """The scalar reference: decode every matrix, keep first members."""
    seen = set()
    expected = []
    for matrix in enumerate_matrices(n, limit):
        placement = matrix.decode()
        key = placement.mirror_fold_bytes() if fold else placement.canonical_bytes()
        if key in seen:
            continue
        seen.add(key)
        expected.append(placement)
    return expected


def _assert_same_sequence(got, expected):
    assert got == expected  # same representatives, same order
    assert [g.canonical_bytes() for g in got] == [
        e.canonical_bytes() for e in expected
    ]


#: One-layer spaces (C = 2) take the bit-reversal fold; odd n has a
#: middle connection point that is its own mirror, n = 2 has none.
ONE_LAYER = [(2, 2), (3, 2), (5, 2), (7, 2), (13, 2)]


@pytest.mark.parametrize(
    "n,limit", [(4, 2), (4, 3), (8, 2), (8, 3), (6, 4)] + ONE_LAYER
)
def test_iter_unique_placements_matches_decode_loop(n, limit):
    _assert_same_sequence(
        list(iter_unique_placements(n, limit)), _decode_loop(n, limit, True)
    )


@pytest.mark.parametrize("n,limit", [(4, 3), (6, 3), (6, 4)] + ONE_LAYER)
def test_iter_unique_placements_unfolded_matches_decode_loop(n, limit):
    _assert_same_sequence(
        list(iter_unique_placements(n, limit, fold=False)),
        _decode_loop(n, limit, False),
    )


def test_iter_unique_placements_block_size_invariant():
    # Small blocks split the one-layer fold's mirror pairs across blocks.
    for n, limit, block_size in [(8, 3, 7), (9, 2, 1), (9, 2, 7), (10, 2, 7)]:
        for fold in (True, False):
            full = list(iter_unique_placements(n, limit, fold=fold))
            tiny = list(iter_unique_placements(
                n, limit, block_size=block_size, fold=fold
            ))
            _assert_same_sequence(tiny, full)


# ----------------------------------------------------------------------
# C validated once at the boundary
# ----------------------------------------------------------------------

class TestValidatedLinkLimit:
    def test_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            validated_link_limit(8, 0)
        with pytest.raises(ConfigurationError):
            validated_link_limit(8, -3)

    def test_passes_through_valid_limits(self):
        assert validated_link_limit(8, 4) == 4
        assert validated_link_limit(8, 16) == 16  # C_full for n=8

    def test_clamps_and_emits_event(self):
        sink = MemorySink()
        obs = Instrumentation(sinks=[sink])
        assert validated_link_limit(8, 99, obs) == 16
        clamps = sink.of_kind("config.clamp")
        assert len(clamps) == 1
        assert clamps[0].payload["requested_link_limit"] == 99
        assert clamps[0].payload["effective_link_limit"] == 16

    def test_engine_solves_clamped_instance(self):
        sol = solve_row_problem(6, 99, params=SMOKE,
                                config=SearchConfig(seed=1))
        assert sol.link_limit == validated_link_limit(6, 99)
