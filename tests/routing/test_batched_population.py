"""Population pricing == the pure-Python oracle, bit for bit.

Every row price runs one path over a population (`weight_stack_population`,
`batched_mean_distances`, ``RowObjective.evaluate_many``; a single
placement is a population of one): one ``(B, n, n)`` left-to-right row
stack.  A population is a placement list or a ``LinkBlock`` (the exact
search's link arrays); both go through the same builder.  Min-plus
relaxation is elementwise per slice and the final reduction runs over
each slice's contiguous row, so a member's energy does not depend on
what else the batch holds.  The expected side of each check is the
oracle (:mod:`repro.routing.shortest_path_ref`'s weight matrices and
distances, reduced by NumPy's own mean), so two independent
implementations meet: *bit-identical* results -- strict ``==`` on
floats, byte equality on placements.

Hypothesis drives the population shapes (including ``B = 1`` and
duplicate members) and non-integral hop costs.  The kernel-level checks
are cross-impl gates: they run once per tier available on this machine
(``native`` joins when a compiled backend loads).
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
    iter_unique_blocks,
    iter_unique_placements,
)
from repro.core.latency import RowObjective
from repro.core.optimizer import solve_row_problem
from repro.obs import MemorySink
from repro.obs.instrument import Instrumentation
from repro.routing import shortest_path_ref as ref
from repro.routing.impls import available_impls
from repro.routing.shortest_path import (
    HopCostModel,
    batched_mean_distances,
    combine_directions,
    floyd_warshall_distances_batch,
    row_distances_batch,
    weight_stack,
    weight_stack_population,
)
from repro.topology.row import LinkBlock, RowPlacement
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


def oracle_energy(placement, cost=HopCostModel(), weights=None):
    """The oracle's directional distances, reduced by NumPy's mean (or
    weighted mean) of the whole matrix."""
    dist = np.asarray(ref.directional_distances_py(placement, cost))
    if weights is None:
        return float(dist.mean())
    w = np.asarray(weights, dtype=float)
    return float((dist * w).sum() / w.sum())


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
            l2r = np.asarray(ref.weight_matrix_py(placement, cost, "l2r"))
            r2l = np.asarray(ref.weight_matrix_py(placement, cost, "r2l"))
            assert np.array_equal(stacked[b], l2r)
            # The one-member stack and its transpose are the oracle's
            # two passes: the weight-level half of the transpose identity.
            single = weight_stack(placement, cost)
            assert np.array_equal(single[0], l2r)
            assert np.array_equal(single[1], r2l)


@settings(max_examples=40, deadline=None)
@given(populations(), st.integers(1, 9))
def test_link_block_round_trips_placements(pop, size):
    _, batch = pop
    block = LinkBlock.from_placements(batch)
    assert len(block) == len(batch)
    assert list(block) == batch
    assert [block[b] for b in range(len(batch))] == batch
    chunks = list(block.chunks(size))
    assert [len(c) for c in chunks] == [
        min(size, len(batch) - lo) for lo in range(0, len(batch), size)
    ]
    assert [p for c in chunks for p in c] == batch


def test_link_block_edges():
    mesh = RowPlacement.mesh(5)
    block = LinkBlock.from_placements([mesh, mesh])
    assert len(block.owner) == 0 and list(block) == [mesh, mesh]
    with pytest.raises(IndexError):
        block[2]
    with pytest.raises(ValueError, match="at least one"):
        LinkBlock.from_placements([])
    with pytest.raises(ValueError, match="mixes row sizes"):
        LinkBlock.from_placements([mesh, RowPlacement.mesh(6)])
    # One code per block: a code whose mirror comes first keeps nothing.
    blocks = list(iter_unique_blocks(6, 2, block_size=1))
    empty = [b for b in blocks if len(b) == 0]
    assert len(blocks) == 16 and empty
    assert all(list(b) == [] and list(b.chunks(4)) == [] for b in empty)
    assert [p for b in blocks for p in b] == list(iter_unique_placements(6, 2))


@pytest.mark.parametrize("impl", AVAILABLE_IMPLS)
@settings(max_examples=40, deadline=None)
@given(pop=populations())
def test_batched_mean_distances_matches_scalar_objective(pop, impl):
    _, batch = pop
    for cost in COSTS:
        objective = RowObjective(cost=cost, impl=impl)
        energies = batched_mean_distances(batch, cost, impl=impl)
        assert energies.shape == (len(batch),)
        for placement, energy in zip(batch, energies):
            assert float(energy) == oracle_energy(placement, cost)
            assert objective(placement) == float(energy)


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
            assert float(energy) == oracle_energy(placement, cost, weights)
            assert objective(placement) == float(energy)


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
    # The combined matrix: upper triangle as is, the lower one from the
    # transpose (the right-to-left pass), zero diagonal.
    n = stacked.shape[-1]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    expected = np.where(upper, stacked, stacked.swapaxes(1, 2))
    expected[:, np.arange(n), np.arange(n)] = 0.0
    combined = combine_directions(stacked)
    assert combined.flags.c_contiguous and not np.shares_memory(combined, stacked)
    assert np.array_equal(combined, expected)


# ----------------------------------------------------------------------
# Objective-level parity (fold/dedup layers)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("impl", AVAILABLE_IMPLS)
@settings(max_examples=40, deadline=None)
@given(pop=populations())
def test_evaluate_many_matches_scalar_calls(pop, impl):
    _, batch = pop
    for cost in COSTS:
        objective = RowObjective(cost=cost, impl=impl)
        expected = [oracle_energy(p, cost) for p in batch]
        got = objective.evaluate_many(batch)
        assert [float(v) for v in got] == expected
        assert [objective(p) for p in batch] == expected


def test_memoized_block_pricing_counts_like_the_scalar_loop():
    # The population scan's chunks: a fresh memo (or the D&C base
    # case's memo of a memo) bulk-counts a link block as misses.
    block = next(iter_unique_blocks(8, 3, fold=False))
    scalar = MemoizedObjective(RowObjective())
    expected = [scalar(p) for p in block]
    inner = MemoizedObjective(RowObjective())
    for memo in (MemoizedObjective(RowObjective()), MemoizedObjective(inner)):
        assert memo.prices_link_blocks()
        got = memo.evaluate_many(block)
        assert [float(v) for v in got] == expected
        assert (memo.calls, memo.misses, memo.evaluations) == (
            scalar.calls, scalar.misses, scalar.evaluations
        )
    assert inner.evaluations == scalar.evaluations
    assert not MemoizedObjective(RowObjective().__call__).prices_link_blocks()


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
# Block pricing: the exact search's link arrays, every class
# ----------------------------------------------------------------------

#: One- and multi-layer spaces, odd and even n, up to 12 bits.
BLOCK_SPACES = [(4, 2), (7, 2), (10, 2), (5, 3), (8, 3), (5, 4), (6, 4)]


def _objective_fields(kind, n):
    if kind == "uniform":
        return {}
    if kind == "weighted":
        gen = np.random.default_rng(n)
        w = gen.random((n, n))
        np.fill_diagonal(w, 0.0)
        return {"weights": tuple(map(tuple, w.tolist()))}
    return {"cost": COSTS[1]}  # non-integral hop costs


@pytest.mark.parametrize("kind", ["uniform", "weighted", "non_integral"])
@pytest.mark.parametrize("n,limit", BLOCK_SPACES)
def test_block_pricing_matches_scalar_objective(n, limit, kind):
    # Every class of the space, folded and unfolded, priced from the
    # enumerator's arrays on every fast tier: whole code blocks and
    # chunks of 7, bit for bit against the oracle's energies and the
    # objective's one-member calls.
    fields = _objective_fields(kind, n)
    scalar = RowObjective(**fields)
    oracle = {}
    for fold in (True, False):
        priced = 0
        for block in iter_unique_blocks(n, limit, block_size=37, fold=fold):
            expected = []
            for p in block:
                key = p.canonical_bytes()
                if key not in oracle:
                    oracle[key] = oracle_energy(
                        p, scalar.cost, fields.get("weights")
                    )
                expected.append(oracle[key])
            assert [scalar(p) for p in block] == expected
            priced += len(expected)
            for impl in FAST_IMPLS:
                objective = RowObjective(**fields, impl=impl)
                got = objective.evaluate_many(block)
                assert [float(v) for v in got] == expected
                chunked = [
                    float(v)
                    for chunk in block.chunks(7)
                    for v in batched_mean_distances(
                        chunk, scalar.cost, objective._w, impl=impl
                    )
                ]
                assert chunked == expected
        assert priced == len(list(iter_unique_placements(n, limit, fold=fold)))


def test_block_pricing_on_the_reference_tier():
    block = next(iter_unique_blocks(6, 3, fold=False))
    reference = RowObjective(cost=COSTS[1], impl="reference")
    assert [float(v) for v in reference.evaluate_many(block)] == [
        oracle_energy(p, COSTS[1]) for p in block
    ]


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
