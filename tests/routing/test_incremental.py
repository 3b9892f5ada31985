"""Cross-impl parity suite for the dynamic directional-APSP engine.

The contract is strong: after any sequence of link flips (including
rejected ones, undone by their inverse change set) the engine's
distances *and* next hops are bit-identical to a from-scratch :func:`directional_paths` solve, under
the vectorized, pure-Python reference, and (when a backend loads)
compiled native implementations.  The engine-impl axis below runs the
kernel-distinct tiers through the same walks, so the native
crossing-block rewrite is gated against the NumPy one bit for bit.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connection_matrix import ConnectionMatrix
from repro.routing.incremental import (
    REWRITE_CHUNK_ELEMENTS,
    IncrementalApspEngine,
    placement_link_changes,
)
from repro.routing.impls import available_impls
from repro.routing.shortest_path import (
    HopCostModel,
    directional_paths,
    floyd_warshall_batch,
    row_distances_batch,
    weight_stack,
)
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError

from tests.conftest import row_placements

SIZES = (4, 6, 8, 16)
LIMITS = (2, 3, 4, 5)

#: The engine tiers with distinct kernels ("reference" engines reuse
#: the vectorized block rewrites, so gating them adds no coverage).
ENGINE_IMPLS = tuple(i for i in available_impls() if i != "reference")


def assert_matches_full(engine, impl="vectorized", cost=None):
    """Engine state must be bit-identical to the from-scratch solver."""
    dist, nh = directional_paths(engine.placement, cost, impl=impl)
    np.testing.assert_array_equal(engine.distances(), dist)
    np.testing.assert_array_equal(engine.next_hops(), nh)
    assert engine.self_check()


class TestFreshEngine:
    @pytest.mark.parametrize("engine_impl", ENGINE_IMPLS)
    @pytest.mark.parametrize("n", SIZES)
    def test_mesh_matches_full_solver(self, n, engine_impl):
        engine = IncrementalApspEngine(RowPlacement.mesh(n), impl=engine_impl)
        assert_matches_full(engine)

    @pytest.mark.parametrize("engine_impl", ENGINE_IMPLS)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("limit", LIMITS)
    def test_random_placement_matches_all_impls(self, n, limit, engine_impl):
        rng = np.random.default_rng(7 * n + limit)
        m = ConnectionMatrix.random(n, limit, rng=rng)
        engine = IncrementalApspEngine(m.decode(), impl=engine_impl)
        assert_matches_full(engine, impl="vectorized")
        assert_matches_full(engine, impl="reference")

    def test_mean_distance_matches_objective_mean(self):
        rng = np.random.default_rng(3)
        m = ConnectionMatrix.random(8, 4, rng=rng)
        engine = IncrementalApspEngine(m.decode())
        dist, _ = directional_paths(engine.placement)
        assert engine.mean_distance() == float(dist.mean())


class TestSingleEdits:
    def test_add_then_remove_roundtrip(self):
        engine = IncrementalApspEngine(RowPlacement.mesh(8))
        before = engine.distances().copy()
        engine.add_link(1, 5)
        assert (1, 5) in engine.links
        assert_matches_full(engine)
        engine.remove_link(1, 5)
        np.testing.assert_array_equal(engine.distances(), before)
        assert_matches_full(engine)

    def test_add_existing_link_rejected(self):
        engine = IncrementalApspEngine(RowPlacement(6, frozenset({(0, 3)})))
        with pytest.raises(ConfigurationError):
            engine.add_link(0, 3)

    def test_remove_absent_link_rejected(self):
        engine = IncrementalApspEngine(RowPlacement.mesh(6))
        with pytest.raises(ConfigurationError):
            engine.remove_link(0, 3)

    def test_failed_validation_leaves_state_intact(self):
        engine = IncrementalApspEngine(RowPlacement.mesh(6))
        with pytest.raises(ConfigurationError):
            engine.apply_link_changes([(0, 2, True), (0, 3, False)])
        assert engine.links == set()
        assert_matches_full(engine)

    @pytest.mark.parametrize("engine_impl", ENGINE_IMPLS)
    @pytest.mark.parametrize("link", [(2, 3), (-1, 3), (3, 6), (4, 2)])
    def test_non_express_links_rejected(self, engine_impl, link):
        # Local links, negative or out-of-row endpoints and reversed
        # pairs never reach a kernel: they name no express link.
        engine = IncrementalApspEngine(RowPlacement.mesh(6), impl=engine_impl)
        for is_add in (True, False):
            with pytest.raises(ConfigurationError, match="not an express"):
                engine.apply_link_changes([(0, 3, True), (*link, is_add)])
        assert engine.links == set()
        assert_matches_full(engine)


def placement_changes(counts, added, removed):
    """Fold a layer-local diff into the multiset of links over layers,
    emitting engine changes only when a link's count crosses 0 <-> 1
    (the same rule the incremental annealer applies)."""
    changes = []
    for link in removed:
        counts[link] -= 1
        if counts[link] == 0:
            changes.append((link[0], link[1], False))
    for link in added:
        counts[link] += 1
        if counts[link] == 1:
            changes.append((link[0], link[1], True))
    return changes


class TestRandomWalks:
    """SA-shaped walks: propose a bit flip, accept it or undo it."""

    @staticmethod
    def link_counts(m):
        return Counter(
            link
            for layer in range(m.bits.shape[1])
            for link in m.layer_links(layer)
        )

    @pytest.mark.parametrize("engine_impl", ENGINE_IMPLS)
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("limit", LIMITS)
    def test_walk_stays_bit_identical(self, n, limit, engine_impl):
        rng = np.random.default_rng(1000 * n + limit)
        m = ConnectionMatrix.random(n, limit, rng=rng)
        engine = IncrementalApspEngine(m.decode(), impl=engine_impl)
        counts = self.link_counts(m)
        steps = 60 if n < 16 else 30
        for step in range(steps):
            row, layer = m.random_move(rng)
            added, removed = m.flip_diff(row, layer)
            m.flip(row, layer)
            changes = placement_changes(counts, added, removed)
            engine.apply_link_changes(changes)
            if rng.random() < 0.4:  # reject: apply the inverse change set
                engine.apply_link_changes(
                    [(a, b, not is_add) for a, b, is_add in changes]
                )
                m.flip(row, layer)
                counts = self.link_counts(m)
            assert engine.links == set(m.decode().express_links)
            if step % 10 == 0:
                assert_matches_full(engine)
        assert_matches_full(engine)
        assert_matches_full(engine, impl="reference")

    @pytest.mark.parametrize("engine_impl", ENGINE_IMPLS)
    def test_walk_with_dyadic_cost_model(self, engine_impl):
        # Non-default but exactly-representable costs: bit-identity must
        # survive arbitrary per-hop sums built from dyadic rationals.
        cost = HopCostModel(
            router_delay=2.5, unit_link_delay=0.25, contention_delay=0.5
        )
        rng = np.random.default_rng(42)
        m = ConnectionMatrix.random(8, 4, rng=rng)
        engine = IncrementalApspEngine(m.decode(), cost, impl=engine_impl)
        counts = self.link_counts(m)
        for _ in range(40):
            row, layer = m.random_move(rng)
            added, removed = m.flip_diff(row, layer)
            m.flip(row, layer)
            engine.apply_link_changes(placement_changes(counts, added, removed))
        assert_matches_full(engine, cost=cost)


class TestFlipDiff:
    """``ConnectionMatrix.flip_diff`` against a set-difference oracle."""

    @pytest.mark.parametrize("n", (4, 6, 8))
    @pytest.mark.parametrize("limit", (2, 3, 5))
    def test_diff_matches_layer_link_sets(self, n, limit):
        rng = np.random.default_rng(n * 31 + limit)
        m = ConnectionMatrix.random(n, limit, rng=rng)
        for _ in range(80):
            row, layer = m.random_move(rng)
            before = set(m.layer_links(layer))
            added, removed = m.flip_diff(row, layer)
            m.flip(row, layer)
            after = set(m.layer_links(layer))
            assert set(added) == after - before
            assert set(removed) == before - after


class TestResync:
    def test_resync_repairs_corrupted_state(self):
        engine = IncrementalApspEngine(RowPlacement(8, frozenset({(1, 5)})))
        engine._S[0, 7] += 1.0  # simulate drift in the one layer
        assert not engine.self_check()
        engine.resync()
        assert engine.self_check()
        assert_matches_full(engine)

    @pytest.mark.parametrize("engine_impl", ENGINE_IMPLS)
    def test_resync_repairs_corrupted_total(self, engine_impl):
        engine = IncrementalApspEngine(
            RowPlacement(8, frozenset({(1, 5)})), impl=engine_impl
        )
        engine.add_link(2, 7)
        engine._total += 1.0  # drift in the running total alone
        assert not engine.self_check()
        engine.resync()
        assert engine.self_check()
        assert engine.mean_distance() == float(
            directional_paths(engine.placement)[0].mean()
        )


class TestWideCuts:
    """A fully connected row: its middle cut is crossed by thousands of
    edges, so nothing in the update may hold them in fixed scratch."""

    N = 130
    MID = N // 2

    @pytest.fixture(scope="class")
    def full_row(self):
        links = frozenset(
            (a, b) for a in range(self.N) for b in range(a + 2, self.N)
        )
        return RowPlacement(self.N, links)

    @staticmethod
    def assert_layer_exact(engine):
        w = weight_stack(engine.placement, engine.cost)[:1]
        np.testing.assert_array_equal(engine._S, row_distances_batch(w)[0])
        assert 2.0 * engine._total == np.sum(engine.distances())

    @pytest.mark.parametrize("engine_impl", ENGINE_IMPLS)
    def test_middle_cut_rewrite(self, full_row, engine_impl):
        engine = IncrementalApspEngine(full_row, impl=engine_impl)
        crossing = np.isfinite(engine._W[:self.MID, self.MID:]).sum()
        assert crossing == self.MID * (self.N - self.MID) == 4225
        engine.remove_link(0, self.MID)
        self.assert_layer_exact(engine)
        engine.add_link(0, self.MID)
        self.assert_layer_exact(engine)

    #: Rewrites every row of the block above the cut: the NumPy twin's
    #: unchunked (rows, K, cols) temporary would be 65 x 4224 x 64
    #: doubles, about 140 MB.
    FULL_BLOCK = [(MID - 1, MID + 1, False), (0, MID + 1, False)]

    def test_middle_cut_full_block_compiled(self, full_row):
        if "native" not in ENGINE_IMPLS:
            pytest.skip("native tier unavailable (no C toolchain)")
        engine = IncrementalApspEngine(full_row, impl="native")
        engine.apply_link_changes(self.FULL_BLOCK)
        self.assert_layer_exact(engine)
        assert engine.self_check()

    def test_middle_cut_full_block_numpy_is_bounded(self, full_row):
        engine = IncrementalApspEngine(full_row, impl="vectorized")
        tracemalloc.start()
        try:
            engine.apply_link_changes(self.FULL_BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assert_layer_exact(engine)
        assert engine.self_check()
        # One chunk of the temporary plus the gathered (rows, K) and
        # (K, cols) operands, about 2.2 MB each at this size.
        assert peak < REWRITE_CHUNK_ELEMENTS * 8 + 8 * 2**20, peak


class TestPlacementLinkChanges:
    def test_diff_is_deterministic_and_complete(self):
        before = {(0, 3), (2, 5)}
        after = {(2, 5), (1, 4), (0, 7)}
        changes = placement_link_changes(before, after)
        assert changes == [(0, 3, False), (0, 7, True), (1, 4, True)]

    def test_applying_diff_reaches_target(self):
        rng = np.random.default_rng(5)
        src = ConnectionMatrix.random(8, 4, rng=rng).decode()
        dst = ConnectionMatrix.random(8, 4, rng=rng).decode()
        engine = IncrementalApspEngine(src)
        engine.apply_link_changes(
            placement_link_changes(src.express_links, dst.express_links)
        )
        assert engine.placement == dst
        assert_matches_full(engine)


@st.composite
def link_set_pairs(draw, max_n: int = 14):
    """Two arbitrary link sets on the same row, far apart in general:
    their difference holds several links at several right endpoints."""
    n = draw(st.integers(3, max_n))
    src = draw(row_placements(min_n=n, max_n=n, max_links=2 * n))
    dst = draw(row_placements(min_n=n, max_n=n, max_links=2 * n))
    return src, dst


class TestMultiLinkChangeSets:
    """One ``apply_link_changes`` call carrying a whole link-set diff --
    the annealer's lazy sync from the last priced state to a memo miss.
    """

    @pytest.mark.parametrize("engine_impl", ENGINE_IMPLS)
    @settings(max_examples=60, deadline=None)
    @given(pair=link_set_pairs(), cost_scale=st.integers(1, 3))
    def test_diff_matches_from_scratch_solve(self, engine_impl, pair,
                                             cost_scale):
        src, dst = pair
        cost = HopCostModel(router_delay=cost_scale)
        engine = IncrementalApspEngine(src, cost, impl=engine_impl)
        engine.apply_link_changes(
            placement_link_changes(src.express_links, dst.express_links)
        )
        assert engine.placement == dst
        dist, nh = floyd_warshall_batch(weight_stack(dst, cost))
        upper = np.triu(np.ones((dst.n, dst.n), dtype=bool), k=1)
        ref = np.where(upper, dist[0], dist[1])
        np.fill_diagonal(ref, 0.0)
        ref_nh = np.where(upper, nh[0], nh[1])
        np.fill_diagonal(ref_nh, np.arange(dst.n))
        assert np.array_equal(engine.distances(), ref)
        assert np.array_equal(engine.next_hops(), ref_nh)
        assert engine.self_check()
