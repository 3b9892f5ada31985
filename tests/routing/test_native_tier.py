"""Adversarial bit-identity gate for the compiled native tier.

The cross-impl suites gate the native kernels on structured inputs
(real placements, real SA walks).  This module attacks the same
contract from the other side: hypothesis-driven *unstructured* weight
stacks -- non-integral entries, heavy ``inf`` density, ``B = 1`` --
where any divergence in relaxation order, tie-breaking, or in-place
aliasing would surface as a bit difference against the NumPy kernels.

Domain preconditions (documented on the kernels): every weight matrix
has a zero diagonal and nonnegative entries.  Those are exactly the
invariants the in-place compiled relaxation relies on for row-k /
column-k stability within iteration ``k``, so the strategies below
always enforce them.

The whole module is skipped when no native backend (numba or the
C-extension fallback) can load on this machine; the graceful-fallback
behaviour for that case is covered by ``test_impls.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SearchConfig
from repro.core.annealing import AnnealingParams
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective
from repro.core.optimizer import optimize
from repro.routing import native
from repro.routing.impls import available_impls
from repro.routing.incremental import IncrementalApspEngine
from repro.routing.shortest_path import (
    HopCostModel,
    batched_mean_distances,
    floyd_warshall_batch,
    floyd_warshall_distances_batch,
    weight_stack_population,
)

pytestmark = pytest.mark.skipif(
    "native" not in available_impls(),
    reason="no native backend (numba or C toolchain) available",
)

SMALL = AnnealingParams(total_moves=300, moves_per_cooldown=100)


@st.composite
def weight_stacks(draw, max_pairs: int = 3, max_n: int = 12):
    """Adversarial ``(2B, n, n)`` stacks satisfying the kernel domain.

    Entries are deliberately non-integral, a drawn fraction of them is
    ``inf`` (up to almost-disconnected), and the diagonal is zero --
    the documented precondition for in-place relaxation stability.
    """
    b2 = 2 * draw(st.integers(1, max_pairs))
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    inf_frac = draw(st.floats(0.0, 0.95))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.25, 9.75, size=(b2, n, n))
    w[rng.random((b2, n, n)) < inf_frac] = np.inf
    idx = np.arange(n)
    w[:, idx, idx] = 0.0
    return w


class TestAdversarialStacks:
    @given(w=weight_stacks())
    @settings(max_examples=40, deadline=None)
    def test_distances_bit_identical(self, w):
        expect = floyd_warshall_distances_batch(w, impl="vectorized")
        got = floyd_warshall_distances_batch(w, impl="native")
        assert got.dtype == expect.dtype == np.float64
        assert np.array_equal(got, expect)

    @given(w=weight_stacks())
    @settings(max_examples=40, deadline=None)
    def test_paths_bit_identical(self, w):
        d_expect, nh_expect = floyd_warshall_batch(w, impl="vectorized")
        d_got, nh_got = floyd_warshall_batch(w, impl="native")
        assert np.array_equal(d_got, d_expect)
        assert nh_got.dtype == nh_expect.dtype == np.int64
        assert np.array_equal(nh_got, nh_expect)

    @given(w=weight_stacks(max_pairs=1, max_n=8))
    @settings(max_examples=25, deadline=None)
    def test_input_stack_is_never_mutated(self, w):
        before = w.copy()
        floyd_warshall_batch(w, impl="native")
        floyd_warshall_distances_batch(w, impl="native")
        assert np.array_equal(w, before)

    def test_fortran_ordered_input_is_handled(self):
        # The ctypes backend requires C-contiguous float64; the seam
        # must copy, not reinterpret, exotic layouts.
        rng = np.random.default_rng(3)
        w = np.asfortranarray(rng.uniform(0.5, 4.5, size=(2, 6, 6)))
        idx = np.arange(6)
        w[:, idx, idx] = 0.0
        assert np.array_equal(
            floyd_warshall_distances_batch(w, impl="native"),
            floyd_warshall_distances_batch(w, impl="vectorized"),
        )


class TestPopulationPricing:
    #: Non-integral costs defeat the small-integer fast paths.
    COST = HopCostModel(
        router_delay=2.7, unit_link_delay=0.3, contention_delay=0.1
    )

    @pytest.mark.parametrize("count", (1, 2, 7))
    def test_batched_mean_distances_matches(self, count):
        rng = np.random.default_rng(17 + count)
        pop = [
            ConnectionMatrix.random(8, 4, rng).decode() for _ in range(count)
        ]
        for cost in (HopCostModel(), self.COST):
            expect = batched_mean_distances(pop, cost, impl="vectorized")
            got = batched_mean_distances(pop, cost, impl="native")
            assert np.array_equal(got, expect)

    def test_weight_stack_population_feeds_native_identically(self):
        rng = np.random.default_rng(5)
        pop = [ConnectionMatrix.random(6, 3, rng).decode() for _ in range(4)]
        stack = weight_stack_population(pop, self.COST)
        assert stack.shape == (8, 6, 6)
        assert np.array_equal(
            floyd_warshall_distances_batch(stack, impl="native"),
            floyd_warshall_distances_batch(stack, impl="vectorized"),
        )


class TestIncrementalEngine:
    def test_boundary_rewrite_matches_numpy_engine(self):
        rng = np.random.default_rng(23)
        m = ConnectionMatrix.random(10, 4, rng)
        fast = IncrementalApspEngine(m.decode(), impl="native")
        base = IncrementalApspEngine(m.decode(), impl="vectorized")
        for step in range(40):
            i = int(rng.integers(0, 8))
            j = int(rng.integers(i + 2, 10))
            for engine in (fast, base):
                if (i, j) in engine.placement.express_links:
                    engine.remove_link(i, j)
                else:
                    engine.add_link(i, j)
            assert np.array_equal(fast.distances(), base.distances())
            assert np.array_equal(fast.next_hops(), base.next_hops())
            assert fast.placement == base.placement


def _sweep(n, impl, link_limits=None):
    cfg = SearchConfig(seed=2019, restarts=2, impl=impl)
    return optimize(
        n, params=SMALL, config=cfg, link_limits=link_limits
    ).sweep


class TestTrajectoryIdentity:
    """Whole SA runs -- not just kernels -- are impl-invariant."""

    def test_optimize_native_bit_identical(self):
        base = _sweep(8, "vectorized")
        fast = _sweep(8, "native")
        assert base.best == fast.best
        assert base.restart_energies == fast.restart_energies
        for c in base.solutions:
            assert base.solutions[c].placement == fast.solutions[c].placement
            assert base.solutions[c].energy == fast.solutions[c].energy
            assert (
                base.solutions[c].evaluations == fast.solutions[c].evaluations
            )

    def test_incremental_search_native_bit_identical(self):
        """The native engine walk (the default under ``impl="native"``)
        against the oracle tier's FW walk: whole trajectories."""
        base = _sweep(8, "reference")
        fast = _sweep(8, "native")
        assert base.best == fast.best
        assert base.restart_energies == fast.restart_energies
        for c, sol in base.solutions.items():
            other = fast.solutions[c]
            assert other.evaluations == sol.evaluations
            if sol.annealing is not None:
                assert other.annealing.trace == sol.annealing.trace
                assert (other.annealing.accepted_moves
                        == sol.annealing.accepted_moves)

    def test_objective_scalar_and_batched_agree(self):
        rng = np.random.default_rng(31)
        pop = [ConnectionMatrix.random(8, 4, rng).decode() for _ in range(6)]
        base = RowObjective(impl="vectorized")
        fast = RowObjective(impl="native")
        assert [base(p) for p in pop] == [fast(p) for p in pop]
        assert np.array_equal(
            np.asarray(base.evaluate_many(pop)),
            np.asarray(fast.evaluate_many(pop)),
        )


class TestWarmup:
    def test_warmup_is_idempotent_and_backend_named(self):
        native.warmup()
        native.warmup()  # second call must be a no-op
        assert native.available()
        assert native.backend_name() in native.BACKENDS


@pytest.mark.slow
class TestLargeProblems:
    def test_n32_sa_identity(self):
        base = _sweep(32, "vectorized", link_limits=(4,))
        fast = _sweep(32, "native", link_limits=(4,))
        assert base.best == fast.best
        assert base.restart_energies == fast.restart_energies

    def test_n64_native_restart_smoke(self):
        cfg = SearchConfig(seed=7, restarts=2, impl="native")
        result = optimize(
            64, params=SMALL, config=cfg, link_limits=(8,)
        )
        sol = result.sweep.solutions[8]
        assert sol.placement.n == 64
        assert np.isfinite(sol.energy)
        assert len(result.sweep.restart_energies[8]) == 2
