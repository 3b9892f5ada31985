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

The distance kernel is the left-to-right row kernel, so its stacks
are drawn from the row domain (``inf`` below the diagonal) and checked
against the full NumPy pass as well as the NumPy row kernel; the
next-hop kernel stays generic and is attacked with arbitrary stacks.

Whole searches are pinned to one tier with the ``pin_tier`` fixture
(``tests/conftest.py``), the seam that decides what every ``impl=None``
runs on.

The whole module is skipped when the C extension cannot load on this
machine; the fallback to NumPy for that case is covered by
``test_impls.py``.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SearchConfig
from repro.core.annealing import AnnealingParams
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective
from repro.core.optimizer import optimize
from repro.routing import _native_cext, native
from repro.routing.impls import available_impls
from repro.routing.incremental import IncrementalApspEngine
from repro.routing.shortest_path import (
    HopCostModel,
    batched_mean_distances,
    floyd_warshall_batch,
    floyd_warshall_distances_batch,
    row_distances_batch,
    weight_stack,
    weight_stack_population,
)
from repro.topology.row import RowPlacement
from tests.conftest import row_weight_stacks

pytestmark = pytest.mark.skipif(
    "native" not in available_impls(),
    reason="native tier unavailable (no C toolchain)",
)

SMALL = AnnealingParams(total_moves=300, moves_per_cooldown=100)


@st.composite
def weight_stacks(draw, max_pairs: int = 3, max_n: int = 12):
    """Adversarial arbitrary ``(B, n, n)`` stacks in the kernel domain.

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
    @given(w=row_weight_stacks())
    @settings(max_examples=40, deadline=None)
    def test_distances_bit_identical(self, w):
        expect = row_distances_batch(w, impl="vectorized")
        got = row_distances_batch(w, impl="native")
        assert got.dtype == expect.dtype == np.float64
        assert np.array_equal(got, expect)
        assert np.array_equal(got, floyd_warshall_distances_batch(w))

    @given(w=weight_stacks())
    @settings(max_examples=40, deadline=None)
    def test_paths_bit_identical(self, w):
        d_expect, nh_expect = floyd_warshall_batch(w, impl="vectorized")
        d_got, nh_got = floyd_warshall_batch(w, impl="native")
        assert np.array_equal(d_got, d_expect)
        assert nh_got.dtype == nh_expect.dtype == np.int64
        assert np.array_equal(nh_got, nh_expect)

    @given(
        w=weight_stacks(max_pairs=1, max_n=8),
        rows=row_weight_stacks(max_b=2, max_n=8),
    )
    @settings(max_examples=25, deadline=None)
    def test_input_stack_is_never_mutated(self, w, rows):
        before = w.copy()
        floyd_warshall_batch(w, impl="native")
        assert np.array_equal(w, before)
        before = rows.copy()
        row_distances_batch(rows, impl="native")
        assert np.array_equal(rows, before)

    def test_fortran_ordered_input_is_handled(self):
        # The ctypes backend requires C-contiguous float64; the seam
        # must copy, not reinterpret, exotic layouts.
        rng = np.random.default_rng(3)
        w = np.asfortranarray(rng.uniform(0.5, 4.5, size=(2, 6, 6)))
        w[:, np.tri(6, k=-1, dtype=bool)] = np.inf
        idx = np.arange(6)
        w[:, idx, idx] = 0.0
        assert not w.flags.c_contiguous
        assert np.array_equal(
            row_distances_batch(w, impl="native"),
            row_distances_batch(w, impl="vectorized"),
        )


class TestEngineKernel:
    """The compiled link-diff update: its contract checks, and bit
    parity with the NumPy twin on SA-shaped change sets."""

    @staticmethod
    def engine_arrays(n=6):
        placement = RowPlacement(n, frozenset({(0, 3), (2, 5)}))
        w = weight_stack(placement, HopCostModel())[0]
        s = row_distances_batch(w[None])[0]
        hop = np.array([HopCostModel().hop_cost(k) for k in range(n)])
        return s, w, hop

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("bad", ["float32", "strided", "shape"])
    def test_wrapper_refuses_wrong_dtype_or_layout(self, which, bad):
        arrays = list(self.engine_arrays())
        arr = arrays[which]
        if bad == "float32":
            arr = arr.astype(np.float32)
        elif bad == "strided":
            arr = np.stack([arr, arr], axis=-1)[..., 0]
            assert not arr.flags.c_contiguous
        else:
            arr = np.ascontiguousarray(arr[:-1])
        arrays[which] = arr
        with pytest.raises(ValueError):
            native.load().engine_apply(*arrays)

    @pytest.mark.parametrize("triple", [(2, 3, True), (-1, 3, True),
                                        (1, 6, True), (4, 2, False)])
    def test_kernel_refuses_non_express_links_untouched(self, triple):
        s, w, hop = self.engine_arrays()
        before = s.copy(), w.copy()
        apply = native.load().engine_apply(s, w, hop)
        with pytest.raises(ValueError):
            apply([(1, 4, True), triple], 0.0)
        assert np.array_equal(s, before[0]) and np.array_equal(w, before[1])

    def test_numpy_bools_are_accepted(self):
        engine = IncrementalApspEngine(RowPlacement.mesh(8), impl="native")
        twin = IncrementalApspEngine(RowPlacement.mesh(8), impl="vectorized")
        for eng in (engine, twin):
            eng.apply_link_changes([(1, 5, np.True_), (0, 7, np.bool_(1))])
        assert np.array_equal(engine._S, twin._S)
        assert engine._total == twin._total

    @given(pairs=st.lists(
        st.tuples(st.integers(0, 13), st.integers(2, 15)), max_size=24,
    ), seed=st.integers(0, 2**32 - 1), integral=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_diffs_match_numpy_twin(self, pairs, seed, integral):
        """Random link diffs at n=16 -- many links at many right
        endpoints in one call -- leave both twins bit-identical: the
        layer and the weight matrix under any costs (same association,
        and a min is exact), the running total where sums are exact."""
        cost = HopCostModel() if integral else TestPopulationPricing.COST
        rng = np.random.default_rng(seed)
        start = ConnectionMatrix.random(16, 4, rng=rng).decode()
        engines = [IncrementalApspEngine(start, cost, impl=i)
                   for i in ("native", "vectorized")]
        held = set(start.express_links)
        changes = []
        for a, b in sorted({(a, b) for a, b in pairs if b >= a + 2}):
            changes.append((a, b, (a, b) not in held))
        for eng in engines:
            eng.apply_link_changes(changes)
        nat, vec = engines
        assert np.array_equal(nat._S, vec._S)
        assert np.array_equal(nat._W, vec._W)
        if integral:
            assert nat._total == vec._total
            assert nat.mean_distance() == vec.mean_distance()
            assert nat.self_check()


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
        assert stack.shape == (4, 6, 6)
        got = row_distances_batch(stack, impl="native")
        assert np.array_equal(got, row_distances_batch(stack, impl="vectorized"))
        assert np.array_equal(got, floyd_warshall_distances_batch(stack))


def _sweep(pin_tier, n, tier, link_limits=None):
    pin_tier(tier)
    cfg = SearchConfig(seed=2019, restarts=2)
    return optimize(
        n, params=SMALL, config=cfg, link_limits=link_limits
    ).sweep


class TestTrajectoryIdentity:
    """Whole SA runs -- not just kernels -- are impl-invariant."""

    def test_optimize_native_bit_identical(self, pin_tier):
        base = _sweep(pin_tier, 8, "vectorized")
        fast = _sweep(pin_tier, 8, "native")
        assert base.best == fast.best
        assert base.restart_energies == fast.restart_energies
        for c in base.solutions:
            assert base.solutions[c].placement == fast.solutions[c].placement
            assert base.solutions[c].energy == fast.solutions[c].energy
            assert (
                base.solutions[c].evaluations == fast.solutions[c].evaluations
            )

    def test_incremental_search_native_bit_identical(self, pin_tier):
        """The engine walk on the native tier against the oracle tier's
        FW walk: whole trajectories."""
        base = _sweep(pin_tier, 8, "reference")
        fast = _sweep(pin_tier, 8, "native")
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
        assert native.backend_name() == native.BACKEND == "cext"


class TestBuildCache:
    """The per-user build cache never serves a bad or stale build."""

    def test_cache_key_covers_compile_flags(self, monkeypatch):
        name = _native_cext._so_name()
        monkeypatch.setattr(_native_cext, "CFLAGS", _native_cext.CFLAGS + ("-g",))
        assert _native_cext._so_name() != name

    def test_corrupt_cached_library_is_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_native_cext.CACHE_ENV_VAR, str(tmp_path))
        so_path = _native_cext._so_path()
        garbage = b"truncated shared object\n" * 64
        with open(so_path, "wb") as fh:
            fh.write(garbage)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import numpy as np\n"
             "from repro.core.connection_matrix import ConnectionMatrix\n"
             "from repro.routing import native\n"
             "from repro.routing.shortest_path import (\n"
             "    HopCostModel, row_distances_batch, weight_stack_population)\n"
             "native.load()\n"
             "rng = np.random.default_rng(9)\n"
             "pop = [ConnectionMatrix.random(8, 3, rng).decode() for _ in range(4)]\n"
             "w = weight_stack_population(pop, HopCostModel(2.7, 0.3, 0.1))\n"
             "got = row_distances_batch(w, impl='native')\n"
             "assert np.array_equal(got, row_distances_batch(w, impl='vectorized'))\n"
             "print('ok', native.backend_name())\n"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok cext"
        # The garbage was replaced by the build the subprocess loaded.
        with open(so_path, "rb") as fh:
            assert fh.read() != garbage


@pytest.mark.slow
class TestLargeProblems:
    def test_n32_sa_identity(self, pin_tier):
        base = _sweep(pin_tier, 32, "vectorized", link_limits=(4,))
        fast = _sweep(pin_tier, 32, "native", link_limits=(4,))
        assert base.best == fast.best
        assert base.restart_energies == fast.restart_energies

    def test_n64_native_restart_smoke(self, pin_tier):
        pin_tier("native")
        cfg = SearchConfig(seed=7, restarts=2)
        result = optimize(
            64, params=SMALL, config=cfg, link_limits=(8,)
        )
        sol = result.sweep.solutions[8]
        assert sol.placement.n == 64
        assert np.isfinite(sol.energy)
        assert len(result.sweep.restart_energies[8]) == 2
