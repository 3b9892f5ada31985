"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.annealing import AnnealingParams
from repro.topology.row import RowPlacement


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------

@st.composite
def row_placements(draw, min_n: int = 3, max_n: int = 10, max_links: int = 8):
    """Arbitrary valid RowPlacements (no cross-section limit applied)."""
    n = draw(st.integers(min_n, max_n))
    num_links = draw(st.integers(0, max_links))
    links = set()
    for _ in range(num_links):
        i = draw(st.integers(0, n - 3))
        j = draw(st.integers(i + 2, n - 1))
        links.add((i, j))
    return RowPlacement(n, frozenset(links))


@st.composite
def limited_row_placements(draw, min_n: int = 3, max_n: int = 10, max_limit: int = 5):
    """(placement, limit) pairs where the placement satisfies the limit."""
    n = draw(st.integers(min_n, max_n))
    limit = draw(st.integers(2, max_limit))
    placement = RowPlacement.mesh(n)
    for _ in range(draw(st.integers(0, 10))):
        i = draw(st.integers(0, n - 3))
        j = draw(st.integers(i + 2, n - 1))
        candidate = placement.with_link(i, j)
        if candidate.satisfies_limit(limit):
            placement = candidate
    return placement, limit


@st.composite
def row_weight_stacks(draw, max_b: int = 3, min_n: int = 2, max_n: int = 12):
    """Left-to-right ``(B, n, n)`` weight stacks: the row kernel's domain.

    Zero diagonal and ``inf`` below it; above it, deliberately
    non-integral weights of which a drawn fraction (up to almost all) is
    ``inf`` -- arbitrary forward graphs over the row order, not only
    the ones placements produce.
    """
    b = draw(st.integers(1, max_b))
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    inf_frac = draw(st.floats(0.0, 0.95))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.25, 9.75, size=(b, n, n))
    w[rng.random((b, n, n)) < inf_frac] = np.inf
    w[:, np.tri(n, k=-1, dtype=bool)] = np.inf
    idx = np.arange(n)
    w[:, idx, idx] = 0.0
    return w


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------

@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def quick_sa():
    """A fast annealing schedule for tests."""
    return AnnealingParams(total_moves=300, moves_per_cooldown=100)


@pytest.fixture
def pin_tier(monkeypatch):
    """Pin the process kernel tier: what every ``impl=None`` resolves to.

    ``pin_tier("vectorized")`` runs a whole search on the NumPy kernels,
    ``pin_tier("reference")`` on the pure-Python oracle (no engine
    walk), ``pin_tier("native")`` on the compiled kernels -- skipping
    the test where they cannot load.  Pool workers fork with the pin.
    """
    from repro.routing import impls

    def pin(tier: str) -> None:
        impls.check_impl(tier)
        if tier == "native" and not impls.native_available():
            pytest.skip("native tier unavailable (no C toolchain)")
        monkeypatch.setitem(impls._tier, "name", tier)

    return pin
