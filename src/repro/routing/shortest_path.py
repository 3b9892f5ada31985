"""Directional shortest paths on a row (Section 4.5.1).

The paper computes packet routes with two Floyd-Warshall passes per
dimension: one pass allows only left-to-right edges, the other only
right-to-left edges.  This enforces the no-U-turn rule that makes the
routing deadlock-free (every hop moves monotonically toward the
destination in the current dimension), and it is what the simulated
annealing evaluates on every candidate placement, so it must be fast.

Distances need only one of the two passes, and only a triangle of it:

* *Transpose.*  Every link is bidirectional with one hop cost, so the
  right-to-left weight matrix is the left-to-right one transposed.
  Floyd-Warshall on ``W^T`` forms ``d[k][j] + d[i][k]`` where the pass
  on ``W`` forms ``d[i][k] + d[k][j]``; IEEE-754 addition commutes, so
  ``FW(W^T) == FW(W)^T`` bit for bit and the right-to-left distances
  are read off the left-to-right result.
* *Triangle.*  The left-to-right graph has no leftward edge and a zero
  diagonal, so at pivot ``k`` only cells ``i < k < j`` can see a
  candidate other than ``inf`` or their own value.  The row
  kernel relaxes exactly that block (``dist[:, :k, k+1:]``) and leaves
  every value where the full pass would.

Both identities hold for any nonnegative hop costs, integral or not.
Every row price runs one path over a population -- a
:class:`~repro.topology.row.LinkBlock` or a list of placements, a
single placement being a population of one:
:func:`weight_stack_population` writes the left-to-right ``(B, n, n)``
stack (the one writer of row weight matrices), the triangle pass
relaxes that stack in place, and :func:`combine_directions` reads the
right-to-left half off the transpose
(:func:`batched_directional_distances`).  :func:`slice_means` is the
one mean and weighted mean over the result, and :func:`check_weights`
the one check of a traffic matrix.  The exact search, the D&C combine
step, the annealer's scalar prices, :func:`directional_distances` and
``/evaluate`` all take that path; the incremental engine holds a
one-member stack and relaxes a copy of it.  Next-hop tables are not a
transpose (the transpose of a left-to-right *first* hop is a
right-to-left *last* hop), so :func:`directional_paths` still relaxes
both passes in full with :func:`floyd_warshall_batch`.

A pure-Python triple-loop implementation of the paper's two passes is
retained in :mod:`repro.routing.shortest_path_ref` as the
specification; the parity suite
(``tests/routing/test_shortest_path_parity.py``) proves the kernels
here bit-identical to it -- distances *and* next hops.  Every entry
point takes ``impl=None``, the machine's tier
(:func:`repro.routing.impls.default_impl`: the compiled kernels of
:mod:`repro.routing.native` where they load, these NumPy ones
otherwise); the parity suites name a tier explicitly
(``"vectorized" | "reference" | "native"``).  Row distances dispatch
the ``"reference"`` oracle in :func:`batched_directional_distances`
alone; :func:`directional_paths` has the oracle's next hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.routing import native
from repro.routing.impls import resolve_impl
from repro.topology.row import LinkBlock, RowPlacement
from repro.util.errors import ConfigurationError

INF = np.inf


@dataclass(frozen=True)
class HopCostModel:
    """Per-hop latency cost parameters of Eq. 1.

    ``router_delay`` is :math:`T_r` (cycles through one router pipeline,
    3 for the paper's canonical 3-stage router), ``unit_link_delay`` is
    :math:`T_l` (one cycle per unit-length, repeater-segmented link) and
    ``contention_delay`` is :math:`T_c`, the average per-hop contention
    the paper measures to be below one cycle at realistic loads.  The
    head latency of a path is ``sum over hops of (Tr + Tc + len * Tl)``.
    """

    router_delay: float = 3.0
    unit_link_delay: float = 1.0
    contention_delay: float = 0.0

    def hop_cost(self, length: int) -> float:
        """Head-latency cost of traversing one link of ``length`` units."""
        return self.router_delay + self.contention_delay + length * self.unit_link_delay


@lru_cache(maxsize=4)
def _mesh_row(n: int, cost: HopCostModel) -> Tuple[np.ndarray, np.ndarray]:
    """The mesh row's left-to-right weight matrix, and the hop cost of
    each link length (read-only; the four latest rows are kept, 8 MiB
    each at the served maximum ``n = 1024``).  ``hop_cost(length)`` is
    computed per length so every slice sees the exact float it
    returns."""
    cost_by_len = np.asarray(
        [0.0] + [cost.hop_cost(length) for length in range(1, n)]
    )
    mesh = np.full((n, n), INF)
    idx = np.arange(n)
    mesh[idx, idx] = 0.0
    mesh[idx[:-1], idx[1:]] = cost_by_len[1]
    mesh.flags.writeable = cost_by_len.flags.writeable = False
    return mesh, cost_by_len


def weight_stack_population(
    population: LinkBlock | Sequence[RowPlacement],
    cost: HopCostModel,
) -> np.ndarray:
    """Left-to-right weight matrices for a whole population: ``(B, n, n)``.

    The one writer of row weight matrices.  ``population`` is a
    :class:`~repro.topology.row.LinkBlock` or a sequence of placements
    sharing one row size ``n`` (flattened into a block first).  Slice
    ``b`` holds member ``b``'s one-hop costs: ``w[i, j]`` for each link
    ``(i, j)``, ``i < j``, a zero diagonal and ``inf`` elsewhere -- the
    input the triangle pass relaxes.  Every slice starts as a copy of
    the mesh row's matrix, and the block's express links land in one
    scatter.
    """
    block = LinkBlock.of(population)
    n = block.n
    mesh, cost_by_len = _mesh_row(n, cost)
    w = np.empty((len(block), n, n))
    w[...] = mesh
    w[block.owner, block.starts, block.ends] = cost_by_len[block.ends - block.starts]
    return w


def weight_stack(placement: RowPlacement, cost: HopCostModel) -> np.ndarray:
    """Both directional weight matrices of one placement, ``(2, n, n)``.

    Index 0 is the left-to-right pass, the one-member
    :func:`weight_stack_population`; index 1 the right-to-left pass,
    its transpose.  :func:`floyd_warshall_batch` relaxes both passes in
    one ``k`` loop when next hops are needed.
    """
    w = weight_stack_population([placement], cost)[0]
    return np.stack((w, w.T))


def _relax_rows(dist: np.ndarray, impl: str) -> None:
    """The triangle pass over a ``(B, n, n)`` left-to-right stack, in
    place: pivot ``k`` relaxes ``dist[:, :k, k+1:]``, the one block it
    can change (see the module docstring).  ``impl`` is a resolved
    tier; ``"native"`` runs the compiled loop over the same block."""
    if impl == "native":
        native.load().row_dist_batch(dist)
        return
    for k in range(1, dist.shape[1] - 1):
        block = dist[:, :k, k + 1:]
        np.minimum(
            block, dist[:, :k, k, None] + dist[:, None, k, k + 1:], out=block
        )


def row_distances_batch(w: np.ndarray, impl: Optional[str] = None) -> np.ndarray:
    """Left-to-right row Floyd-Warshall, distances only, triangle block.

    ``w`` is a ``(B, n, n)`` stack of left-to-right row graphs: zero
    diagonal, nonnegative weights above it, ``inf`` below it (what
    :func:`weight_stack_population` builds).  The result is bitwise the
    full :func:`floyd_warshall_distances_batch` pass on the same stack,
    in a fresh array: ``w`` is the caller's (the incremental engine
    keeps its weight matrix), so it is copied and never written.
    """
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {w.shape}")
    dist = np.array(w, dtype=np.float64, order="C")
    _relax_rows(dist, resolve_impl(impl))
    return dist


def combine_directions(dist: np.ndarray) -> np.ndarray:
    """Directional distances from left-to-right ones (any ``(..., n, n)``).

    The upper triangle is read as is, the lower triangle from the
    transpose (the right-to-left pass, by the transpose identity), and
    the diagonal is zero.  ``dist`` is a left-to-right distance stack as
    every row kernel leaves it -- zero diagonal, ``inf`` below it (no
    leftward edge reaches there) -- so each cell is the smaller of
    itself and its mirror: one transposed copy and one in-place
    ``minimum``, no mask.  The result is a fresh C-contiguous array, so
    :func:`slice_means` reduces each ``(n, n)`` slice in one pinned
    order.
    """
    out = np.array(dist.swapaxes(-1, -2), order="C")
    return np.minimum(out, dist, out=out)


def batched_directional_distances(
    placements: LinkBlock | Sequence[RowPlacement],
    cost: HopCostModel | None = None,
    impl: Optional[str] = None,
) -> np.ndarray:
    """All-pairs directional head latencies of a population: ``(B, n, n)``.

    The one row distance path.  ``placements`` is a non-empty
    :class:`~repro.topology.row.LinkBlock` or sequence of placements
    sharing one row size.  Its left-to-right stack is built for this
    call alone, so the triangle pass relaxes it in place (no copy),
    and :func:`combine_directions` adds the right-to-left half.
    ``impl=None`` runs the machine's tier; ``"reference"`` prices each
    member through the pure-Python oracle in
    :mod:`repro.routing.shortest_path_ref`.  All tiers are
    bit-identical by the cross-tier parity suite, so the switch exists
    for verification, not for results.
    """
    cost = cost or HopCostModel()
    impl = resolve_impl(impl)
    block = LinkBlock.of(placements)
    if impl == "reference":
        from repro.routing import shortest_path_ref as ref

        return np.asarray(
            [ref.directional_distances_py(p, cost) for p in block], dtype=float
        )
    dist = weight_stack_population(block, cost)
    _relax_rows(dist, impl)
    return combine_directions(dist)


def check_weights(weights, n: int) -> np.ndarray:
    """A traffic matrix as an ``(n, n)`` float array, checked once.

    The one check of pair weights, where they enter a pricing call:
    the shape must be ``(n, n)`` and the sum positive and finite (a sum
    that overflows would price to ``inf / inf``).  Raises
    :class:`~repro.util.errors.ConfigurationError` otherwise.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (n, n):
        raise ConfigurationError(f"weights shape {w.shape} != {(n, n)}")
    if not 0 < w.sum() < INF:
        raise ConfigurationError("weights must have positive, finite sum")
    return w


def slice_means(dist: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """The mean of each ``(n, n)`` slice of a distance stack: ``(B,)``.

    The one reduction behind every row price.  Every ordered pair
    counts, ``i == j`` included (Eq. 2's normalization); ``weights``, a
    matrix :func:`check_weights` has passed, switches to the
    traffic-weighted mean.  Each C-contiguous slice is reduced over its
    flattened row, so numpy's pairwise summation runs in one order per
    slice whatever the batch holds -- energies are
    batch-composition-independent, bit for bit (a fused
    ``mean(axis=(1, 2))`` over the 3-D view would not make that
    guarantee; the property suite pins this).
    """
    if weights is None:
        return dist.reshape(len(dist), -1).mean(axis=1)
    return (dist * weights).reshape(len(dist), -1).sum(axis=1) / weights.sum()


def batched_mean_distances(
    placements: LinkBlock | Sequence[RowPlacement],
    cost: HopCostModel | None = None,
    weights: np.ndarray | None = None,
    impl: Optional[str] = None,
) -> np.ndarray:
    """Mean directional head latency of each placement, in one FW pass.

    :func:`slice_means` over :func:`batched_directional_distances`:
    ``placements`` is a sequence of placements or a
    :class:`~repro.topology.row.LinkBlock`, ``weights`` (an ``n x n``
    nonnegative matrix, checked by :func:`check_weights`) switches to
    the traffic-weighted mean, and ``impl`` (``None``: the machine's
    tier) selects the row kernel.  Returns shape ``(B,)``; an empty
    population prices to an empty array.
    """
    if not isinstance(placements, LinkBlock):
        placements = list(placements)
    if not len(placements):
        return np.empty(0, dtype=float)
    block = LinkBlock.of(placements)
    w = None if weights is None else check_weights(weights, block.n)
    return slice_means(batched_directional_distances(block, cost, impl), w)


def floyd_warshall_batch(
    w: np.ndarray, impl: Optional[str] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched min-plus Floyd-Warshall with next-hop reconstruction.

    ``w`` has shape ``(B, n, n)``; every batch slice is relaxed through
    the same ``k`` loop with one broadcast per iteration.  Returns
    ``(dist, next_hop)`` stacks of the same shape.  Per slice,
    ``next_hop[i, j]`` is the first router after ``i`` on a shortest
    ``i -> j`` path (the routing-table content of Figure 3(b)), ``-1``
    when ``j`` is unreachable and ``j`` on the diagonal; only a strict
    ``<`` improves a cell, so ties keep the incumbent next hop.  The
    ``"native"`` tier runs the compiled in-place pass
    (:mod:`repro.routing.native`), which is bit-identical on the
    zero-diagonal nonnegative stacks the weight builders produce;
    other tiers use this NumPy loop (the batch kernels *are* the
    vectorized implementation -- the pure-Python oracle lives at the
    ``directional_*`` level).
    """
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {w.shape}")
    impl = resolve_impl(impl)
    n = w.shape[1]
    cols = np.arange(n)
    next_hop = np.where(np.isfinite(w), cols[None, None, :], -1).astype(np.int64)
    next_hop[:, cols, cols] = cols
    if impl == "native":
        dist = np.array(w, dtype=np.float64, order="C")
        native.load().fw_batch(dist, next_hop)
        return dist, next_hop
    dist = w.copy()
    for k in range(n):
        via = dist[:, :, k, None] + dist[:, None, k, :]
        better = via < dist
        if better.any():
            dist = np.where(better, via, dist)
            # First hop toward j via k is the first hop toward k.
            next_hop = np.where(better, next_hop[:, :, k, None], next_hop)
    return dist, next_hop


def floyd_warshall_distances_batch(w: np.ndarray) -> np.ndarray:
    """Distance-only batched Floyd-Warshall over arbitrary stacks.

    One ``k`` loop covers every slice of the ``(B, n, n)`` stack and
    every cell of it.  The generic NumPy kernel: grid2d pricing uses
    it, and the tests use it as the full-pass comparator for
    :func:`row_distances_batch`.
    """
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {w.shape}")
    dist = w.copy()
    for k in range(w.shape[1]):
        np.minimum(dist, dist[:, :, k, None] + dist[:, None, k, :], out=dist)
    return dist


def directional_distances(
    placement: RowPlacement,
    cost: HopCostModel | None = None,
    impl: Optional[str] = None,
) -> np.ndarray:
    """All-pairs directional head latencies of one row (no next hops).

    Member 0 of :func:`batched_directional_distances` over the
    one-member population; ``impl`` is as there.
    """
    return batched_directional_distances([placement], cost, impl)[0]


def directional_paths(
    placement: RowPlacement,
    cost: HopCostModel | None = None,
    impl: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All-pairs directional head latencies and next hops for one row.

    Combines the two Floyd-Warshall passes: entries with ``j > i`` come
    from the left-to-right pass, ``j < i`` from the right-to-left pass.
    Because every local link exists in both directions, all pairs are
    reachable and the result is finite.

    Returns ``(dist, next_hop)`` as in :func:`floyd_warshall_batch`.
    ``impl`` is as in :func:`directional_distances`.
    """
    cost = cost or HopCostModel()
    impl = resolve_impl(impl)
    n = placement.n
    if impl == "reference":
        from repro.routing import shortest_path_ref as ref

        dist, next_hop = ref.directional_paths_py(placement, cost)
        return np.asarray(dist), np.asarray(next_hop, dtype=np.int64)
    d, nh = floyd_warshall_batch(weight_stack(placement, cost), impl=impl)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    dist = np.where(upper, d[0], d[1])
    next_hop = np.where(upper, nh[0], nh[1])
    np.fill_diagonal(dist, 0.0)
    np.fill_diagonal(next_hop, np.arange(n))
    return dist, next_hop
