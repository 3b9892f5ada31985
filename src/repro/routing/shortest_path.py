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
  candidate other than ``inf`` or their own value.
  :func:`row_distances_batch` relaxes exactly that block
  (``dist[:, :k, k+1:]``) and leaves every value where the full pass
  would.

Both identities hold for any nonnegative hop costs, integral or not.
The row pricing paths -- :func:`batched_mean_distances` (exact search,
the D&C combine step, the serve batcher), :func:`directional_distances`
and the incremental engine -- all run that one kernel over
left-to-right ``(B, n, n)`` stacks.  Next-hop tables are not a
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
(``"vectorized" | "reference" | "native"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.routing.impls import resolve_impl
from repro.topology.row import RowPlacement

#: Direction tags for the two passes.
LEFT_TO_RIGHT = "l2r"
RIGHT_TO_LEFT = "r2l"

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


def weight_matrix(
    placement: RowPlacement,
    cost: HopCostModel,
    direction: str,
) -> np.ndarray:
    """Adjacency weight matrix restricted to one traversal direction.

    ``w[i, j]`` is the one-hop cost from router ``i`` to ``j`` if the
    placement has a link ``(i, j)`` usable in ``direction``, else
    ``inf``.  Diagonal entries are 0.
    """
    n = placement.n
    w = np.full((n, n), INF)
    np.fill_diagonal(w, 0.0)
    for i, j in placement.all_links():  # i < j by construction
        c = cost.hop_cost(j - i)
        if direction == LEFT_TO_RIGHT:
            w[i, j] = c
        elif direction == RIGHT_TO_LEFT:
            w[j, i] = c
        else:
            raise ValueError(f"unknown direction {direction!r}")
    return w


def weight_stack(placement: RowPlacement, cost: HopCostModel) -> np.ndarray:
    """Both directional weight matrices stacked as ``(2, n, n)``.

    Index 0 is the left-to-right pass, index 1 right-to-left (its
    transpose); :func:`floyd_warshall_batch` relaxes both passes in one
    ``k`` loop when next hops are needed.
    """
    n = placement.n
    w = np.full((2, n, n), INF)
    w[0, np.arange(n), np.arange(n)] = 0.0
    w[1, np.arange(n), np.arange(n)] = 0.0
    for i, j in placement.all_links():  # i < j by construction
        c = cost.hop_cost(j - i)
        w[0, i, j] = c
        w[1, j, i] = c
    return w


def weight_stack_population(
    placements: Sequence[RowPlacement],
    cost: HopCostModel,
) -> np.ndarray:
    """Left-to-right weight matrices for a whole population: ``(B, n, n)``.

    Slice ``b`` is placement ``b``'s left-to-right matrix, equal to
    ``weight_stack(placements[b], cost)[0]`` -- the input
    :func:`row_distances_batch` relaxes.  All placements must share one
    row size ``n``.
    """
    placements = list(placements)
    if not placements:
        raise ValueError("population must contain at least one placement")
    n = placements[0].n
    for p in placements:
        if p.n != n:
            raise ValueError(
                f"population mixes row sizes: expected n={n}, got n={p.n}"
            )
    w = np.full((len(placements), n, n), INF)
    idx = np.arange(n)
    w[:, idx, idx] = 0.0
    # hop_cost(length) is precomputed per length so every slice sees the
    # exact same float weight_stack would have written.
    cost_by_len = np.asarray(
        [0.0] + [cost.hop_cost(length) for length in range(1, n)]
    )
    # The n - 1 local links are common to every placement: write them
    # across all slices in one vectorized stroke.
    if n > 1:
        w[:, idx[:-1], idx[1:]] = cost_by_len[1]
    # Only express links differ per placement (i < j by construction).
    flat = [
        (b, i, j)
        for b, placement in enumerate(placements)
        for i, j in placement.express_links
    ]
    if flat:
        s, r, c = np.asarray(flat, dtype=np.intp).T
        w[s, r, c] = cost_by_len[c - r]
    return w


def row_distances_batch(w: np.ndarray, impl: Optional[str] = None) -> np.ndarray:
    """Left-to-right row Floyd-Warshall, distances only, triangle block.

    ``w`` is a ``(B, n, n)`` stack of left-to-right row graphs: zero
    diagonal, nonnegative weights above it, ``inf`` below it (what
    :func:`weight_stack_population` builds).  Pivot ``k`` relaxes only
    ``dist[:, :k, k+1:]``, the one block it can change (see the module
    docstring), so the result is bitwise the full
    :func:`floyd_warshall_distances_batch` pass on the same stack.
    The ``"native"`` tier runs the compiled in-place loop over the same
    block (:mod:`repro.routing.native`).
    """
    if w.ndim != 3 or w.shape[1] != w.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack, got shape {w.shape}")
    if resolve_impl(impl) == "native":
        from repro.routing import native

        dist = np.array(w, dtype=np.float64, order="C")
        native.load().row_dist_batch(dist)
        return dist
    dist = w.copy()
    for k in range(1, w.shape[1] - 1):
        block = dist[:, :k, k + 1:]
        np.minimum(
            block, dist[:, :k, k, None] + dist[:, None, k, k + 1:], out=block
        )
    return dist


def combine_directions(dist: np.ndarray) -> np.ndarray:
    """Directional distances from left-to-right ones (any ``(..., n, n)``).

    The upper triangle is read as is, the lower triangle from the
    transpose (the right-to-left pass, by the transpose identity), and
    the diagonal is zero.  The result is a fresh C-contiguous array, so
    reducing each ``(n, n)`` slice sums in the same order as the scalar
    path's matrix.
    """
    n = dist.shape[-1]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    out = np.where(upper, dist, dist.swapaxes(-1, -2))
    idx = np.arange(n)
    out[..., idx, idx] = 0.0
    return out


def batched_mean_distances(
    placements: Sequence[RowPlacement],
    cost: HopCostModel | None = None,
    weights: np.ndarray | None = None,
    impl: Optional[str] = None,
) -> np.ndarray:
    """Mean directional head latency of each placement, in one FW pass.

    The population version of ``mean_row_head_latency``: one
    ``(B, n, n)`` left-to-right :func:`row_distances_batch` prices all
    ``B`` placements, then each mean is reduced per slice with the
    exact operation order of the scalar path -- results are
    bit-identical to ``B`` scalar evaluations.  ``weights`` (an
    ``n x n`` nonnegative matrix, validated as in the scalar path)
    switches to the traffic-weighted mean.  ``impl`` (``None``: the
    machine's tier) selects the row kernel: ``"native"`` runs the
    compiled pass (stack building and
    the pinned-order mean reduction stay in NumPy -- they are
    O(B n^2) against the pass's O(B n^3), and the reduction's
    pairwise-summation order is part of the bit-identity contract);
    ``"reference"`` prices the population one placement at a time
    through the pure-Python oracle.  Returns shape ``(B,)``.
    """
    from repro.util.errors import ConfigurationError

    cost = cost or HopCostModel()
    impl = resolve_impl(impl)
    placements = list(placements)
    if not placements:
        return np.empty(0, dtype=float)
    n = placements[0].n
    w = None if weights is None else np.asarray(weights, dtype=float)
    if w is not None:
        if w.shape != (n, n):
            raise ConfigurationError(f"weights shape {w.shape} != {(n, n)}")
        total = w.sum()
        if not 0 < total < np.inf:
            raise ConfigurationError("weights must have positive, finite sum")
    if impl == "reference":
        out = []
        for placement in placements:
            dist = directional_distances(placement, cost, impl="reference")
            if w is None:
                out.append(dist.mean())
            else:
                out.append((dist * w).sum() / total)
        return np.asarray(out, dtype=float)
    combined = combine_directions(
        row_distances_batch(weight_stack_population(placements, cost), impl=impl)
    )
    # Reducing each C-contiguous slice over its flattened innermost
    # axis applies numpy's pairwise summation per row -- the identical
    # operation order to `.mean()` / `.sum()` on the scalar path's
    # freshly-allocated (n, n) matrix, hence bit-identical results (a
    # fused `mean(axis=(1, 2))` over the 3-D view would not make that
    # guarantee; the property suite pins this).
    if w is None:
        return combined.reshape(len(placements), -1).mean(axis=1)
    return (combined * w).reshape(len(placements), -1).sum(axis=1) / total


def floyd_warshall_batch(
    w: np.ndarray, impl: Optional[str] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched min-plus Floyd-Warshall with next-hop reconstruction.

    ``w`` has shape ``(B, n, n)``; every batch slice is relaxed through
    the same ``k`` loop with one broadcast per iteration.  Returns
    ``(dist, next_hop)`` stacks of the same shape, with the per-slice
    semantics of :func:`floyd_warshall` (strict ``<`` improvement, ties
    keep the incumbent next hop, ``-1`` for unreachable pairs, ``j`` on
    the diagonal).  The ``"native"`` tier runs the compiled in-place
    pass (:mod:`repro.routing.native`), which is bit-identical on the
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
        from repro.routing import native

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


def floyd_warshall(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Min-plus Floyd-Warshall with next-hop reconstruction.

    Parameters
    ----------
    w:
        Square weight matrix (``inf`` for missing edges, 0 diagonal).

    Returns
    -------
    dist:
        All-pairs shortest distances.
    next_hop:
        ``next_hop[i, j]`` is the first router after ``i`` on a
        shortest ``i -> j`` path, or ``-1`` when ``j`` is unreachable
        (and ``j`` itself when ``i == j``).  This is exactly the
        routing-table content of Figure 3(b).
    """
    n = w.shape[0]
    dist = w.copy()
    next_hop = np.full((n, n), -1, dtype=np.int64)
    reachable = np.isfinite(w)
    cols = np.arange(n)
    for i in range(n):
        next_hop[i, reachable[i]] = cols[reachable[i]]
        next_hop[i, i] = i
    for k in range(n):
        via = dist[:, k, None] + dist[None, k, :]
        better = via < dist
        if better.any():
            dist = np.where(better, via, dist)
            # First hop toward j via k is the first hop toward k.
            next_hop = np.where(better, next_hop[:, k, None], next_hop)
    return dist, next_hop


def floyd_warshall_distances(w: np.ndarray) -> np.ndarray:
    """Distance-only min-plus Floyd-Warshall (the annealing hot path).

    Skipping next-hop bookkeeping roughly halves the cost of an
    objective evaluation; the simulated annealing calls this tens of
    thousands of times per solve, while the full
    :func:`floyd_warshall` is only needed once per final placement to
    populate routing tables.
    """
    dist = w.copy()
    for k in range(w.shape[0]):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def directional_distances(
    placement: RowPlacement,
    cost: HopCostModel | None = None,
    impl: Optional[str] = None,
) -> np.ndarray:
    """All-pairs directional head latencies (no next hops; fast path).

    ``impl=None`` runs the machine's tier; ``"reference"`` runs the
    pure-Python oracle in :mod:`repro.routing.shortest_path_ref`.  All
    tiers are bit-identical by the cross-tier parity suite, so the
    switch exists for verification, not for results.
    """
    cost = cost or HopCostModel()
    impl = resolve_impl(impl)
    if impl == "reference":
        from repro.routing import shortest_path_ref as ref

        return np.asarray(ref.directional_distances_py(placement, cost))
    w = weight_matrix(placement, cost, LEFT_TO_RIGHT)
    return combine_directions(row_distances_batch(w[None], impl=impl)[0])


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

    Returns ``(dist, next_hop)`` as in :func:`floyd_warshall`.
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


def directional_hop_counts(placement: RowPlacement, cost: HopCostModel | None = None) -> np.ndarray:
    """All-pairs hop counts ``H`` along the latency-optimal paths.

    Used by the power model (dynamic energy scales with hops) and by
    the simulator cross-checks.  Ties in latency are broken exactly as
    :func:`directional_paths` breaks them, by following ``next_hop``.
    """
    _, next_hop = directional_paths(placement, cost)
    n = placement.n
    hops = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            v, count = i, 0
            while v != j:
                v = int(next_hop[v, j])
                count += 1
                if count > n:
                    raise RuntimeError("next-hop table contains a loop")
            hops[i, j] = count
    return hops
