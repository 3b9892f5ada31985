"""Dynamic directional APSP for row graphs: O(n^2) per express-link edit.

The SA inner loop flips one connection bit per move, but the full
objective re-prices the candidate with a from-scratch row
Floyd-Warshall pass -- O(n^3) work for a small link change.  This
module maintains the left-to-right distance matrix *incrementally*
(the right-to-left distances are its transpose, bit for bit -- see
:mod:`repro.routing.shortest_path`): each group of added or removed
express links sharing a right endpoint costs one O(n^2) block
rewrite.  The annealer's engine walk
(:mod:`repro.core.annealing`) prices every memo miss this way.

Why a single-edge change is an O(n^2) rewrite
---------------------------------------------

Row-graph routes are monotone: a left-to-right path from ``i`` to ``j``
only ever moves right, so it crosses the cut between routers ``b - 1``
and ``b`` exactly once, through one of the few edges that span the cut
(the local link ``(b - 1, b)`` plus every express link ``(u, v)`` with
``u < b <= v``).  Changing a link whose right endpoint is ``b`` can
therefore only affect pairs ``(i, j)`` with ``i < b <= j``, and for
those pairs the distance decomposes over the crossing edges::

    D'(i, j) = min over crossing (u, v) of  D(i, u) + w(u, v) + D(v, j)

where ``D(i, u)`` (``u < b``) and ``D(v, j)`` (``v >= b``) are existing
distances on the unchanged sides of the cut.  The same identity holds
for additions *and* removals -- the min is re-taken over the new
crossing set.  One numpy broadcast evaluates the min for the whole
affected block; the right-to-left direction needs no update of its
own, since it is read as the transpose of the same layer.

A change set may hold any number of links at any number of right
endpoints (the annealer hands over the whole difference between the
link set the engine last priced and the candidate's).  It is applied
one right endpoint at a time: the links of group ``b`` enter or leave
the link set, then the block of cut ``b`` is rewritten.  Each such step
is exact on its own -- every link it changes ends at ``b``, so none
lies inside ``[i, u]`` for ``u < b`` or inside ``[v, j]`` for
``v >= b``, and both sides of the identity are current -- so the state
after the last group equals a from-scratch solve of the final link
set, in whatever order the groups run.  A connection-matrix bit flip
alone is at most three changes at two right endpoints.

A change set is undone by applying its inverse (every add becomes a
remove and vice versa); the annealer never needs even that, since its
engine walk only moves on to the next memo miss.

Drift self-check
----------------

All block updates compute the same mins as Floyd-Warshall, but may
associate floating-point additions differently, so bit-identity with
the full solver is guaranteed only when hop-cost sums are exact (e.g.
the integral default :class:`HopCostModel`).  ``self_check()`` compares
the maintained state -- distances *and* reconstructed next-hops --
against a from-scratch solve, and ``resync()`` repairs by rebuilding.
The annealer runs it every ``SELF_CHECK_EVERY`` accepted moves and, on
a mismatch, emits an ``sa.resync`` event, rebuilds, and re-prices its
current and best states rather than corrupting the run.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.routing.shortest_path import (
    LEFT_TO_RIGHT,
    HopCostModel,
    combine_directions,
    floyd_warshall_batch,
    row_distances_batch,
    weight_matrix,
    weight_stack,
)
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError

#: One link edit: ``(a, b, is_add)`` with ``a < b``.
LinkChange = Tuple[int, int, bool]


class IncrementalApspEngine:
    """Maintains directional row-graph distances under link flips.

    State layout (all float64, shape ``(n, n)``):

    * ``_S[i, j]`` -- left-to-right distance ``i -> j`` (``i <= j``);
      by the transpose identity it is also the right-to-left distance
      ``j -> i``, so this one layer holds both directions,
    * ``_D`` -- the combined matrix :func:`directional_distances`
      returns (upper = l2r, lower = r2l, diagonal zero), synced lazily
      from ``_S`` because only :meth:`distances` needs it.

    ``impl`` (``None``: the machine's tier) selects the row kernel of
    the from-scratch rebuild; the block rewrites are NumPy on every
    tier.  ``self_check()`` re-solves with the full two-pass
    :func:`floyd_warshall_batch`, so it also gates the triangular row
    kernel on live SA state.
    """

    def __init__(
        self,
        placement: RowPlacement,
        cost: Optional[HopCostModel] = None,
        impl: Optional[str] = None,
    ) -> None:
        self.n = placement.n
        self.cost = cost or HopCostModel()
        self.impl = impl
        self.links = set(placement.express_links)
        self._hop = [self.cost.hop_cost(k) for k in range(max(self.n, 2))]
        self._upper = np.triu(np.ones((self.n, self.n), dtype=bool), k=1)
        self._rebuild()

    # -- construction / repair ------------------------------------------

    def _rebuild(self) -> None:
        w = weight_matrix(self.placement, self.cost, LEFT_TO_RIGHT)
        self._S = row_distances_batch(w[None], impl=self.impl)[0]
        self._D = combine_directions(self._S)
        self._dirty = []  # (rows, b) boxes where _D lags _S

    @property
    def placement(self) -> RowPlacement:
        """The placement currently encoded in the engine's link set."""
        return RowPlacement(self.n, frozenset(self.links))

    # -- the O(n^2) update ----------------------------------------------

    def _update_boundary(self, amax: int, b: int) -> None:
        """Re-min the block ``rows <= amax``, ``cols >= b`` over the
        edges crossing the (b-1 | b) cut."""
        S = self._S
        hop = self._hop
        us = [b - 1]
        vs = [b]
        cs = [hop[1]]
        for (u, v) in self.links:
            if u < b <= v:
                us.append(u)
                vs.append(v)
                cs.append(hop[v - u])
        rows = amax + 1
        if len(us) < 5:
            # Few crossing edges (the norm: the cross-section limit caps
            # them): scalar-indexed views beat the fancy-index gather's
            # dispatch overhead.  Same association order, so the sums
            # stay bitwise-equal to the batched form.
            acc = None
            for u, v, c in zip(us, vs, cs):
                t = (S[:rows, u, None] + c) + S[v, None, b:]
                if acc is None:
                    acc = t
                else:
                    np.minimum(acc, t, out=acc)
            S[:rows, b:] = acc
        else:
            A = S[:rows, us]  # (rows, K) gather -> safe to add in place
            A += np.array(cs)
            T = A[:, :, None] + S[vs, b:][None, :, :]
            np.min(T, axis=1, out=S[:rows, b:])

    def _sync(self) -> None:
        # Every box satisfies rows <= b (link left endpoints sit left of
        # the boundary), so each lies strictly in the upper triangle and
        # plain slice copies never leak an inf sentinel from the
        # layer's dead lower half.
        if self._dirty:
            for rows, b in self._dirty:
                block = self._S[:rows, b:]
                self._D[:rows, b:] = block
                self._D[b:, :rows] = block.T
            self._dirty = []

    # -- edit API --------------------------------------------------------

    def apply_link_changes(self, changes: Sequence[LinkChange]) -> None:
        """Apply link additions/removals and update the distance layer.

        ``changes`` may hold any number of links and arrive in any
        order; links sharing a right endpoint are applied together, as
        one exact block rewrite per endpoint (see the module
        docstring).
        """
        links = self.links
        for a, b, is_add in changes:
            if is_add == ((a, b) in links):
                verb = "add existing" if is_add else "remove absent"
                raise ConfigurationError(f"cannot {verb} link ({a}, {b})")
        self._sync()
        if len(changes) > 1:
            changes = sorted(changes, key=lambda c: c[1])
        i = 0
        nch = len(changes)
        while i < nch:
            b = changes[i][1]
            amax = 0
            while i < nch and changes[i][1] == b:
                a, _, is_add = changes[i]
                if is_add:
                    links.add((a, b))
                else:
                    links.discard((a, b))
                if a > amax:
                    amax = a
                i += 1
            self._dirty.append((amax + 1, b))
            self._update_boundary(amax, b)

    def add_link(self, a: int, b: int) -> None:
        self.apply_link_changes([(a, b, True)])

    def remove_link(self, a: int, b: int) -> None:
        self.apply_link_changes([(a, b, False)])

    # -- read API --------------------------------------------------------

    def distances(self) -> np.ndarray:
        """Combined directional distance matrix (engine-owned buffer;
        treat as read-only, it is reused across updates)."""
        self._sync()
        return self._D

    def mean_distance(self) -> float:
        # np.sum(x) / x.size uses the same pairwise reduction as
        # x.mean(), so this is bitwise-equal to the full objective's
        # float(dist.mean()) -- just a little cheaper per move.
        self._sync()
        return float(np.sum(self._D) / self._D.size)

    def next_hops(self) -> np.ndarray:
        """Reconstruct the canonical next-hop table from distances.

        ``floyd_warshall_batch`` initializes every finite direct edge's
        next hop to the destination, improves only on strictly shorter
        paths, and scans pivots in ascending order -- so on a monotone
        row graph its table is exactly "first pivot achieving the final
        minimum, direct edge wins ties".  Replaying that rule against
        the maintained distances reproduces the table bit-for-bit
        whenever the distances match the full solver (cells that cannot
        be explained by any pivot are left at -1, which the drift
        self-check reports as a mismatch).
        """
        n = self.n
        w = weight_matrix(self.placement, self.cost, LEFT_TO_RIGHT)
        S = self._S
        nh = np.full((n, n), -1, dtype=np.int64)
        np.fill_diagonal(nh, np.arange(n))
        # Column j of the layer is both the l2r distances i -> j and the
        # r2l distances j -> i (i < j), and the r2l weights out of j are
        # the l2r weights into j, so one pivot scan serves both tables.
        # Columns ascend so nh[:j, k] is final when chained through.
        for j in range(1, n):
            col = S[:j, j]
            direct = w[:j, j] == col
            # cand[i, k] = D(i, k) + w(k, j): pivot k's relaxation value.
            cand = S[:j, :j] + w[:j, j][None, :]
            eq = (cand == col[:, None]) & self._upper[:j, :j]
            kstar = np.argmax(eq, axis=1)
            rows_ = np.arange(j)
            hit = eq[rows_, kstar]
            nh[:j, j] = np.where(direct, j, np.where(hit, nh[rows_, kstar], -1))
            # Right-to-left j -> i: at pivot k the source-side distance
            # is still the raw edge w(j, k), so the winning pivot *is*
            # the next hop -- no chaining needed.
            nh[j, :j] = np.where(direct, rows_, np.where(hit, kstar, -1))
        return nh

    def paths(self) -> Tuple[np.ndarray, np.ndarray]:
        """(distances, next_hops) mirroring :func:`directional_paths`."""
        return self.distances().copy(), self.next_hops()

    # -- drift self-check ------------------------------------------------

    def self_check(self) -> bool:
        """True iff state is bit-identical to a from-scratch two-pass
        solve (the layer, the combined matrix, and next-hops)."""
        dist, nh = floyd_warshall_batch(weight_stack(self.placement, self.cost))
        if not np.array_equal(self._S, dist[0]):
            return False
        ref = np.where(self._upper, dist[0], dist[1])
        np.fill_diagonal(ref, 0.0)
        if not np.array_equal(self.distances(), ref):
            return False
        ref_nh = np.where(self._upper, nh[0], nh[1])
        np.fill_diagonal(ref_nh, np.arange(self.n))
        return np.array_equal(self.next_hops(), ref_nh)

    def resync(self) -> None:
        """Rebuild all state from scratch (drift repair)."""
        self._rebuild()


def placement_link_changes(
    before: Iterable[Tuple[int, int]], after: Iterable[Tuple[int, int]]
) -> List[LinkChange]:
    """Change list turning link set ``before`` into ``after``."""
    before = set(before)
    after = set(after)
    changes: List[LinkChange] = [
        (a, b, False) for (a, b) in sorted(before - after)
    ]
    changes.extend((a, b, True) for (a, b) in sorted(after - before))
    return changes
