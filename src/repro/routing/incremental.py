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
crossing set, read from the row's left-to-right weight matrix.  One
rewrite evaluates the min for the whole affected block; the
right-to-left direction needs no update of its own, since it is read as
the transpose of the same layer.

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

Each rewrite also moves a running total of the layer's upper triangle
by the block's change of sum, so ``mean_distance()`` reads no matrix.
On the native tier a whole change set is one compiled call
(:mod:`repro.routing._native_cext`), so no Python runs between the
blocks of a memo miss; elsewhere the NumPy rewrite below, its parity
reference, runs group by group.

Drift self-check
----------------

All block updates compute the same mins as Floyd-Warshall, but may
associate floating-point additions differently, so bit-identity with
the full solver -- and an exact running total -- is guaranteed only
when hop-cost sums are exact (e.g. the integral default
:class:`HopCostModel`).  ``self_check()`` compares the maintained state
-- distances, total *and* reconstructed next-hops -- against a
from-scratch solve, and ``resync()`` repairs by rebuilding.  The
annealer runs it every ``SELF_CHECK_EVERY`` accepted moves and, on a
mismatch, emits an ``sa.resync`` event, rebuilds, and re-prices its
current and best states rather than corrupting the run.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.routing import native
from repro.routing.impls import resolve_impl
from repro.routing.shortest_path import (
    INF,
    HopCostModel,
    combine_directions,
    floyd_warshall_batch,
    row_distances_batch,
    weight_stack,
    weight_stack_population,
)
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError

#: One link edit: ``(a, b, is_add)`` with ``a < b``.
LinkChange = Tuple[int, int, bool]

#: Elements (8 MiB of float64) of the ``(rows, edges, cols)`` temporary
#: one step of the NumPy block rewrite may hold; a cut crossed by more
#: edges is folded in chunks of edges.
REWRITE_CHUNK_ELEMENTS = 1 << 20


class IncrementalApspEngine:
    """Maintains directional row-graph distances under link flips.

    State: ``_W``, the row's left-to-right weight matrix (the one-member
    :func:`~repro.routing.shortest_path.weight_stack_population`) and
    the one owner of the link set; ``_S[i, j]``, the left-to-right distance
    ``i -> j`` (``i <= j``), by the transpose identity also the
    right-to-left distance ``j -> i``; and ``_total``, the sum of
    ``_S``'s upper triangle.  ``impl`` (``None``: the machine's tier)
    picks the kernels of the rebuild and of :meth:`apply_link_changes`.
    """

    def __init__(
        self,
        placement: RowPlacement,
        cost: Optional[HopCostModel] = None,
        impl: Optional[str] = None,
    ) -> None:
        self.n = placement.n
        self.cost = cost or HopCostModel()
        self.impl = resolve_impl(impl)
        self._hop = np.array([self.cost.hop_cost(k) for k in range(self.n)])
        self._upper = np.triu(np.ones((self.n, self.n), dtype=bool), k=1)
        self._W = weight_stack_population([placement], self.cost)[0]
        self._rebuild()

    # -- construction / repair ------------------------------------------

    def _rebuild(self) -> None:
        self._S = row_distances_batch(self._W[None], impl=self.impl)[0]
        self._total = float(np.sum(self._S[self._upper]))
        self._apply = (
            native.load().engine_apply(self._S, self._W, self._hop)
            if self.impl == "native" else self._rewrite
        )

    @property
    def links(self) -> Set[Tuple[int, int]]:
        """The express links the engine holds, read from ``_W``."""
        a, b = np.nonzero(np.triu(self._W < INF, k=2))
        return set(zip(a.tolist(), b.tolist()))

    @property
    def placement(self) -> RowPlacement:
        """The placement currently encoded in the engine's link set."""
        return RowPlacement(self.n, frozenset(self.links))

    # -- the O(n^2) update ----------------------------------------------

    def _rewrite(self, changes: Sequence[LinkChange], total: float) -> float:
        """The NumPy twin of the compiled kernel.  Per right endpoint
        ``b``, ascending: the group's links enter or leave ``_W``, then
        the block ``rows <= amax``, ``cols >= b`` is re-minned over the
        edges crossing the (b-1 | b) cut.  Returns the new total."""
        S, W = self._S, self._W
        for b, group in groupby(sorted(changes, key=itemgetter(1)), itemgetter(1)):
            rows = 1
            for a, _, is_add in group:
                W[a, b] = self._hop[b - a] if is_add else INF
                rows = max(rows, a + 1)
            Wq = W[:b, b:]
            us, vs = np.isfinite(Wq).nonzero()  # crossing (u, v + b)
            block = S[:rows, b:]
            total -= np.add.reduce(block, None)
            if len(us) < 3:
                # One or two crossing edges: scalar-indexed views beat
                # the fancy-index gather's dispatch overhead.  Same
                # association, so the sums stay bitwise-equal.
                acc = None
                for u, v in zip(us.tolist(), vs.tolist()):
                    t = (S[:rows, u, None] + Wq[u, v]) + S[v + b, None, b:]
                    acc = t if acc is None else np.minimum(acc, t, out=acc)
            else:
                # Min is exact, so folding the edges chunk by chunk
                # gives the bits of one (rows, K, cols) reduction.
                A = S[:rows, us] + Wq[us, vs]
                tail = S[vs + b, b:]
                step = max(1, REWRITE_CHUNK_ELEMENTS // block.size)
                acc = (A[:, :step, None] + tail[:step]).min(axis=1)
                for k in range(step, len(us), step):
                    part = (A[:, k:k + step, None] + tail[k:k + step]).min(axis=1)
                    np.minimum(acc, part, out=acc)
            block[...] = acc
            total += np.add.reduce(acc, None)
        return float(total)

    # -- edit API --------------------------------------------------------

    def apply_link_changes(self, changes: Sequence[LinkChange]) -> None:
        """Apply link additions/removals and update the distance layer.

        ``changes`` may hold any number of links and arrive in any
        order; links sharing a right endpoint are applied together, as
        one exact block rewrite per endpoint (see the module
        docstring).  The whole set is validated before anything moves.
        """
        weight, n = self._W.item, self.n
        for a, b, is_add in changes:
            if not (0 <= a and a + 2 <= b < n):
                raise ConfigurationError(
                    f"({a}, {b}) is not an express link of a {n}-router row"
                )
            if is_add == (weight(a, b) < INF):
                verb = "add existing" if is_add else "remove absent"
                raise ConfigurationError(f"cannot {verb} link ({a}, {b})")
        self._total = self._apply(changes, self._total)

    def add_link(self, a: int, b: int) -> None:
        self.apply_link_changes([(a, b, True)])

    def remove_link(self, a: int, b: int) -> None:
        self.apply_link_changes([(a, b, False)])

    # -- read API --------------------------------------------------------

    def distances(self) -> np.ndarray:
        """Combined directional distance matrix (a fresh array)."""
        return combine_directions(self._S)

    def mean_distance(self) -> float:
        # The combined matrix holds the upper triangle twice around a
        # zero diagonal.  Under integral hop costs (the engine walk's
        # domain) every partial sum is an exact integer, so this equals
        # the full objective's float(np.sum(D) / D.size) bit for bit.
        return 2.0 * self._total / (self.n * self.n)

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
        w = self._W
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

    # -- drift self-check ------------------------------------------------

    def self_check(self) -> bool:
        """True iff state is bit-identical to a from-scratch two-pass
        solve (the layer, the combined matrix, the running total, and
        next-hops)."""
        dist, nh = floyd_warshall_batch(weight_stack(self.placement, self.cost))
        if not np.array_equal(self._S, dist[0]):
            return False
        ref = np.where(self._upper, dist[0], dist[1])
        np.fill_diagonal(ref, 0.0)
        if not np.array_equal(self.distances(), ref):
            return False
        if 2.0 * self._total != np.sum(ref):
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
