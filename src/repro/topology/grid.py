"""Mesh-level express placements beyond the replicated row.

The paper's reduction (Section 4.2) replicates one optimal
:class:`~repro.topology.row.RowPlacement` across every row and column.
This module drops that symmetry assumption and represents whole-mesh
designs whose rows may differ:

* :class:`HeteroPlacement` -- one independent row placement per mesh
  row, each row holding the *same* cross-section budget ``C`` the
  replicated design would have (the wiring tracks of a row are private
  to that row).
* :class:`Grid2DPlacement` -- arbitrary same-row horizontal chords on
  the full 2D mesh, constrained only by the *pooled* vertical-cut
  budget: every vertical cut of the chip carries at most ``n * C``
  links in total (``n`` locals plus ``n * (C - 1)`` express), i.e. the
  express tracks of a cut are shared between rows instead of
  partitioned ``C - 1`` per row.

Feasible sets nest: replicated ``subset of`` hetero ``subset of``
grid2d, so the exhaustive optima satisfy
``E(grid2d) <= E(hetero) <= E(row)`` (pinned by the golden suite).

Both classes share one canonical byte encoding
(:meth:`MeshRowsPlacement.canonical_bytes`): a one-byte space tag, the
mesh size, then each row's index and packed link bytes in the
vertical-mirror-folded orientation.  Row keys
(:meth:`~repro.topology.row.RowPlacement.canonical_bytes`) are packed
uint16 pairs and therefore always an *even* number of bytes; the space
tag makes every mesh key an *odd* number of bytes, so a hetero or
grid2d key can never collide with a row key in a shared memo cache --
and the distinct tags keep the two mesh spaces apart (the property
suite pins all three claims).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import ClassVar, Tuple

from repro.topology.row import RowPlacement
from repro.util.errors import InvalidPlacementError

Chord = Tuple[int, int, int]  # (row, i, j) with j >= i + 2


@dataclass(frozen=True)
class MeshRowsPlacement:
    """Base of the mesh-level spaces: a tuple of per-row placements.

    ``rows[r]`` is the horizontal (X-dimension) placement of mesh row
    ``r``; all rows share the mesh size ``n`` and there are exactly
    ``n`` of them (square meshes, as in the paper).  Subclasses differ
    only in their feasibility rule (:meth:`satisfies_limit`) and their
    canonical space tag.
    """

    n: int
    rows: Tuple[RowPlacement, ...] = field(default_factory=tuple)

    #: One-byte space tag prefixed to :meth:`canonical_bytes`.
    SPACE_TAG: ClassVar[bytes] = b"?"

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidPlacementError(
                f"a mesh needs at least 2 routers per side, got n={self.n}"
            )
        rows = tuple(self.rows)
        if len(rows) != self.n:
            raise InvalidPlacementError(
                f"need {self.n} row placements for an {self.n}x{self.n} "
                f"mesh, got {len(rows)}"
            )
        for r, row in enumerate(rows):
            if row.n != self.n:
                raise InvalidPlacementError(
                    f"row {r} has size {row.n}, mesh width is {self.n}"
                )
        object.__setattr__(self, "rows", rows)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def replicate(cls, row: RowPlacement) -> "MeshRowsPlacement":
        """Embed one row solution as the all-rows-equal mesh design.

        The image of the paper's 1D reduction inside this space; the
        reduction-parity suite prices it bit-identically to the
        :class:`~repro.core.latency.RowObjective` result.
        """
        return cls(n=row.n, rows=(row,) * row.n)

    @classmethod
    def mesh(cls, n: int) -> "MeshRowsPlacement":
        """The plain mesh: no express chords anywhere."""
        return cls.replicate(RowPlacement.mesh(n))

    @classmethod
    def from_chords(cls, n: int, chords) -> "MeshRowsPlacement":
        """Build from ``(row, i, j)`` chord triples."""
        by_row: list = [set() for _ in range(n)]
        for r, i, j in chords:
            if not 0 <= r < n:
                raise InvalidPlacementError(f"chord row {r} out of range for n={n}")
            by_row[r].add((i, j))
        return cls(n=n, rows=tuple(
            RowPlacement(n, frozenset(links)) for links in by_row
        ))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def all_rows_equal(self) -> bool:
        """True when this design is a replicated-row embedding."""
        return all(row == self.rows[0] for row in self.rows[1:])

    @property
    def express_links(self) -> Tuple[Chord, ...]:
        """All express chords as sorted ``(row, i, j)`` triples.

        The mesh counterpart of :attr:`RowPlacement.express_links`, so
        a result reads its links the same way in every search space.
        """
        return tuple(sorted(
            (r, i, j)
            for r, row in enumerate(self.rows)
            for i, j in row.express_links
        ))

    def cross_section_totals(self) -> Tuple[int, ...]:
        """Total links at each vertical cut, summed over all rows.

        Cut ``k`` sits between columns ``k`` and ``k + 1``; every row
        contributes its own :meth:`RowPlacement.cross_section_counts`
        entry (1 local plus its express chords crossing the cut).
        """
        totals = [0] * (self.n - 1)
        for row in self.rows:
            for k, c in enumerate(row.cross_section_counts()):
                totals[k] += c
        return tuple(totals)

    def vertical_mirror(self) -> "MeshRowsPlacement":
        """Flip the mesh top-to-bottom (row order reversed).

        A symmetry of every row-wise objective: the multiset of rows is
        unchanged, so energies are identical and
        :meth:`canonical_bytes` folds the pair to one key.
        """
        return type(self)(n=self.n, rows=self.rows[::-1])

    def mirror_fold_rows(self) -> Tuple[RowPlacement, ...]:
        """The vertical-mirror-folded row order.

        The lexicographically smaller (by per-row canonical bytes) of
        the row tuple and its reversal -- the representative both a
        design and its vertical mirror map to.  Applying the fold twice
        is the same as applying it once (an involution, pinned by the
        property suite).
        """
        fwd = tuple(row.canonical_bytes() for row in self.rows)
        if fwd[::-1] < fwd:
            return self.rows[::-1]
        return self.rows

    def canonical_bytes(self) -> bytes:
        """Space-tagged canonical byte key (memo-safe across spaces).

        Layout: 1-byte space tag, ``n`` as uint16, then for each row of
        the vertical-mirror-folded orientation its row index (uint16)
        followed by its :meth:`RowPlacement.canonical_bytes`.  The
        leading tag gives every mesh key odd length while row keys are
        always even, so the encodings of the three spaces are mutually
        injective (see module docstring).
        """
        parts = [self.SPACE_TAG, struct.pack("<H", self.n)]
        for r, row in enumerate(self.mirror_fold_rows()):
            parts.append(struct.pack("<H", r))
            parts.append(row.canonical_bytes())
        return b"".join(parts)

    # ------------------------------------------------------------------
    # Feasibility (subclass-specific)
    # ------------------------------------------------------------------
    def satisfies_limit(self, limit: int) -> bool:
        raise NotImplementedError

    def validate(self, limit: int) -> None:
        """Raise :class:`InvalidPlacementError` on a budget violation."""
        if not self.satisfies_limit(limit):
            raise InvalidPlacementError(
                f"{type(self).__name__} violates cross-section budget C={limit}"
            )

    # ------------------------------------------------------------------
    # Simulator bridge
    # ------------------------------------------------------------------
    def mesh_topology(self) -> "MeshTopology":
        """The full 2D topology for the simulator / routing layer.

        Under dimension-order routing the X and Y dimensions are
        independent, and the Y-dimension instance of either mesh-level
        search problem is the same problem by symmetry -- so the bridge
        reuses the row solution per dimension: ``rows[y]`` fills mesh
        row ``y`` and ``rows[x]`` fills mesh column ``x``.  The 2D
        average head latency is then exactly twice the objective value,
        the same ``2x`` rule the replicated design enjoys (Eq. 5).
        """
        from repro.topology.mesh import MeshTopology

        return MeshTopology(
            n=self.n,
            row_placements=self.rows,
            col_placements=self.rows,
        )

    def __str__(self) -> str:
        chords = ", ".join(f"{r}:{i}-{j}" for r, i, j in self.express_links)
        return f"{type(self).__name__}(n={self.n}, chords=[{chords}])"


@dataclass(frozen=True)
class HeteroPlacement(MeshRowsPlacement):
    """Independent per-row placements, each under the row budget ``C``.

    Every row keeps the full private cross-section budget of the
    replicated design: row ``r`` is feasible iff
    ``rows[r].satisfies_limit(C)``.  The replicated designs are the
    all-rows-equal members, so the feasible set contains the row
    space's image exactly.
    """

    SPACE_TAG: ClassVar[bytes] = b"H"

    def satisfies_limit(self, limit: int) -> bool:
        return all(row.satisfies_limit(limit) for row in self.rows)


@dataclass(frozen=True)
class Grid2DPlacement(MeshRowsPlacement):
    """Arbitrary same-row chords under the pooled vertical-cut budget.

    The wiring tracks of a vertical cut are shared chip-wide: cut ``k``
    may carry at most ``n * C`` links in total across all rows (``n``
    locals plus ``n * (C - 1)`` pooled express tracks), the same total
    the replicated design uses when every row's cut ``k`` is full.  A
    single row may therefore exceed ``C`` locally as long as other rows
    compensate -- every :class:`HeteroPlacement` feasible at ``C`` is
    feasible here (summing ``n`` per-row counts ``<= C`` gives a total
    ``<= n * C``), which is what nests the feasible sets.
    """

    SPACE_TAG: ClassVar[bytes] = b"G"

    def satisfies_limit(self, limit: int) -> bool:
        cap = self.n * limit
        return all(total <= cap for total in self.cross_section_totals())
