"""One-dimensional express-link placements (the reduced problem P~(n, C)).

The paper's Section 4.2 reduces express-link placement on an ``n x n``
mesh under dimension-order routing to a single one-dimensional problem:
place express links on a row of ``n`` routers so that the average head
latency between row routers is minimized, subject to the cross-section
link limit ``C``.  The same row solution is replicated across every row
and column of the mesh.

:class:`RowPlacement` is the canonical representation of one such row
solution; :class:`LinkBlock` holds a whole population of them as flat
link arrays, the form the exact search prices in bulk.  Routers are
0-indexed ``0 .. n-1`` (the paper uses 1-based labels; Figure 2's
routers ``1..8`` are our ``0..7``).  Local links
``(i, i+1)`` are always implicitly present; ``express_links`` holds only
the extra links ``(i, j)`` with ``j >= i + 2``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.util.errors import InvalidPlacementError

Link = Tuple[int, int]


def normalize_link(link: Iterable[int]) -> Link:
    """Return ``(min, max)`` for a link given in either endpoint order."""
    a, b = link
    a, b = int(a), int(b)
    if a == b:
        raise InvalidPlacementError(f"self-link at router {a}")
    return (a, b) if a < b else (b, a)


def pack_links(n: int, links: Iterable[Link]) -> bytes:
    """Encode ``n`` followed by link endpoints as little-endian uint16s.

    The shared byte encoding behind :meth:`RowPlacement.canonical_bytes`
    and :meth:`RowPlacement.mirror_fold_bytes`; ``links`` must already
    be in the desired (sorted) order.
    """
    flat = [n]
    for i, j in links:
        flat.append(i)
        flat.append(j)
    return struct.pack(f"<{len(flat)}H", *flat)


def unpack_links(data: bytes) -> Tuple[int, Tuple[Link, ...]]:
    """Decode :func:`pack_links` bytes back into ``(n, links)``.

    The inverse of the canonical encoding; rejects byte strings whose
    length is not an odd number of uint16 words (``n`` plus endpoint
    pairs).
    """
    if len(data) < 2 or len(data) % 2:
        raise InvalidPlacementError(
            f"placement bytes have invalid length {len(data)}"
        )
    words = struct.unpack(f"<{len(data) // 2}H", data)
    if len(words) % 2 == 0:
        raise InvalidPlacementError(
            "placement bytes truncated: expected n followed by endpoint pairs"
        )
    links = tuple(
        (words[k], words[k + 1]) for k in range(1, len(words), 2)
    )
    return words[0], links


@dataclass(frozen=True)
class RowPlacement:
    """An express-link placement on a row of ``n`` routers.

    Parameters
    ----------
    n:
        Number of routers in the row (``n >= 2``).
    express_links:
        Express links as ``(i, j)`` pairs with ``0 <= i``,
        ``j <= n - 1`` and ``j >= i + 2``.  Links are bidirectional and
        stored normalized (``i < j``), deduplicated.  Local links are
        *not* listed here; they always exist.

    Notes
    -----
    The placement is immutable and hashable so it can serve as a cache
    key during annealing and exact searches.
    """

    n: int
    express_links: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise InvalidPlacementError(f"a row needs at least 2 routers, got n={self.n}")
        links = frozenset(normalize_link(link) for link in self.express_links)
        object.__setattr__(self, "express_links", links)
        for i, j in links:
            if i < 0 or j >= self.n:
                raise InvalidPlacementError(f"link ({i}, {j}) out of range for n={self.n}")
            if j - i < 2:
                raise InvalidPlacementError(
                    f"link ({i}, {j}) spans adjacent routers; local links are implicit"
                )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def mesh(cls, n: int) -> "RowPlacement":
        """The plain mesh row: local links only, no express links."""
        return cls(n=n, express_links=frozenset())

    @classmethod
    def from_normalized(cls, n: int, links: frozenset) -> "RowPlacement":
        """Construct without re-validating ``links``.

        For hot paths (bulk enumeration, the D&C combine loop) whose
        links are normalized and in range *by construction*:
        ``links`` must be a frozenset of ``(i, j)`` with
        ``0 <= i``, ``j <= n - 1`` and ``j >= i + 2``.  Equality,
        hashing and every query behave exactly as for a validated
        instance.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "express_links", links)
        return self

    @classmethod
    def from_canonical_bytes(cls, data: bytes) -> "RowPlacement":
        """Decode :meth:`canonical_bytes` back into a placement.

        Round-trips exactly: ``RowPlacement.from_canonical_bytes(
        p.canonical_bytes()) == p``.  Links are re-validated, so
        corrupted byte strings raise :class:`InvalidPlacementError`
        rather than producing an out-of-range placement.
        """
        n, links = unpack_links(data)
        return cls(n=n, express_links=frozenset(links))

    @classmethod
    def fully_connected(cls, n: int) -> "RowPlacement":
        """All-to-all row (one dimension of a flattened butterfly)."""
        links = frozenset((i, j) for i in range(n) for j in range(i + 2, n))
        return cls(n=n, express_links=links)

    def with_link(self, i: int, j: int) -> "RowPlacement":
        """Return a copy with express link ``(i, j)`` added."""
        return RowPlacement(self.n, self.express_links | {normalize_link((i, j))})

    def without_link(self, i: int, j: int) -> "RowPlacement":
        """Return a copy with express link ``(i, j)`` removed (if present)."""
        return RowPlacement(self.n, self.express_links - {normalize_link((i, j))})

    def shifted(self, offset: int, n: int) -> "RowPlacement":
        """Embed this placement into a longer row of ``n`` routers.

        Used by the divide-and-conquer combiner: a sub-row solution for
        routers ``offset .. offset + self.n - 1`` of the full row.
        """
        if offset < 0 or offset + self.n > n:
            raise InvalidPlacementError(
                f"cannot shift placement of {self.n} routers by {offset} into row of {n}"
            )
        links = frozenset((i + offset, j + offset) for i, j in self.express_links)
        return RowPlacement(n, links)

    def reversed(self) -> "RowPlacement":
        """Mirror the row left-to-right (a symmetry of the problem)."""
        links = frozenset(
            normalize_link((self.n - 1 - j, self.n - 1 - i)) for i, j in self.express_links
        )
        return RowPlacement(self.n, links)

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    @property
    def local_links(self) -> Tuple[Link, ...]:
        """The ``n - 1`` implicit local links ``(i, i+1)``."""
        return tuple((i, i + 1) for i in range(self.n - 1))

    def all_links(self) -> Tuple[Link, ...]:
        """Local plus express links, sorted."""
        return tuple(sorted(set(self.local_links) | self.express_links))

    def cross_section_counts(self) -> Tuple[int, ...]:
        """Link count at each of the ``n - 1`` cross-sections.

        Cross-section ``k`` sits between routers ``k`` and ``k + 1``; a
        link ``(i, j)`` crosses it iff ``i <= k < j``.  The local link
        always contributes 1.
        """
        counts = [1] * (self.n - 1)
        for i, j in self.express_links:
            for k in range(i, j):
                counts[k] += 1
        return tuple(counts)

    def max_cross_section(self) -> int:
        """The maximum cross-section link count (the ``c`` of Eq. 3)."""
        return max(self.cross_section_counts())

    def satisfies_limit(self, limit: int) -> bool:
        """True iff every cross-section count is ``<= limit``."""
        return self.max_cross_section() <= limit

    def validate(self, limit: int) -> None:
        """Raise :class:`InvalidPlacementError` if the limit is exceeded."""
        counts = self.cross_section_counts()
        for k, c in enumerate(counts):
            if c > limit:
                raise InvalidPlacementError(
                    f"cross-section {k} carries {c} links, limit is {limit}"
                )

    def degree(self, i: int) -> int:
        """Number of row links incident to router ``i`` (ports used)."""
        deg = (1 if i > 0 else 0) + (1 if i < self.n - 1 else 0)
        for a, b in self.express_links:
            if a == i or b == i:
                deg += 1
        return deg

    def degrees(self) -> Tuple[int, ...]:
        """Per-router link degree within the row."""
        return tuple(self.degree(i) for i in range(self.n))

    def neighbors(self, i: int) -> Tuple[int, ...]:
        """Routers directly reachable from ``i`` via one row link."""
        out = set()
        if i > 0:
            out.add(i - 1)
        if i < self.n - 1:
            out.add(i + 1)
        for a, b in self.express_links:
            if a == i:
                out.add(b)
            elif b == i:
                out.add(a)
        return tuple(sorted(out))

    def link_lengths(self) -> Tuple[int, ...]:
        """Lengths (in unit hops) of all links, local first."""
        return tuple(j - i for i, j in self.all_links())

    def total_wire_length(self) -> int:
        """Sum of link lengths: the row's wiring cost in unit segments."""
        return sum(self.link_lengths())

    def __iter__(self) -> Iterator[Link]:
        return iter(sorted(self.express_links))

    def __len__(self) -> int:
        return len(self.express_links)

    def __str__(self) -> str:
        links = ", ".join(f"{i}-{j}" for i, j in sorted(self.express_links))
        return f"RowPlacement(n={self.n}, express=[{links}])"

    def canonical_bytes(self) -> bytes:
        """A canonical byte encoding of this exact placement.

        ``n`` followed by the sorted link endpoints, little-endian
        uint16 each (see :func:`pack_links`).  Two placements map to
        the same bytes iff they are equal, so the encoding is a safe
        dictionary key for evaluation caches shared across search
        restarts -- unlike :meth:`canonical_key` /
        :meth:`mirror_fold_bytes`, it does NOT identify a placement
        with its mirror image (mirror energies differ under
        traffic-weighted objectives).
        """
        return pack_links(self.n, sorted(self.express_links))

    def mirror_min_links(self) -> Tuple[Link, ...]:
        """The mirror-fold representative of this placement's link set.

        The lexicographically smaller of the sorted link list and its
        mirror image's -- the single folding rule shared by
        :meth:`canonical_key`, :meth:`mirror_fold_bytes` and the exact
        searches' per-class dedup, so every consumer agrees on which
        member represents a mirror pair.  The mirror's links are
        derived arithmetically (link ``(i, j)`` reflects to
        ``(n-1-j, n-1-i)``, already normalized) rather than through
        :meth:`reversed`, keeping this hot dedup key allocation-light.
        """
        last = self.n - 1
        fwd = tuple(sorted(self.express_links))
        rev = tuple(sorted((last - j, last - i) for i, j in fwd))
        return min(fwd, rev)

    def mirror_fold_bytes(self) -> bytes:
        """Byte key identical for a placement and its mirror image.

        :meth:`canonical_bytes` of the :meth:`mirror_min_links`
        representative.  Safe as a dedup key only for objectives that
        are reversal-invariant (the unweighted mean); traffic-weighted
        caches must key on :meth:`canonical_bytes`.
        """
        return pack_links(self.n, self.mirror_min_links())

    def canonical_key(self) -> Tuple[int, Tuple[Link, ...]]:
        """A key identical for a placement and its mirror image.

        The latency objective is invariant under row reversal, so
        search procedures can deduplicate on this key and halve their
        work.
        """
        return (self.n, self.mirror_min_links())


@dataclass(frozen=True, eq=False)
class LinkBlock:
    """A population of placements on one row as flat express-link arrays.

    Member ``b`` of the ``count`` members holds the express links
    ``(starts[k], ends[k])`` for every ``k`` with ``owner[k] == b``;
    ``owner`` is ascending, so each member's links are one contiguous
    run and a member without express links (the mesh) owns none.  The
    exact search prices its enumerated classes in this form, so the
    stack builder scatters them straight into the weight matrices
    (:func:`~repro.routing.shortest_path.weight_stack_population`) and
    only the winner becomes a :class:`RowPlacement`.

    The block is a read-only sequence of its members: ``len``,
    iteration and ``block[b]`` build :class:`RowPlacement` objects on
    demand, so any code that walks a placement list walks a block too.
    Links must be normalized and in range (``0 <= i``, ``i + 2 <= j
    <= n - 1``) and distinct within a member -- the enumerator's and
    :meth:`from_placements`' output is by construction.
    """

    n: int
    count: int
    owner: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    @classmethod
    def from_placements(cls, placements: Iterable[RowPlacement]) -> "LinkBlock":
        """Flatten placements that share one row size into a block."""
        placements = list(placements)
        if not placements:
            raise ValueError("population must contain at least one placement")
        n = placements[0].n
        flat = []
        sizes = []
        for p in placements:
            if p.n != n:
                raise ValueError(
                    f"population mixes row sizes: expected n={n}, got n={p.n}"
                )
            sizes.append(len(p.express_links))
            for link in p.express_links:
                flat += link
        links = np.array(flat, dtype=np.intp).reshape(-1, 2)
        owner = np.repeat(np.arange(len(placements)), sizes)
        return cls(n, len(placements), owner, links[:, 0], links[:, 1])

    @classmethod
    def of(cls, population) -> "LinkBlock":
        """``population`` itself if it is a block, else its flattening."""
        if isinstance(population, cls):
            return population
        return cls.from_placements(population)

    def chunks(self, size: int) -> Iterator["LinkBlock"]:
        """Consecutive sub-blocks of ``size`` members (the last may be
        shorter), in member order."""
        firsts = range(0, self.count, size)
        bounds = np.searchsorted(self.owner, np.arange(0, self.count + size, size))
        for lo, a, b in zip(firsts, bounds.tolist(), bounds[1:].tolist()):
            yield LinkBlock(
                self.n, min(size, self.count - lo), self.owner[a:b] - lo,
                self.starts[a:b], self.ends[a:b],
            )

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, b: int) -> RowPlacement:
        if not 0 <= b < self.count:
            raise IndexError(f"member {b} out of range for {self.count}")
        lo, hi = np.searchsorted(self.owner, (b, b + 1)).tolist()
        return RowPlacement.from_normalized(self.n, frozenset(zip(
            self.starts[lo:hi].tolist(), self.ends[lo:hi].tolist()
        )))

    def __iter__(self) -> Iterator[RowPlacement]:
        links = list(zip(self.starts.tolist(), self.ends.tolist()))
        bounds = np.searchsorted(self.owner, np.arange(self.count + 1)).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield RowPlacement.from_normalized(self.n, frozenset(links[lo:hi]))
