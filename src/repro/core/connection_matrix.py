"""The connection-matrix search space (Section 4.4.2, Figure 2).

A naive simulated-annealing move (add / delete / stretch a random link)
usually produces an *invalid* placement -- missing local links or a
cross-section over the limit.  The paper instead searches a binary
matrix ``M`` of shape ``(n - 2) x (C - 1)``:

* one *layer* (column of ``M``) per express wire track -- ``C - 1`` of
  them, because one track per cross-section is reserved for the local
  links;
* one row of ``M`` per *interior* router ``1 .. n-2`` (0-based); the
  bit says whether the two track segments meeting at that router are
  fused into one longer link.

Decoding a layer splits the row at every 0-bit: each maximal fused run
becomes one express link.  Runs of length one would duplicate the local
link, so they are dropped from the topology (this is why the paper's
best P~(8,4) leaves some cross-sections under-utilized, Section 5.4).
Every matrix decodes to a valid placement -- each layer adds at most
one link to any cross-section, so the count is at most
``1 + (C - 1) = C`` -- and every valid placement is reachable because
it can be encoded (interval-graph coloring) and the move set (single
bit flips) connects the whole hypercube of matrices.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.topology.row import Link, LinkBlock, RowPlacement
from repro.util.errors import ConfigurationError, InvalidPlacementError
from repro.util.rngtools import ensure_rng


@dataclass
class ConnectionMatrix:
    """A point in the SA search space for ``P~(n, C)``.

    Attributes
    ----------
    n:
        Row length (number of routers).
    link_limit:
        The cross-section limit ``C``; the matrix has ``C - 1`` layers.
    bits:
        Boolean array of shape ``(n - 2, C - 1)``; ``bits[r, l]`` is the
        connection point of interior router ``r + 1`` on layer ``l``.
    """

    n: int
    link_limit: int
    bits: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"row needs >= 2 routers, got {self.n}")
        if self.link_limit < 1:
            raise ConfigurationError(f"link limit must be >= 1, got {self.link_limit}")
        expected = self.shape(self.n, self.link_limit)
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != expected:
            raise ConfigurationError(f"bits shape {bits.shape} != expected {expected}")
        self.bits = bits

    # ------------------------------------------------------------------
    @staticmethod
    def shape(n: int, link_limit: int) -> Tuple[int, int]:
        """Matrix shape for a given problem: ``(n - 2, C - 1)``."""
        return (max(n - 2, 0), max(link_limit - 1, 0))

    @classmethod
    def zeros(cls, n: int, link_limit: int) -> "ConnectionMatrix":
        """The all-disconnected matrix (decodes to the plain mesh row)."""
        return cls(n, link_limit, np.zeros(cls.shape(n, link_limit), dtype=bool))

    @classmethod
    def random(cls, n: int, link_limit: int, rng=None) -> "ConnectionMatrix":
        """A uniformly random matrix (OnlySA's initial state)."""
        gen = ensure_rng(rng)
        shape = cls.shape(n, link_limit)
        return cls(n, link_limit, gen.random(shape) < 0.5)

    @classmethod
    def from_placement(
        cls, placement: RowPlacement, link_limit: int
    ) -> "ConnectionMatrix":
        """Encode a valid placement into the matrix space.

        Express links are packed into the ``C - 1`` layers by greedy
        interval partitioning (sort by left endpoint, reuse the layer
        whose last link ended earliest).  Links that merely touch at a
        shared router may share a layer; the 0-bit at the shared router
        keeps them separate links.  Raises
        :class:`InvalidPlacementError` if the placement needs more than
        ``C - 1`` layers, i.e. violates the cross-section limit.
        """
        placement.validate(link_limit)
        n, layers = placement.n, max(link_limit - 1, 0)
        bits = np.zeros(cls.shape(n, link_limit), dtype=bool)
        links = sorted(placement.express_links)
        # Min-heap of (last_right_endpoint, layer_index) over layers in use.
        free: List[int] = list(range(layers))
        heapq.heapify(free)
        busy: List[Tuple[int, int]] = []
        for i, j in links:
            while busy and busy[0][0] <= i:
                _, layer = heapq.heappop(busy)
                heapq.heappush(free, layer)
            if not free:
                raise InvalidPlacementError(
                    f"placement needs more than {layers} express layers "
                    f"(cross-section limit {link_limit} exceeded)"
                )
            layer = heapq.heappop(free)
            heapq.heappush(busy, (j, layer))
            for r in range(i + 1, j):
                bits[r - 1, layer] = True
        return cls(n, link_limit, bits)

    # ------------------------------------------------------------------
    def decode(self) -> RowPlacement:
        """Decode the matrix into its :class:`RowPlacement`."""
        links: set = set()
        n = self.n
        # One bulk conversion to Python bools: per-element numpy
        # indexing dominates the exact searches' enumeration loop.
        for column in self.bits.T.tolist():
            start = 0
            for r in range(1, n):
                # Interior routers are 1 .. n-2; column[r-1] covers them.
                if not (r <= n - 2 and column[r - 1]):
                    if r - start >= 2:
                        links.add((start, r))
                    start = r
        return RowPlacement(n, frozenset(links))

    def layer_links(self, layer: int) -> Tuple[Link, ...]:
        """The express links contributed by one layer (for display)."""
        links = []
        start = 0
        for r in range(1, self.n):
            interior = 1 <= r <= self.n - 2
            connected = interior and self.bits[r - 1, layer]
            if not connected:
                if r - start >= 2:
                    links.append((start, r))
                start = r
        return tuple(links)

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------
    @property
    def num_connection_points(self) -> int:
        return int(self.bits.size)

    def flip(self, row: int, layer: int) -> None:
        """Flip one connection point in place (the SA move)."""
        self.bits[row, layer] = not self.bits[row, layer]

    def flip_diff(
        self, row: int, layer: int
    ) -> Tuple[List[Link], List[Link]]:
        """Layer-link ``(added, removed)`` lists for flipping ``(row,
        layer)`` -- call *before* :meth:`flip`.

        A flip only merges or splits the fused run containing router
        ``row + 1``, so the diff is found by scanning that run's two
        ends instead of re-decoding the layer: O(run length), and the
        basis of the incremental annealing path.
        """
        col = self.bits[:, layer]
        p = row + 1  # router index of the flipped connection point
        s = p - 1
        while s >= 1 and col[s - 1]:
            s -= 1
        e = p + 1
        while e <= self.n - 2 and col[e - 1]:
            e += 1
        inner = []
        if p - s >= 2:
            inner.append((s, p))
        if e - p >= 2:
            inner.append((p, e))
        if col[row]:  # splitting [s, e] at p
            return inner, [(s, e)]
        return [(s, e)], inner  # fusing [s, p] + [p, e]

    def random_move(self, rng=None) -> Tuple[int, int]:
        """Pick a uniformly random connection point to flip."""
        gen = ensure_rng(rng)
        if self.bits.size == 0:
            raise ConfigurationError("matrix has no connection points to flip")
        flat = int(gen.integers(self.bits.size))
        return flat // self.bits.shape[1], flat % self.bits.shape[1]

    def copy(self) -> "ConnectionMatrix":
        return ConnectionMatrix(self.n, self.link_limit, self.bits.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConnectionMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.link_limit == other.link_limit
            and bool(np.array_equal(self.bits, other.bits))
        )

    def __str__(self) -> str:
        rows = []
        for layer in range(self.bits.shape[1]):
            marks = "".join("o" if b else "." for b in self.bits[:, layer])
            rows.append(f"layer {layer}: |{marks}|")
        return "\n".join(rows) if rows else "(empty matrix)"


def enumerate_matrices(n: int, link_limit: int) -> Iterator[ConnectionMatrix]:
    """Yield every matrix in the space (exhaustive search support).

    The space has ``2 ** ((n - 2)(C - 1))`` points; callers are expected
    to keep ``n`` and ``C`` small (Section 5.6.3 uses up to
    ``P(8, 4)`` and ``P(16, 2)``).
    """
    shape = ConnectionMatrix.shape(n, link_limit)
    size = shape[0] * shape[1]
    if size > 24:
        raise ConfigurationError(
            f"refusing to enumerate 2^{size} matrices; use the heuristics"
        )
    for code in range(1 << size):
        bits = np.array(
            [(code >> k) & 1 for k in range(size)], dtype=bool
        ).reshape(shape)
        yield ConnectionMatrix(n, link_limit, bits)


def _run_links(bits: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The links of every fused run in a ``(count, n - 2)`` block of
    one layer's bits, as ``(owner, i, j)`` arrays in row-major order.

    A run of 1-bits ``a .. b`` fuses interior routers ``a + 1 .. b + 1``
    into the link ``(a, b + 2)`` of matrix ``owner``; starts and ends
    pair up in row-major order, so each matrix's links come out left to
    right.  Every run spans at least two hops, so its link is
    normalized (``j - i >= 2``) by construction.
    """
    padded = np.zeros((len(bits), bits.shape[1] + 2), dtype=np.int8)
    padded[:, 1:-1] = bits
    edges = np.diff(padded, axis=1)
    owner, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1] + 1
    return owner, starts, ends


def iter_unique_blocks(
    n: int,
    link_limit: int,
    block_size: int = 1 << 16,
    fold: bool = True,
) -> Iterator[LinkBlock]:
    """Distinct placements of the matrix space as link arrays, in code order.

    The bulk equivalent of ``decode()`` + dedup over
    :func:`enumerate_matrices`: the first matrix (in code order) of
    each class of matrices that decode alike supplies the class's
    representative, exactly as the scalar loop would keep it.  With
    ``fold=True`` a placement and its mirror image form one class
    (the lexicographic-minimum rule of
    :meth:`repro.topology.row.RowPlacement.mirror_min_links`) -- sound
    only for objectives that price both alike (see
    :meth:`repro.core.latency.RowObjective.mirror_invariant`); with
    ``fold=False`` every distinct placement is kept.

    Codes are unpacked in blocks of ``block_size``, which bound peak
    memory for the largest admissible spaces, and each block's kept
    classes are yielded as one :class:`~repro.topology.row.LinkBlock`
    (possibly empty); each layer's fused runs are extracted with
    vectorized boundary detection.  A one-layer space (``C = 2``)
    decodes one-to-one and mirrors a code by reversing its ``n - 2``
    bits, so the first member of a mirror class is the code with
    ``code <= reverse(code)``: the fold is one array comparison and the
    block is the kept codes' runs as they come.  Layers of a
    multi-layer space can repeat and permute links, so there each
    matrix's sorted link tuple is probed in a dictionary.
    """
    shape = ConnectionMatrix.shape(n, link_limit)
    size = shape[0] * shape[1]
    if size > 24:
        raise ConfigurationError(
            f"refusing to enumerate 2^{size} matrices; use the heuristics"
        )
    shifts = np.arange(size, dtype=np.int64)
    blocks = (
        np.arange(lo, min(lo + block_size, 1 << size), dtype=np.int64)
        for lo in range(0, 1 << size, block_size)
    )
    if shape[1] == 1:
        # Bit k's mirror is bit size - 1 - k.
        mirrored = 1 << shifts[::-1]
        for codes in blocks:
            bits = (codes[:, None] >> shifts) & 1
            if fold:
                bits = bits[codes <= bits @ mirrored]
            yield LinkBlock(n, len(bits), *_run_links(bits))
        return
    rows, layers = shape
    last = n - 1
    seen = set()
    for codes in blocks:
        bits = ((codes[:, None] >> shifts) & 1).reshape(len(codes), rows, layers)
        links_of: list = [[] for _ in range(len(codes))]
        for layer in range(layers):
            # (i, j) packs to i * n + j, which preserves lexicographic
            # link order for the sort and the mirror fold below.
            owner, starts, ends = _run_links(bits[:, :, layer])
            for row, link in zip(owner.tolist(), (starts * n + ends).tolist()):
                links_of[row].append(link)
        kept = []
        for links in links_of:
            own = key = tuple(sorted(set(links)))
            if fold and key:
                key = min(key, tuple(
                    sorted((last - e % n) * n + (last - e // n) for e in key)
                ))
            if key not in seen:
                seen.add(key)
                kept.append(own)
        packed = np.fromiter(
            (e for own in kept for e in own), dtype=np.int64
        )
        owner = np.repeat(np.arange(len(kept)), [len(own) for own in kept])
        yield LinkBlock(n, len(kept), owner, packed // n, packed % n)


def iter_unique_placements(
    n: int,
    link_limit: int,
    block_size: int = 1 << 16,
    fold: bool = True,
) -> Iterator[RowPlacement]:
    """The classes of :func:`iter_unique_blocks` one
    :class:`RowPlacement` at a time, in the same order (the scalar
    exact search and the enumeration tests walk this view)."""
    for block in iter_unique_blocks(n, link_limit, block_size, fold):
        yield from block
