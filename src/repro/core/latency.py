"""Analytical latency model (Eqs. 1, 2 and 5 of the paper).

The on-chip latency of a packet is

.. math::

    L = L_D + L_S = (H T_r + D_M T_l + H T_c) + S / b

where ``H`` is the hop count, ``T_r`` the router pipeline delay,
``D_M`` the Manhattan distance in unit links (express links are
repeater-segmented, so their delay is proportional to length), ``T_c``
the average per-hop contention, ``S`` the packet size and ``b`` the
link (flit) width.  Under dimension-order routing the average 2D head
latency is exactly twice the 1D row average (Eq. 5), which is what lets
the optimizer work on a single row.

This module provides:

* :class:`PacketMix` -- the multi-size packet population and its
  average serialization latency,
* :class:`BandwidthConfig` -- the bisection-bandwidth budget that ties
  the link limit ``C`` to the flit width ``b = b_base / C`` (Eq. 3),
* :class:`RowObjective` -- the function the search algorithms minimize,
* whole-network summaries (average / worst-case zero-load latency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.routing.impls import resolve_impl
from repro.routing.shortest_path import (
    HopCostModel,
    batched_mean_distances,
    directional_distances,
)
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class PacketMix:
    """A population of packet types ``(size_bits, fraction)``.

    The paper (after [19]) uses long 512-bit packets (read replies /
    write requests) and short 128-bit packets (read requests / write
    acks) in a 1:4 ratio, i.e. fractions 0.2 / 0.8.
    """

    types: Tuple[Tuple[int, float], ...] = ((512, 0.2), (128, 0.8))

    def __post_init__(self) -> None:
        total = sum(frac for _, frac in self.types)
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ConfigurationError(f"packet fractions must sum to 1, got {total}")
        for size, frac in self.types:
            if size <= 0 or frac < 0:
                raise ConfigurationError(f"bad packet type ({size}, {frac})")

    @classmethod
    def paper_default(cls) -> "PacketMix":
        """Long 512b : short 128b at 1:4 (Section 5.1)."""
        return cls()

    @classmethod
    def single(cls, size_bits: int) -> "PacketMix":
        """A degenerate mix with one packet size (useful in tests)."""
        return cls(types=((size_bits, 1.0),))

    def serialization_cycles(self, flit_bits: int) -> float:
        """Average ``L_S`` in cycles for flit width ``flit_bits``.

        A packet of ``S`` bits occupies ``ceil(S / b)`` flits; the tail
        flit arrives ``ceil(S / b)`` cycles after the head starts
        transmitting, so the average serialization latency is the
        mix-weighted flit count.
        """
        if flit_bits <= 0:
            raise ConfigurationError(f"flit width must be positive, got {flit_bits}")
        return sum(frac * math.ceil(size / flit_bits) for size, frac in self.types)

    def flits_per_packet(self, flit_bits: int) -> Dict[int, int]:
        """Map packet size -> flit count at the given width."""
        return {size: math.ceil(size / flit_bits) for size, _ in self.types}

    def average_size_bits(self) -> float:
        """Mix-weighted mean packet size."""
        return sum(size * frac for size, frac in self.types)

    def sizes(self) -> Tuple[int, ...]:
        return tuple(size for size, _ in self.types)

    def fractions(self) -> Tuple[float, ...]:
        return tuple(frac for _, frac in self.types)


@dataclass(frozen=True)
class BandwidthConfig:
    """Bisection-bandwidth budget and the resulting flit widths (Eq. 3).

    ``base_flit_bits`` is the link width when ``C = 1`` (the plain
    mesh); with ``C`` links per cross-section each link narrows to
    ``base_flit_bits / C`` so that ``b * C * n`` stays within the
    budget.  The paper's default is a 256-bit baseline flit.
    """

    base_flit_bits: int = 256

    def __post_init__(self) -> None:
        b = self.base_flit_bits
        if b <= 0 or (b & (b - 1)) != 0:
            raise ConfigurationError(
                f"base flit width must be a positive power of two, got {b}"
            )

    @classmethod
    def from_bisection(cls, bits_per_cycle: int, n: int) -> "BandwidthConfig":
        """Budget given as total bisection bits/cycle for an ``n x n`` mesh.

        The bisection cut crosses ``n`` bidirectional links, i.e.
        ``2 n`` unidirectional channels, so ``b_base = B / (2 n)``.
        At 1 GHz, bits/cycle equals Gb/s: the paper's 2 KGb/s and
        8 KGb/s cases for the 8x8 network are 128-bit and 512-bit
        baseline flits.
        """
        base = bits_per_cycle // (2 * n)
        return cls(base_flit_bits=base)

    def flit_bits(self, link_limit: int) -> int:
        """Flit width ``b`` at cross-section link limit ``C``."""
        if link_limit <= 0:
            raise ConfigurationError(f"link limit must be positive, got {link_limit}")
        if self.base_flit_bits % link_limit != 0:
            raise ConfigurationError(
                f"link limit {link_limit} does not divide base flit "
                f"width {self.base_flit_bits}"
            )
        return self.base_flit_bits // link_limit

    def valid_link_limits(self, n: int) -> Tuple[int, ...]:
        """All feasible ``C`` values for an ``n x n`` mesh (Section 4.1).

        Powers of two from 1 up to ``C_full = n^2 / 4`` (full row
        connectivity) that still leave at least a 1-bit flit.
        """
        c_full = full_connectivity_limit(n)
        limits = []
        c = 1
        while c <= c_full and self.base_flit_bits % c == 0 and self.base_flit_bits // c >= 1:
            limits.append(c)
            c *= 2
        return tuple(limits)


def full_connectivity_limit(n: int) -> int:
    """``C_full = (n/2) * (n/2)`` -- Eq. 4, the largest useful ``C``.

    A fully-connected row needs ``floor(n/2) * ceil(n/2)`` links at its
    middle cross-section (every router on one side connects to every
    router on the other side).
    """
    return (n // 2) * ((n + 1) // 2)


# ----------------------------------------------------------------------
# Row-level head-latency evaluation
# ----------------------------------------------------------------------

def row_head_latency_matrix(
    placement: RowPlacement,
    cost: HopCostModel | None = None,
    impl: Optional[str] = None,
) -> np.ndarray:
    """All-pairs zero-load head latency within one row.

    ``impl`` forwards to
    :func:`~repro.routing.shortest_path.directional_distances`
    (``None``: the machine's tier).
    """
    return directional_distances(placement, cost, impl=impl)


def mean_row_head_latency(
    placement: RowPlacement,
    cost: HopCostModel | None = None,
    weights: np.ndarray | None = None,
    impl: Optional[str] = None,
) -> float:
    """Average row head latency ``L_D,r`` of Eq. 5.

    Averaged over all ``n * n`` ordered pairs including ``i == j``
    (which contribute zero), matching the normalization of Eq. 2.  With
    ``weights`` (an ``n x n`` nonnegative matrix) the average is
    traffic-weighted as in Section 5.6.4.
    """
    dist = row_head_latency_matrix(placement, cost, impl=impl)
    if weights is None:
        return float(dist.mean())
    w = np.asarray(weights, dtype=float)
    if w.shape != dist.shape:
        raise ConfigurationError(f"weights shape {w.shape} != {dist.shape}")
    total = w.sum()
    if not 0 < total < math.inf:
        raise ConfigurationError("weights must have positive, finite sum")
    return float((dist * w).sum() / total)


def mesh_average_head_latency_2d(
    placement: RowPlacement,
    cost: HopCostModel | None = None,
) -> float:
    """Average 2D head latency when ``placement`` fills rows and columns.

    By Eq. 5 with identical rows and columns this is exactly twice the
    1D row average.
    """
    return 2.0 * mean_row_head_latency(placement, cost)


def worst_case_head_latency_2d(
    placement: RowPlacement,
    cost: HopCostModel | None = None,
) -> float:
    """Maximum zero-load head latency between any 2D router pair.

    The X and Y path components are independent under DOR, so the 2D
    maximum is the sum of the row maximum and the column maximum
    (identical placements => twice the row maximum).  Used for Table 2.
    """
    dist = row_head_latency_matrix(placement, cost)
    return 2.0 * float(dist.max())


@dataclass(frozen=True)
class RowObjective:
    """The quantity minimized when solving ``P~(n, C)``.

    For a fixed link limit the serialization term is constant, so the
    objective is the (optionally traffic-weighted) mean row head
    latency.  Instances are cheap, immutable, and safe to share between
    search algorithms.

    ``obs`` (excluded from equality/hash) attaches an
    :class:`~repro.obs.Instrumentation`: every evaluation is then timed
    under the ``latency.floyd_warshall`` span, which is how a profiled
    run attributes optimizer wall time to the O(n^3) evaluator.

    ``impl`` is the Floyd-Warshall tier, resolved at construction:
    ``None`` is the machine's tier
    (:func:`repro.routing.impls.default_impl`), and the parity suites
    name ``"vectorized"``, ``"native"`` or the pure-Python
    ``"reference"`` oracle.  All tiers produce the same energies, so
    searches are trajectory-identical under any of them.  Constructing
    a ``"native"`` objective warms the backend up immediately
    (shared-object load or build, once per process) so the cost lands
    *outside* the ``latency.floyd_warshall`` span -- reported instead
    through the ``kernel.compile`` obs event.
    """

    cost: HopCostModel = HopCostModel()
    weights: Tuple[Tuple[float, ...], ...] | None = None
    impl: Optional[str] = None
    obs: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "impl", resolve_impl(self.impl))
        if self.impl == "native":
            from repro.routing import native

            native.warmup(self.obs)
        # The weight matrix as an array, once per instance (not a
        # field: equality, hashing and repr see ``weights`` only).  A
        # slice with no traffic falls back to the unweighted mean, so
        # searches on it remain well defined; a sum that overflows (or
        # is NaN) is refused here, before any pricing path sees it.
        w = None if self.weights is None else np.asarray(self.weights, dtype=float)
        total = 0.0 if w is None else w.sum()
        if not total < math.inf:
            raise ConfigurationError("weights must have positive, finite sum")
        object.__setattr__(self, "_w", w if total > 0 else None)

    def __call__(self, placement: RowPlacement) -> float:
        if self.obs is None:
            return self._evaluate(placement)
        with self.obs.span("latency.floyd_warshall"):
            return self._evaluate(placement)

    def _evaluate(self, placement: RowPlacement) -> float:
        return mean_row_head_latency(placement, self.cost, self._w, impl=self.impl)

    def evaluate_many(self, placements, folded: bool = False) -> np.ndarray:
        """Price a whole population in one batched Floyd-Warshall pass.

        Returns ``energies`` with ``energies[i] == self(placements[i])``
        bit for bit.  Duplicate placements (by ``canonical_bytes``) are
        priced once; when the objective is :meth:`mirror_invariant`, a
        placement and its mirror image also share one kernel slice
        (mirror-fold dedup).  ``folded=True`` asserts the batch is
        already pairwise distinct under that dedup key (the exact
        enumerators guarantee this) and skips the dedup pass -- it
        would map every placement to itself, so the energies are
        unchanged.  Under ``impl="reference"`` the population is priced
        by the pure-Python oracle one placement at a time, preserving
        the oracle contract at scalar speed.
        """
        placements = list(placements)
        if not placements:
            return np.empty(0, dtype=float)
        if self.obs is None:
            return self._evaluate_many(placements, folded)
        with self.obs.span("latency.floyd_warshall"):
            return self._evaluate_many(placements, folded)

    def _integral_costs(self) -> bool:
        """True when every hop cost is an integer: distances are then
        exact, so no summation order can shift a bit of them."""
        c = self.cost
        return (
            float(c.router_delay).is_integer()
            and float(c.unit_link_delay).is_integer()
            and float(c.contention_delay).is_integer()
        )

    def mirror_invariant(self) -> bool:
        """True when a placement and its mirror image price bit-identically.

        Reversing the row maps pair ``(i, j)`` to ``(n-1-i, n-1-j)``,
        which leaves the unweighted mean unchanged but moves traffic
        weights onto other pairs.  Integral hop costs make distances
        exact integers, so the reversed relaxation order cannot shift
        a bit either.  The one definition behind both mirror folds:
        :meth:`evaluate_many`'s shared kernel slice and the exact
        search's enumeration of one placement per mirror pair.
        """
        return self._w is None and self._integral_costs()

    def _evaluate_many(self, placements, folded: bool = False) -> np.ndarray:
        if self.impl == "reference":
            return np.asarray([self._evaluate(p) for p in placements], dtype=float)
        w = self._w
        if folded:
            return batched_mean_distances(placements, self.cost, w, impl=self.impl)
        fold = self.mirror_invariant()
        keys = [
            p.mirror_fold_bytes() if fold else p.canonical_bytes()
            for p in placements
        ]
        representatives: dict = {}
        for placement, key in zip(placements, keys):
            if key not in representatives:
                representatives[key] = placement
        energies = batched_mean_distances(
            list(representatives.values()), self.cost, w, impl=self.impl
        )
        by_key = dict(zip(representatives.keys(), energies.tolist()))
        return np.asarray([by_key[key] for key in keys], dtype=float)

    def for_slice(self, lo: int, hi: int) -> "RowObjective":
        """The objective restricted to routers ``lo .. hi - 1``.

        Used by the divide-and-conquer recursion: a sub-row's quality
        is judged by the traffic between its own routers (the boundary
        -crossing traffic is handled by the combine step's bridging
        link).  For the unweighted objective this is the objective
        itself, which is size-independent.
        """
        if self.weights is None:
            return self
        w = np.asarray(self.weights, dtype=float)[lo:hi, lo:hi]
        return RowObjective(
            cost=self.cost,
            weights=tuple(map(tuple, w.tolist())),
            impl=self.impl,
            obs=self.obs,
        )

    def incremental_evaluator(
        self, placement: RowPlacement
    ) -> Optional["IncrementalRowEvaluator"]:
        """An engine-backed evaluator seeded at ``placement``, or ``None``.

        The evaluator prices link changes in O(n^2) (see
        :mod:`repro.routing.incremental`).  It is offered only where its
        energies equal ``self(...)`` bit for bit: integral hop costs
        (the defaults), under which the engine's re-associated sums
        are exact, and any tier but the pure-Python ``"reference"``
        oracle, whose energies must all come from the oracle itself.
        :func:`~repro.core.annealing.anneal` takes the engine walk
        exactly when this returns an evaluator.
        """
        if self.impl == "reference" or not self._integral_costs():
            return None
        return IncrementalRowEvaluator(self, placement)


class IncrementalRowEvaluator:
    """Incremental counterpart of :class:`RowObjective`.

    Wraps an :class:`~repro.routing.incremental.IncrementalApspEngine`
    (exposed as ``.engine`` for ``apply_link_changes``) and mirrors
    the objective's energy formula -- including the weighted variant
    and its zero-traffic fallback -- term for term, so the two paths
    agree bit-for-bit whenever the engine's distances match the full
    solver's.
    """

    def __init__(self, objective: RowObjective, placement: RowPlacement):
        from repro.routing.incremental import IncrementalApspEngine

        self.objective = objective
        self.engine = IncrementalApspEngine(
            placement, objective.cost, impl=objective.impl
        )
        w = objective._w
        if w is not None and w.shape != (placement.n, placement.n):
            raise ConfigurationError(
                f"weights shape {w.shape} != {(placement.n, placement.n)}"
            )
        self._w = w
        self._total = None if w is None else w.sum()

    def energy(self) -> float:
        if self._w is None:
            return self.engine.mean_distance()
        dist = self.engine.distances()
        return float((dist * self._w).sum() / self._total)


# ----------------------------------------------------------------------
# Whole-network latency summaries
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyBreakdown:
    """Average latency split into its Eq. 2 components."""

    head: float
    serialization: float

    @property
    def total(self) -> float:
        return self.head + self.serialization


def network_average_latency(
    placement: RowPlacement,
    link_limit: int,
    bandwidth: BandwidthConfig | None = None,
    mix: PacketMix | None = None,
    cost: HopCostModel | None = None,
) -> LatencyBreakdown:
    """Average 2D packet latency ``L_avg = L_D,avg + L_S,avg`` (Eq. 2).

    ``placement`` must satisfy ``link_limit``; the flit width is derived
    from the bandwidth budget.
    """
    bandwidth = bandwidth or BandwidthConfig()
    mix = mix or PacketMix.paper_default()
    placement.validate(link_limit)
    head = mesh_average_head_latency_2d(placement, cost)
    ser = mix.serialization_cycles(bandwidth.flit_bits(link_limit))
    return LatencyBreakdown(head=head, serialization=ser)


def network_worst_case_latency(
    placement: RowPlacement,
    link_limit: int,
    bandwidth: BandwidthConfig | None = None,
    mix: PacketMix | None = None,
    cost: HopCostModel | None = None,
) -> float:
    """Maximum zero-load packet latency (Table 2): worst pair + longest packet."""
    bandwidth = bandwidth or BandwidthConfig()
    mix = mix or PacketMix.paper_default()
    b = bandwidth.flit_bits(link_limit)
    worst_ser = max(math.ceil(size / b) for size in mix.sizes())
    return worst_case_head_latency_2d(placement, cost) + worst_ser
