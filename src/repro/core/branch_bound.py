"""Exact solver for small ``P~(n, C)`` instances (Section 5.6.3).

:func:`exhaustive_matrix_search` enumerates the complete connection
matrix space ``2^{(n-2)(C-1)}``, de-duplicating matrices that decode
to the same placement, so the expensive evaluation runs only once per
equivalence class.  It also folds the left-right mirror symmetry when
the objective declares itself reversal-invariant
(:meth:`~repro.core.latency.RowObjective.mirror_invariant`); a
traffic-weighted objective is searched over both mirror images.  The
classes stay link arrays from the enumeration to the pricing kernel;
only the winner becomes a placement.

The paper uses "exhaustive search algorithm with branch and bound" as
the optimality reference for ``P(4,2)``, ``P(8,2)``, ``P(8,3)``,
``P(8,4)`` and ``P(16,2)`` (Figure 12).  Enumeration needs no bound
to be exact; the tests check it against a brute-force minimum over
every matrix, and the runtime ratio against D&C_SA is what the
Figure 12 bench reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.annealing import MemoizedObjective, Objective
from repro.core.connection_matrix import (
    ConnectionMatrix,
    iter_unique_blocks,
    iter_unique_placements,
)
from repro.core.latency import full_connectivity_limit
from repro.topology.row import RowPlacement


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact search."""

    placement: RowPlacement
    energy: float
    evaluations: int
    states_visited: int
    wall_time_s: float


def effective_link_limit(n: int, link_limit: int) -> int:
    """Clamp ``C`` to the largest useful value for a row of ``n``.

    Cross-sections of a fully connected row carry at most
    ``C_full = floor(n/2) * ceil(n/2)`` links, so larger limits admit no
    new placements.
    """
    return min(link_limit, full_connectivity_limit(n))


def validated_link_limit(n: int, link_limit: int, obs=None) -> int:
    """Validate and clamp ``C`` once, at the API boundary.

    Rejects non-positive limits and clamps oversized ones to
    ``C_full`` via :func:`effective_link_limit`, emitting a
    ``config.clamp`` warning event when instrumentation is attached --
    so a sweep over ``C > C_full`` is visible in the trace instead of
    silently solving a smaller problem per worker.  The parallel
    engines call this before building their task grids; the returned
    value is what every spawned worker sees.
    """
    if link_limit < 1:
        from repro.util.errors import ConfigurationError

        raise ConfigurationError(f"link limit must be >= 1, got {link_limit}")
    limit = effective_link_limit(n, link_limit)
    if limit != link_limit and obs is not None and obs.enabled:
        obs.emit(
            "config.clamp",
            n=n,
            requested_link_limit=link_limit,
            effective_link_limit=limit,
        )
    return limit


#: Classes priced per batched kernel call by the exact searches.  The
#: whole P~(20, 2) search on the compiled tier, pinned to one CPU of a
#: 2-vCPU VM (median of 9): 0.34 s at 64, 0.31 s at 128 and 256, then
#: 0.35-0.37 s at 512-2048 and 0.46 s at 4096, as the stack and its
#: copies outgrow the cache.  The NumPy tier has the same shape (0.89 s
#: at 128, 0.86 s at 256, 1.04 s at 1024).
DEFAULT_BATCH_SIZE = 128


def exhaustive_matrix_search(
    n: int,
    link_limit: int,
    objective: Objective,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ExactResult:
    """Optimal placement by full enumeration of the matrix space.

    The equivalence classes are one per mirror pair when the objective
    is mirror-invariant (an objective that declares nothing is folded),
    one per placement otherwise.  The enumerator hands over each code
    block's classes as link arrays
    (:func:`~repro.core.connection_matrix.iter_unique_blocks`), and
    each chunk of at most ``batch_size`` of them is priced with a
    single batched Floyd-Warshall stack
    (``MemoizedObjective.evaluate_many``), which is bit-identical to --
    and several times faster than -- the scalar loop.  An objective
    that :meth:`~repro.core.annealing.MemoizedObjective.prices_link_blocks`
    takes the arrays as they are; any other is handed the chunk's
    placements, built in order (the Pareto pricer's archive sees every
    class).  The chunk's first minimum (``np.argmin``) replaces the
    incumbent only if strictly lower, so the winner is the same first
    minimum in enumeration order the sequential path finds, and it is
    the one class built from the arrays as a :class:`RowPlacement`.
    ``batch_size=1`` walks the placements one at a time through the
    scalar kernel (the benchmark baseline).
    """
    limit = effective_link_limit(n, link_limit)
    memo = MemoizedObjective(objective)
    start = time.perf_counter()
    # The all-zero matrix decodes to the mesh, so the first enumerated
    # placement prices the incumbent -- no upfront scalar evaluation.
    best_placement = RowPlacement.mesh(n)
    best_energy = float("inf")
    shape = ConnectionMatrix.shape(n, limit)
    states = 1 << (shape[0] * shape[1])
    fold = memo.mirror_invariant()
    if batch_size <= 1:
        for placement in iter_unique_placements(n, limit, fold=fold):
            energy = memo(placement)
            if energy < best_energy:
                best_energy = energy
                best_placement = placement
    else:
        arrays = memo.prices_link_blocks()
        for block in iter_unique_blocks(n, limit, fold=fold):
            for chunk in block.chunks(batch_size):
                energies = memo.evaluate_many(
                    chunk if arrays else list(chunk), folded=True
                )
                k = int(np.argmin(energies))
                if energies[k] < best_energy:
                    best_energy = float(energies[k])
                    best_placement = chunk[k]
    return ExactResult(
        placement=best_placement,
        energy=best_energy,
        evaluations=memo.evaluations,
        states_visited=states,
        wall_time_s=time.perf_counter() - start,
    )
