"""Exact solver for small ``P~(n, C)`` instances (Section 5.6.3).

:func:`exhaustive_matrix_search` enumerates the complete connection
matrix space ``2^{(n-2)(C-1)}``, de-duplicating matrices that decode
to the same placement, so the expensive evaluation runs only once per
equivalence class.  It also folds the left-right mirror symmetry when
the objective declares itself reversal-invariant
(:meth:`~repro.core.latency.RowObjective.mirror_invariant`); a
traffic-weighted objective is searched over both mirror images.  The
classes stay link arrays from the enumeration to the pricing kernel;
only the winner becomes a placement.  That pricing loop,
:func:`first_minimum`, is also the one the divide-and-conquer combine
step runs over its bridging candidates.

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
from typing import Iterable, Tuple

import numpy as np

from repro.core.annealing import MemoizedObjective, Objective
from repro.core.connection_matrix import ConnectionMatrix, iter_unique_blocks
from repro.core.latency import full_connectivity_limit
from repro.topology.row import LinkBlock, RowPlacement


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


def first_minimum(
    blocks: Iterable[LinkBlock],
    memo: MemoizedObjective,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> Tuple[RowPlacement, float]:
    """The first strict minimum of ``memo`` over the members of ``blocks``.

    The one population scan of both exact pricing loops: the exact
    search's equivalence classes and the D&C combine step's bridging
    candidates.  Each block is priced in chunks of at most
    ``batch_size`` members, one ``memo.evaluate_many`` call each, which
    is bit-identical to -- and several times faster than -- the scalar
    loop.  An objective that
    :meth:`~repro.core.annealing.MemoizedObjective.prices_link_blocks`
    takes the chunk's arrays as they are; any other is handed the
    chunk's placements, built in order (the Pareto pricer's archive
    sees every member).  The chunk's first minimum (``np.argmin``)
    replaces the incumbent only if strictly lower, so the winner is the
    first minimum in member order that the scalar loop finds, and it is
    the one member built from the arrays as a :class:`RowPlacement`.
    ``batch_size <= 1`` walks the members one at a time through
    ``memo(p)``, the scalar reference.  The population must be
    non-empty, its members pairwise distinct and new to ``memo``, which
    counts each as a miss either way.  Returns the winner and its
    energy.
    """
    best = None
    best_energy = float("inf")
    if batch_size <= 1:
        for block in blocks:
            for placement in block:
                energy = memo(placement)
                if best is None or energy < best_energy:
                    best, best_energy = placement, energy
        return best, best_energy
    arrays = memo.prices_link_blocks()
    for block in blocks:
        for chunk in block.chunks(batch_size):
            energies = memo.evaluate_many(chunk if arrays else list(chunk))
            k = int(np.argmin(energies))
            if best is None or energies[k] < best_energy:
                best, best_energy = (chunk, k), float(energies[k])
    chunk, k = best
    return chunk[k], best_energy


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
    (:func:`~repro.core.connection_matrix.iter_unique_blocks`), in
    enumeration order, and :func:`first_minimum` prices them and keeps
    the first optimum (``batch_size=1``: the scalar kernel, the
    benchmark baseline).
    """
    limit = effective_link_limit(n, link_limit)
    memo = MemoizedObjective(objective)
    start = time.perf_counter()
    shape = ConnectionMatrix.shape(n, limit)
    blocks = iter_unique_blocks(n, limit, fold=memo.mirror_invariant())
    placement, energy = first_minimum(blocks, memo, batch_size)
    return ExactResult(
        placement=placement,
        energy=energy,
        evaluations=memo.evaluations,
        states_visited=1 << (shape[0] * shape[1]),
        wall_time_s=time.perf_counter() - start,
    )
