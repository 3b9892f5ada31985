"""Divide-and-conquer initial solution -- Procedure ``I(n, C)`` (Sec. 4.4.1).

The initial state handed to simulated annealing matters enormously for
search efficiency (the paper's Figure 7 shows OnlySA needing far more
runtime to reach comparable quality).  Procedure ``I(n, C)``:

1. If the row is small (``n <= 4`` by default), solve exactly by
   enumeration (branch and bound).
2. Otherwise recursively solve the two half-rows with limit ``C - 1``
   (the reserved budget unit pays for step 3's bridging link), then
3. try adding one express link between every left-half/right-half
   router pair, evaluate each combination, and keep the best.

The combination step evaluates ``O(n^2)`` placements, each with the
``O(n^3)`` Floyd-Warshall evaluator, giving the paper's overall
``O(n^5) = O(N^2.5)`` by the master theorem.

Traffic-weighted objectives (Section 5.6.4) are supported: if the
objective exposes ``for_slice(lo, hi)`` the recursion judges each
sub-row by its own slice of the traffic matrix; size-independent
objectives (the default all-pairs one) are reused as-is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.annealing import MemoizedObjective, Objective
from repro.core.branch_bound import (
    DEFAULT_BATCH_SIZE,
    effective_link_limit,
    exhaustive_matrix_search,
    first_minimum,
)
from repro.obs.instrument import Instrumentation, ensure_obs
from repro.topology.row import LinkBlock, RowPlacement

#: Upper bounds for the recursion-depth histogram.
DC_DEPTH_BUCKETS = (1, 2, 3, 4, 6, 8)


@dataclass(frozen=True)
class InitialSolution:
    """Result of Procedure ``I(n, C)``.

    ``evaluations`` counts unique objective evaluations across the
    whole recursion; the paper's Figure 7 normalizes annealing runtime
    to the evaluation count of ``I(8, 4)`` / ``I(16, 4)``.
    """

    placement: RowPlacement
    energy: float
    evaluations: int
    wall_time_s: float


def _slice_objective(objective: Objective, lo: int, hi: int) -> Objective:
    """Restrict ``objective`` to a sub-row when it supports slicing."""
    for_slice = getattr(objective, "for_slice", None)
    if for_slice is None:
        return objective
    return for_slice(lo, hi)


def initial_solution(
    n: int,
    link_limit: int,
    objective: Objective,
    base_size: int = 4,
    obs: Optional[Instrumentation] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> InitialSolution:
    """Run Procedure ``I(n, C)`` and return the seed placement.

    With ``obs`` attached, each recursion node is timed under the
    ``dc.solve`` span and emits a ``dc.node`` event carrying its slice
    and depth; depths also feed a ``dc.depth`` histogram.

    ``batch_size`` bounds the population priced per Floyd-Warshall
    stack in the base-case enumeration and the combine step (the
    ``O(n^2)`` bridging candidates, in chunks); ``batch_size=1`` forces
    the scalar kernels.  Results are bit-identical either way.
    """
    start = time.perf_counter()
    obs = ensure_obs(obs)
    counter = {"evaluations": 0}
    with obs.span("dc.initial_solution"):
        placement = _solve(
            0, n, effective_link_limit(n, link_limit), objective, base_size,
            counter, obs, depth=0, batch_size=batch_size,
        )
        limit = effective_link_limit(n, link_limit)
        placement.validate(limit)
        energy = _slice_objective(objective, 0, n)(placement)
    if obs.enabled:
        obs.emit("dc.done", n=n, link_limit=link_limit, energy=energy,
                 evaluations=counter["evaluations"],
                 wall_time_s=time.perf_counter() - start)
    return InitialSolution(
        placement=placement,
        energy=energy,
        evaluations=counter["evaluations"],
        wall_time_s=time.perf_counter() - start,
    )


def _bridging_block(base: RowPlacement, left_n: int, link_limit: int) -> LinkBlock:
    """The combine step's population as one block of link arrays.

    Member 0 is ``base``; member ``k`` is ``base`` plus the ``k``-th
    feasible bridge ``(i, j)`` (``i < left_n <= j``, ``j - i >= 2``;
    an adjacent pair is bridged by its local link) in ``(i, j)`` order.
    Adding ``(i, j)`` raises cross-sections ``i .. j-1`` by one, so
    feasibility is arithmetic on the base's counts: a bridge is kept
    when no cross-section it spans is already at ``link_limit``.  (Both
    halves were solved with ``link_limit - 1``, so every bridge passes;
    the check guards the invariant, not the common case.)
    """
    n = base.n
    i, j = np.meshgrid(np.arange(left_n), np.arange(left_n, n), indexing="ij")
    i, j = i.ravel(), j.ravel()
    # full[t]: cross-sections below t already at the limit.
    at_limit = np.asarray(base.cross_section_counts()) >= link_limit
    full = np.concatenate(([0], np.cumsum(at_limit)))
    keep = (j - i >= 2) & (full[j] == full[i])
    i, j = i[keep], j[keep]
    links = np.asarray(sorted(base.express_links), dtype=np.intp).reshape(-1, 2)
    m, bridges = len(links), len(i)
    starts = np.empty((bridges, m + 1), dtype=np.intp)
    ends = np.empty((bridges, m + 1), dtype=np.intp)
    starts[:, :m], starts[:, m] = links[:, 0], i
    ends[:, :m], ends[:, m] = links[:, 1], j
    owner = np.repeat(np.arange(bridges + 1), [m] + [m + 1] * bridges)
    return LinkBlock(
        n, bridges + 1, owner,
        np.concatenate((links[:, 0], starts.ravel())),
        np.concatenate((links[:, 1], ends.ravel())),
    )


def _solve(
    lo: int,
    hi: int,
    link_limit: int,
    objective: Objective,
    base_size: int,
    counter: dict,
    obs: Instrumentation,
    depth: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> RowPlacement:
    """Solve the slice ``[lo, hi)`` of the full row; 0-indexed result."""
    n = hi - lo
    link_limit = effective_link_limit(n, link_limit)
    if link_limit <= 1 or n < 3:
        return RowPlacement.mesh(n)

    if obs.enabled:
        obs.emit("dc.node", lo=lo, hi=hi, depth=depth, link_limit=link_limit)
    if not obs.is_null:
        obs.metrics.histogram("dc.depth", DC_DEPTH_BUCKETS).observe(depth)

    memo = MemoizedObjective(_slice_objective(objective, lo, hi))
    try:
        if n <= base_size:
            # Base case: exact enumeration (branch and bound per the paper).
            with obs.span("dc.base_case"):
                return exhaustive_matrix_search(
                    n, link_limit, memo, batch_size=batch_size
                ).placement

        left_n = (n + 1) // 2
        left = _solve(lo, lo + left_n, link_limit - 1, objective,
                      base_size, counter, obs, depth + 1, batch_size)
        right = _solve(lo + left_n, hi, link_limit - 1, objective,
                       base_size, counter, obs, depth + 1, batch_size)
        base = RowPlacement(
            n,
            left.shifted(0, n).express_links
            | right.shifted(left_n, n).express_links,
        )

        with obs.span("dc.combine"):
            # The base is member 0: a bridge wins only by beating it.
            block = _bridging_block(base, left_n, link_limit)
            return first_minimum([block], memo, batch_size)[0]
    finally:
        counter["evaluations"] += memo.evaluations
