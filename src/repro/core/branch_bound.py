"""Exact solvers for small ``P~(n, C)`` instances (Section 5.6.3).

Two independent exact methods are provided:

* :func:`exhaustive_matrix_search` enumerates the complete connection
  matrix space ``2^{(n-2)(C-1)}``, de-duplicating matrices that decode
  to the same placement, so the expensive evaluation runs only once
  per equivalence class.  It also folds the left-right mirror
  symmetry when the objective declares itself reversal-invariant
  (:meth:`~repro.core.latency.RowObjective.mirror_invariant`); a
  traffic-weighted objective is searched over both mirror images.
* :func:`branch_and_bound` searches over express-link *sets* directly
  with depth-first branching and an admissible bound: head latency is
  monotone non-increasing in the link set, so the energy of the current
  partial set with *every* still-feasible link added bounds all of its
  completions from below.  Subtrees whose bound cannot beat the
  incumbent are pruned.

The paper uses "exhaustive search algorithm with branch and bound" as
the optimality reference for ``P(4,2)``, ``P(8,2)``, ``P(8,3)``,
``P(8,4)`` and ``P(16,2)`` (Figure 12); both solvers here agree on all
of those instances (tested), and the runtime ratio against D&C_SA is
what the Figure 12 bench reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.annealing import MemoizedObjective, Objective
from repro.core.connection_matrix import ConnectionMatrix, iter_unique_placements
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


#: Placements priced per batched kernel call by the exact searches.
#: With the triangular row kernel (one (B, k, n - k - 1) temporary per
#: pivot k), batch sizes 64-512 measured within noise of each other.
DEFAULT_BATCH_SIZE = 128


def exhaustive_matrix_search(
    n: int,
    link_limit: int,
    objective: Objective,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ExactResult:
    """Optimal placement by full enumeration of the matrix space.

    Enumeration proceeds in chunks of ``batch_size`` equivalence
    classes: one per mirror pair when the objective is
    mirror-invariant (an objective that declares nothing is folded),
    one per placement otherwise.  Each chunk is priced with a single
    batched Floyd-Warshall stack (``MemoizedObjective.evaluate_many``),
    which is bit-identical to -- and several times faster than -- the
    scalar loop.  ``batch_size=1`` forces the scalar kernel (the
    benchmark baseline).  Best-so-far updates scan each chunk in
    enumeration order with strict ``<``, so the winning placement is
    the same first minimum the sequential path finds.
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
    chunk: List[RowPlacement] = []

    def flush() -> None:
        nonlocal best_energy, best_placement
        energies = memo.evaluate_many(chunk, folded=True)
        for placement, energy in zip(chunk, energies):
            if energy < best_energy:
                best_energy = float(energy)
                best_placement = placement
        chunk.clear()

    fold = memo.mirror_invariant()
    for placement in iter_unique_placements(n, limit, fold=fold):
        if batch_size <= 1:
            energy = memo(placement)
            if energy < best_energy:
                best_energy = energy
                best_placement = placement
        else:
            chunk.append(placement)
            if len(chunk) >= batch_size:
                flush()
    if chunk:
        flush()
    return ExactResult(
        placement=best_placement,
        energy=best_energy,
        evaluations=memo.evaluations,
        states_visited=states,
        wall_time_s=time.perf_counter() - start,
    )


def _feasible_additions(
    placement: RowPlacement,
    candidates: List[Tuple[int, int]],
    limit: int,
) -> List[Tuple[int, int]]:
    """Candidates that can still be added without breaking the limit."""
    counts = list(placement.cross_section_counts())
    out = []
    for i, j in candidates:
        if all(counts[k] + 1 <= limit for k in range(i, j)):
            out.append((i, j))
    return out


def branch_and_bound(
    n: int,
    link_limit: int,
    objective: Objective,
    max_states: Optional[int] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ExactResult:
    """Optimal placement by DFS over link sets with monotone bounding.

    Because adding a link can only shorten shortest paths, the energy
    of ``partial + all still-feasible candidates`` (constraints
    ignored) is an admissible lower bound for every completion of
    ``partial``; branches whose bound does not beat the incumbent are
    cut.  ``max_states`` optionally aborts runaway searches (used only
    by stress tests).

    Bounds stay scalar (each depends on the incumbent the previous
    branch produced), but the child frontier of every node is
    pre-priced with one batched kernel call: each child is evaluated at
    the top of its own visit anyway, so warming the memo in a batch
    changes no trajectory and no evaluation count -- it only swaps K
    kernel launches for one.  Disabled when ``max_states`` truncates
    the search (a pre-priced child the abort would have skipped would
    otherwise inflate ``evaluations``) or ``batch_size <= 1``.
    """
    limit = effective_link_limit(n, link_limit)
    memo = MemoizedObjective(objective)
    start = time.perf_counter()
    all_candidates = [(i, j) for i in range(n) for j in range(i + 2, n)]
    batch_frontiers = batch_size > 1 and max_states is None

    best: Dict[str, object] = {
        "placement": RowPlacement.mesh(n),
        "energy": memo(RowPlacement.mesh(n)),
    }
    states = {"count": 0}

    def visit(placement: RowPlacement, remaining: List[Tuple[int, int]]) -> None:
        states["count"] += 1
        if max_states is not None and states["count"] > max_states:
            return
        energy = memo(placement)
        if energy < best["energy"]:
            best["energy"] = energy
            best["placement"] = placement
        feasible = _feasible_additions(placement, remaining, limit)
        if not feasible:
            return
        # Admissible bound: all feasible links added at once.
        relaxed = RowPlacement(n, placement.express_links | set(feasible))
        if memo(relaxed) >= best["energy"]:
            return
        children = []
        for idx, link in enumerate(feasible):
            nxt = placement.with_link(*link)
            if not nxt.satisfies_limit(limit):
                continue
            # Only branch on links after `link` to avoid permutations.
            children.append((nxt, feasible[idx + 1:]))
        if batch_frontiers and len(children) > 1:
            memo.evaluate_many([child for child, _ in children])
        for child, rest in children:
            visit(child, rest)

    visit(RowPlacement.mesh(n), all_candidates)
    return ExactResult(
        placement=best["placement"],  # type: ignore[arg-type]
        energy=float(best["energy"]),  # type: ignore[arg-type]
        evaluations=memo.evaluations,
        states_visited=states["count"],
        wall_time_s=time.perf_counter() - start,
    )
