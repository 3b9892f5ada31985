"""The naive SA candidate generator the paper argues against (Sec. 4.4.2).

    "A naive generator adds, deletes, stretches, or shortens a randomly
    selected link in each move.  However, a new candidate solution
    generated this way is highly likely to fall out of the feasible
    solution space."

This module implements exactly that baseline so the claim can be
measured: moves operate on the express-link set directly, and any move
that violates the cross-section limit is *rejected* (wasting the
attempt, as in the paper's argument).  The ablation benchmark compares
its progress per move against the connection-matrix SA, which never
generates an invalid candidate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.annealing import AnnealingParams, MemoizedObjective, Objective
from repro.topology.row import RowPlacement
from repro.util.rngtools import ensure_rng


@dataclass
class NaiveAnnealingResult:
    """Outcome of a naive-move annealing run."""

    best_placement: RowPlacement
    best_energy: float
    initial_energy: float
    evaluations: int
    proposed_moves: int
    invalid_moves: int
    accepted_moves: int
    wall_time_s: float
    trace: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def invalid_fraction(self) -> float:
        """Share of proposed moves that violated the constraints."""
        if self.proposed_moves == 0:
            return 0.0
        return self.invalid_moves / self.proposed_moves


def _propose(placement: RowPlacement, limit: int, rng) -> Optional[RowPlacement]:
    """One naive move: add, delete, stretch, or shorten a random link.

    Returns the candidate placement, or ``None`` when the move is
    invalid (constraint violation or structurally impossible) -- the
    paper's wasted attempt.
    """
    n = placement.n
    kind = int(rng.integers(4))
    links = sorted(placement.express_links)

    if kind == 0:  # add a random link
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        if abs(i - j) < 2:
            return None
        candidate = placement.with_link(i, j)
    elif kind == 1:  # delete a random link
        if not links:
            return None
        i, j = links[int(rng.integers(len(links)))]
        candidate = placement.without_link(i, j)
    else:  # stretch or shorten one endpoint of a random link
        if not links:
            return None
        i, j = links[int(rng.integers(len(links)))]
        delta = 1 if kind == 2 else -1
        if int(rng.integers(2)):  # move the right endpoint
            new = (i, j + delta)
        else:
            new = (i - delta, j)
        a, b = min(new), max(new)
        if a < 0 or b >= n or b - a < 2:
            return None
        candidate = placement.without_link(i, j).with_link(a, b)

    if not candidate.satisfies_limit(limit):
        return None
    return candidate


def naive_anneal(
    n: int,
    link_limit: int,
    objective: Objective,
    params: AnnealingParams | None = None,
    rng=None,
    initial: RowPlacement | None = None,
    max_evaluations: Optional[int] = None,
) -> NaiveAnnealingResult:
    """Simulated annealing with the naive link-move generator.

    Identical schedule and acceptance rule to :func:`repro.core.
    annealing.anneal`; only the move generator differs.  Invalid
    proposals consume a move (they are real wasted work in the naive
    scheme) but no objective evaluation.
    """
    params = params or AnnealingParams()
    gen = ensure_rng(rng)
    memo = MemoizedObjective(objective)
    start = time.perf_counter()

    current = initial if initial is not None else RowPlacement.mesh(n)
    current.validate(link_limit)
    current_energy = memo(current)
    best, best_energy = current, current_energy
    initial_energy = current_energy
    trace: List[Tuple[int, float]] = [(memo.evaluations, best_energy)]
    invalid = accepted = 0

    for move in range(params.total_moves):
        if max_evaluations is not None and memo.evaluations >= max_evaluations:
            break
        candidate = _propose(current, link_limit, gen)
        if candidate is None:
            invalid += 1
            continue
        energy = memo(candidate)
        delta = energy - current_energy
        if delta <= 0 or gen.random() < math.exp(-delta / params.temperature(move)):
            current, current_energy = candidate, energy
            accepted += 1
            if energy < best_energy:
                best, best_energy = candidate, energy
        trace.append((memo.evaluations, best_energy))

    trace.append((memo.evaluations, best_energy))
    return NaiveAnnealingResult(
        best_placement=best,
        best_energy=best_energy,
        initial_energy=initial_energy,
        evaluations=memo.evaluations,
        proposed_moves=params.total_moves if max_evaluations is None else move + 1,
        invalid_moves=invalid,
        accepted_moves=accepted,
        wall_time_s=time.perf_counter() - start,
        trace=trace,
    )
