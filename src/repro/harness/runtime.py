"""Figure 7: placement quality vs (normalized) runtime, OnlySA vs D&C_SA.

Runtime is measured in unique objective evaluations and normalized to
the cost of the divide-and-conquer initial process ``I(n, 4)``, exactly
as the paper normalizes its x-axis.  Both schemes run once with a
generous move budget while tracing best-so-far energy; the curves are
then sampled at the requested budget points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.annealing import AnnealingParams, anneal
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective
from repro.core.divide_conquer import initial_solution
from repro.harness.tables import render_series
from repro.util.rngtools import ensure_rng


@dataclass
class RuntimeCurves:
    """Best-energy-so-far of both schemes at shared budget points."""

    n: int
    link_limit: int
    unit_evaluations: int
    budgets: Tuple[float, ...]
    dc_sa: List[float]
    only_sa: List[float]

    def render(self) -> str:
        # Report total (2x row) head latency like the figure's y axis.
        return render_series(
            f"Figure 7 ({self.n}x{self.n}): avg head latency vs normalized runtime "
            f"(1 unit = I({self.n},{self.link_limit}) = {self.unit_evaluations} evals)",
            "runtime",
            [f"{b:g}" for b in self.budgets],
            {
                "D&C_SA": [2 * e for e in self.dc_sa],
                "OnlySA": [2 * e for e in self.only_sa],
            },
        )

    def budget_to_quality(self, scheme: str, tolerance: float = 0.01) -> float:
        """Smallest budget at which ``scheme`` is within ``tolerance``
        of the best final energy either scheme achieved.

        This is the time-to-quality view of Figure 7: the paper's point
        is that D&C_SA reaches good placements with far less runtime.
        Returns ``inf`` if the scheme never gets there.
        """
        import math

        curve = {"dc_sa": self.dc_sa, "only_sa": self.only_sa}[scheme]
        best = min(self.dc_sa[-1], self.only_sa[-1])
        threshold = best * (1.0 + tolerance)
        for budget, value in zip(self.budgets, curve):
            if not math.isnan(value) and value <= threshold:
                return budget
        return float("inf")


def _sample_trace(
    trace: Sequence[Tuple[int, float]],
    eval_points: Sequence[int],
    offset: int = 0,
) -> List[float]:
    """Best energy achieved by each evaluation budget (step function)."""
    out: List[float] = []
    best = trace[0][1]
    idx = 0
    for budget in eval_points:
        while idx < len(trace) and trace[idx][0] + offset <= budget:
            best = min(best, trace[idx][1])
            idx += 1
        out.append(best)
    return out


def fig7(
    n: int,
    link_limit: int = 4,
    budgets: Sequence[float] = (1, 3, 10, 30, 100, 300, 1_000),
    seed: int = 2019,
    rng=None,
) -> RuntimeCurves:
    """Compute the two quality-vs-runtime curves for one network size."""
    gen = ensure_rng(rng if rng is not None else seed)
    objective = RowObjective()

    seedsol = initial_solution(n, link_limit, objective)
    unit = max(seedsol.evaluations, 1)
    max_evals = int(max(budgets) * unit) + 1

    params = AnnealingParams(
        total_moves=max(10_000, 4 * max_evals),
        moves_per_cooldown=1_000,
    )

    dc_matrix = ConnectionMatrix.from_placement(seedsol.placement, link_limit)
    dc_run = anneal(dc_matrix, objective, params, rng=gen, max_evaluations=max_evals)

    only_matrix = ConnectionMatrix.random(n, link_limit, gen)
    only_run = anneal(only_matrix, objective, params, rng=gen, max_evaluations=max_evals)

    eval_points = [int(b * unit) for b in budgets]
    # D&C_SA already spent `unit` evaluations on the seed; shift its
    # trace right by that cost so the comparison is runtime-fair.
    dc_curve = _sample_trace(dc_run.trace, eval_points, offset=unit)
    # Budgets smaller than the seed cost: D&C_SA has only the seed's
    # ancestors; report the seed energy once the budget covers it.
    for i, b in enumerate(eval_points):
        if b < unit:
            dc_curve[i] = float("nan")
    only_curve = _sample_trace(only_run.trace, eval_points)
    return RuntimeCurves(
        n=n,
        link_limit=link_limit,
        unit_evaluations=unit,
        budgets=tuple(float(b) for b in budgets),
        dc_sa=dc_curve,
        only_sa=only_curve,
    )
