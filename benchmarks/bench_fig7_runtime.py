"""Figure 7: placement quality vs normalized runtime (OnlySA vs D&C_SA).

Both schemes get equal evaluation budgets; the x axis is normalized to
the cost of the divide-and-conquer initial process I(n, 4), exactly as
in the paper.  Times Procedure I(8,4) itself, the normalization unit.

Extension beyond the paper: the multi-restart sweep engine
(``optimize(..., restarts=R, jobs=K)``) is timed serial vs ``--jobs 4``
on the 16x16 sweep.  The placements must be byte-identical either way;
wall-clock speedup is asserted only when the host actually has >= 4
CPUs (a 1-core container cannot speed anything up, and the parity is
the load-bearing claim).
"""

import os
import time

import pytest

from repro.core.divide_conquer import initial_solution
from repro.core.latency import BandwidthConfig, RowObjective
from repro.api import SearchConfig
from repro.core.optimizer import optimize, solve_row_problem
from repro.harness.designs import EFFORTS
from repro.harness.runtime import fig7

from benchmarks.conftest import SEED, publish, sa_effort


@pytest.fixture(scope="module")
def curves():
    paper = sa_effort() == "paper"
    budgets = (1, 3, 10, 30, 100, 300, 1_000) if paper else (1, 10, 100)
    out = {8: fig7(8, link_limit=4, budgets=budgets, seed=SEED)}
    if paper:
        out[16] = fig7(16, link_limit=4, budgets=budgets, seed=SEED)
    return out


def test_fig7_initial_solution(benchmark, curves, capsys):
    text = "\n\n".join(c.render() for c in curves.values())
    publish(capsys, "fig7", text)

    for n, c in curves.items():
        dc_final = c.dc_sa[-1]
        only_final = c.only_sa[-1]
        # Final qualities are close; D&C_SA is never meaningfully worse.
        # (Divergence note, recorded in EXPERIMENTS.md: our OnlySA
        # shares the paper's valid-move generator *and* memoizes
        # evaluations, so unlike the paper's Figure 7 it can close most
        # of the gap at very large budgets.)
        assert dc_final <= only_final * 1.02
        # The paper's operative claim, time-to-quality: D&C_SA reaches
        # near-final quality at a budget no larger than OnlySA needs.
        assert c.budget_to_quality("dc_sa", 0.02) <= c.budget_to_quality(
            "only_sa", 0.02
        )

    benchmark.pedantic(
        lambda: initial_solution(8, 4, RowObjective()),
        rounds=5,
        iterations=1,
    )


def _timed_sweep(n, params, restarts, jobs):
    start = time.perf_counter()
    cfg = SearchConfig(seed=SEED, restarts=restarts, jobs=jobs)
    sweep = optimize(n, params=params, config=cfg).sweep
    return sweep, time.perf_counter() - start


def test_fig7_parallel_sweep_speedup(capsys):
    """Serial vs ``--jobs 4`` on the n=16 sweep: identical designs,
    and a real speedup wherever the host has the cores to show one."""
    paper = sa_effort() == "paper"
    n = 16 if paper else 8
    restarts = 4
    params = EFFORTS["quick" if paper else "smoke"]

    serial, t_serial = _timed_sweep(n, params, restarts, jobs=1)
    fanned, t_fanned = _timed_sweep(n, params, restarts, jobs=4)

    # The headline guarantee first: jobs is a wall-clock knob only.
    assert serial.best.placement == fanned.best.placement
    assert serial.best.placement.canonical_bytes() == (
        fanned.best.placement.canonical_bytes()
    )
    for c in serial.solutions:
        assert serial.solutions[c].placement == fanned.solutions[c].placement
        assert serial.solutions[c].energy == fanned.solutions[c].energy
    assert serial.restart_energies == fanned.restart_energies

    speedup = t_serial / t_fanned if t_fanned > 0 else float("inf")
    cores = os.cpu_count() or 1
    publish(
        capsys,
        "fig7_parallel",
        "\n".join(
            [
                f"parallel sweep speedup (n={n}, restarts={restarts}, "
                f"{cores} cpu core(s))",
                f"  serial (--jobs 1): {t_serial:8.2f} s",
                f"  fanned (--jobs 4): {t_fanned:8.2f} s",
                f"  speedup:           {speedup:8.2f}x",
                "  best placements byte-identical: yes",
            ]
        ),
    )
    if cores >= 4:
        assert speedup >= 3.0, (
            f"expected >= 3x speedup on {cores} cores, got {speedup:.2f}x"
        )


class FullFloydWarshall:
    """``RowObjective`` without its incremental evaluator: ``anneal``
    then decodes every candidate and prices each memo miss with a full
    Floyd-Warshall pass (the paper's walk).  ``evaluate_many`` is kept,
    so the D&C seed costs the same on both sides."""

    def __init__(self, objective):
        self._objective = objective

    def __call__(self, placement):
        return self._objective(placement)

    def evaluate_many(self, placements, folded=False):
        return self._objective.evaluate_many(placements, folded=folded)


def _timed_walk_sweep(n, params, objective):
    """Solve every searched C of the sweep; one chain per C."""
    limits = [c for c in BandwidthConfig().valid_link_limits(n) if c > 1]
    start = time.perf_counter()
    solutions = {
        c: solve_row_problem(
            n, c, objective=objective, params=params,
            config=SearchConfig(seed=SEED),
        ).solution
        for c in limits
    }
    return solutions, time.perf_counter() - start


def test_fig7_incremental_sweep_speedup(capsys):
    """Full-FW walk vs the default engine walk on the single-core sweep:
    ``anneal`` must return byte-identical trajectories -- placements,
    energies, evaluations, accepts and traces -- and the wall clock the
    engine walk saves is the second runtime extension beyond the paper
    (see ``bench_incremental_objective`` for the isolated kernel
    ratio)."""
    paper = sa_effort() == "paper"
    n = 16 if paper else 8
    params = EFFORTS["quick" if paper else "smoke"]

    objective = RowObjective()
    full, t_full = _timed_walk_sweep(n, params, FullFloydWarshall(objective))
    incr, t_incr = _timed_walk_sweep(n, params, objective)

    for c, sol in full.items():
        other = incr[c]
        assert other.placement == sol.placement
        assert other.energy == sol.energy
        assert other.evaluations == sol.evaluations
        assert other.annealing.trace == sol.annealing.trace
        assert other.annealing.accepted_moves == sol.annealing.accepted_moves

    speedup = t_full / t_incr if t_incr > 0 else float("inf")
    publish(
        capsys,
        "fig7_incremental",
        "\n".join(
            [
                f"engine-walk speedup (n={n}, full C sweep, "
                f"{params.total_moves} moves per C)",
                f"  full-FW walk:  {t_full:8.2f} s",
                f"  engine walk:   {t_incr:8.2f} s",
                f"  speedup:       {speedup:8.2f}x",
                "  trajectories byte-identical: yes",
            ]
        ),
        record={
            "n": n,
            "moves_per_c": params.total_moves,
            "full_wall_s": t_full,
            "engine_wall_s": t_incr,
            "speedup": speedup,
        },
    )
    if paper:
        assert speedup >= 2.0, (
            f"engine walk only {speedup:.2f}x faster end-to-end"
        )


def test_fig7_batched_divide_conquer(capsys):
    """Population-batched Procedure I(n, C): byte-identical seed
    placement, >= 3x throughput at the paper's n=16 bridging step.

    The combine step prices the base and all O(n^2) bridging
    candidates in one Floyd-Warshall stack; the scalar baseline
    (``batch_size=1``) prices them one by one.  Equal placement,
    energy and evaluation count make the speedup purely a kernel-launch
    economy.  Quick effort checks parity only.
    """
    paper = sa_effort() == "paper"
    n, c = (16, 4) if paper else (8, 4)
    rounds = 5 if paper else 1
    # One I(16,4) run is a few ms -- time a burst per round so the
    # comparison sits well above timer granularity, and alternate the
    # modes (paired rounds) to cancel slow machine drift.
    reps = 10 if paper else 1

    best_scalar = best_batched = float("inf")
    scalar = batched = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            scalar = initial_solution(n, c, RowObjective(), batch_size=1)
        best_scalar = min(best_scalar, (time.perf_counter() - t0) / reps)
        t0 = time.perf_counter()
        for _ in range(reps):
            batched = initial_solution(n, c, RowObjective())
        best_batched = min(best_batched, (time.perf_counter() - t0) / reps)

    assert batched.placement == scalar.placement
    assert batched.energy == scalar.energy
    assert batched.evaluations == scalar.evaluations

    speedup = best_scalar / best_batched
    publish(
        capsys,
        "fig7_batched_dc",
        "\n".join(
            [
                f"Procedure I({n},{c}), batched vs scalar combine "
                f"({batched.evaluations} evaluations, best of {rounds})",
                f"  scalar  (batch_size=1): {best_scalar:8.3f} s "
                f"({scalar.evaluations / best_scalar:,.0f} evals/sec)",
                f"  batched (default):      {best_batched:8.3f} s "
                f"({batched.evaluations / best_batched:,.0f} evals/sec)",
                f"  speedup:                {speedup:8.2f}x",
                "  seed placements byte-identical: yes",
            ]
        ),
        record={
            "n": n,
            "C": c,
            "evaluations": batched.evaluations,
            "scalar_wall_s": best_scalar,
            "batched_wall_s": best_batched,
            "speedup": speedup,
        },
    )
    if paper:
        assert speedup >= 3.0, (
            f"batched divide-and-conquer only {speedup:.2f}x faster"
        )
