"""Incremental vs full objective pricing: the tentpole speedup claim.

One SA move prices one candidate placement.  The full path decodes the
connection matrix and runs a from-scratch directional Floyd-Warshall
(O(n^3)); the incremental engine applies the move's link diff as an
O(n^2) block rewrite.  This bench drives both over the *same* recorded
move sequence and reports moves/sec, asserting the engine's >= 3x
advantage at the paper's n = 16 scale -- with byte-identical energies,
so the speed is free.

Timing discipline: the two modes alternate in paired rounds and the
per-mode best-of-rounds is compared, which cancels the machine's slow
drift (turbo, thermal, background load) that a sequential A-then-B
layout folds into the ratio.
"""

import time
from collections import Counter

import numpy as np
import pytest

from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective
from repro.harness.tables import render_table

from benchmarks.conftest import SEED, publish, sa_effort

N = 16
LIMIT = 3
MOVES = 400
ROUNDS = 7


def record_walk(n, limit, moves, seed):
    """A reproducible SA-shaped walk: (matrix states, flip sites)."""
    rng = np.random.default_rng(seed)
    m = ConnectionMatrix.random(n, limit, rng=rng)
    sites = [m.random_move(rng) for _ in range(moves)]
    return m, sites


def run_full(start, sites, objective):
    """Full pricing: flip, decode, O(n^3) evaluate -- per move."""
    m = start.copy()
    energies = []
    t0 = time.perf_counter()
    for row, layer in sites:
        m.flip(row, layer)
        energies.append(objective(m.decode()))
    return time.perf_counter() - t0, energies


def run_incremental(start, sites, objective):
    """Engine pricing: flip diff -> O(n^2) block rewrite -- per move."""
    m = start.copy()
    evaluator = objective.incremental_evaluator(m.decode())
    engine = evaluator.engine
    counts = Counter(
        link
        for layer in range(m.bits.shape[1])
        for link in m.layer_links(layer)
    )
    energies = []
    t0 = time.perf_counter()
    for row, layer in sites:
        added, removed = m.flip_diff(row, layer)
        m.flip(row, layer)
        changes = []
        for link in removed:
            counts[link] -= 1
            if counts[link] == 0:
                changes.append((link[0], link[1], False))
        for link in added:
            counts[link] += 1
            if counts[link] == 1:
                changes.append((link[0], link[1], True))
        if changes:
            engine.apply_link_changes(changes)
        energies.append(evaluator.energy())
    return time.perf_counter() - t0, energies


@pytest.fixture(scope="module")
def paired_timing():
    objective = RowObjective()
    start, sites = record_walk(N, LIMIT, MOVES, SEED)
    best_full = best_incr = float("inf")
    full_energies = incr_energies = None
    for _ in range(ROUNDS):
        t, full_energies = run_full(start, sites, objective)
        best_full = min(best_full, t)
        t, incr_energies = run_incremental(start, sites, objective)
        best_incr = min(best_incr, t)
    return best_full, best_incr, full_energies, incr_energies


def test_energies_byte_identical(paired_timing):
    _, _, full_energies, incr_energies = paired_timing
    assert incr_energies == full_energies


def test_incremental_speedup(paired_timing, capsys):
    best_full, best_incr, _, _ = paired_timing
    speedup = best_full / best_incr
    rows = [
        ["full FW", f"{MOVES / best_full:,.0f}", f"{1e6 * best_full / MOVES:.1f}"],
        ["incremental", f"{MOVES / best_incr:,.0f}", f"{1e6 * best_incr / MOVES:.1f}"],
        ["speedup", f"{speedup:.2f}x", ""],
    ]
    publish(
        capsys,
        "bench_incremental_objective",
        render_table(
            f"Objective pricing, n={N}, C={LIMIT} "
            f"({MOVES} moves, best of {ROUNDS} paired rounds)",
            ["mode", "moves/sec", "us/move"],
            rows,
        ),
        record={
            "n": N,
            "C": LIMIT,
            "moves": MOVES,
            "full_wall_s": best_full,
            "incremental_wall_s": best_incr,
            "speedup": speedup,
        },
    )
    assert speedup >= 3.0, (
        f"incremental pricing only {speedup:.2f}x faster than full FW"
    )


def test_speedup_grows_with_n(capsys):
    """O(n^3) vs O(n^2): the gap must widen from n=8 to n=16."""
    if sa_effort() != "paper":
        pytest.skip("paper effort only")
    objective = RowObjective()
    ratios = {}
    for n in (8, 16):
        start, sites = record_walk(n, LIMIT, 200, SEED + n)
        best_full = best_incr = float("inf")
        for _ in range(5):
            best_full = min(best_full, run_full(start, sites, objective)[0])
            best_incr = min(
                best_incr, run_incremental(start, sites, objective)[0]
            )
        ratios[n] = best_full / best_incr
    assert ratios[16] > ratios[8]


def test_population_batched_pricing(capsys):
    """Batched ``evaluate_many`` vs a scalar pricing loop on one
    recorded population: byte-identical energies, and the measured
    throughput gain of replacing B kernel launches with one
    ``(B, n, n)`` row stack."""
    objective_scalar = RowObjective()
    objective_batched = RowObjective()
    rng = np.random.default_rng(SEED)
    population = [
        ConnectionMatrix.random(N, LIMIT, rng=rng).decode() for _ in range(MOVES)
    ]

    best_scalar = best_batched = float("inf")
    scalar_energies = batched_energies = None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        scalar_energies = [objective_scalar(p) for p in population]
        best_scalar = min(best_scalar, time.perf_counter() - t0)
        t0 = time.perf_counter()
        batched_energies = [
            float(v) for v in objective_batched.evaluate_many(population)
        ]
        best_batched = min(best_batched, time.perf_counter() - t0)

    assert batched_energies == scalar_energies

    speedup = best_scalar / best_batched
    rows = [
        ["scalar loop", f"{MOVES / best_scalar:,.0f}", f"{1e6 * best_scalar / MOVES:.1f}"],
        ["evaluate_many", f"{MOVES / best_batched:,.0f}", f"{1e6 * best_batched / MOVES:.1f}"],
        ["speedup", f"{speedup:.2f}x", ""],
    ]
    publish(
        capsys,
        "bench_population_pricing",
        render_table(
            f"Population pricing, n={N}, C={LIMIT} "
            f"({MOVES} placements, best of {ROUNDS} paired rounds)",
            ["mode", "placements/sec", "us/placement"],
            rows,
        ),
        record={
            "n": N,
            "C": LIMIT,
            "population": MOVES,
            "scalar_wall_s": best_scalar,
            "batched_wall_s": best_batched,
            "speedup": speedup,
        },
    )
    # The gate lives on the exhaustive / D&C benches (fig12 / fig7);
    # here raw pricing has no enumeration overhead to amortize, so any
    # regression below parity is the red flag.
    assert speedup >= 1.0, f"batched pricing slower than scalar ({speedup:.2f}x)"
