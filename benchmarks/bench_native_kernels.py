"""Native vs vectorized kernel tiers: the compiled-hot-path claim.

The ``"native"`` tier -- the default wherever its C kernels load --
replaces the NumPy row Floyd-Warshall relaxation (which materializes a
``(B, k, n - k - 1)`` broadcast temporary per pivot ``k``), the
next-hop pass and the incremental engine's link-diff update with
compiled loops.  This bench times the two tiers over identical inputs
on a grid of problem scales and asserts the headline: **>= 3x on at
least one n >= 32 leg**, with byte-identical outputs on every leg, so
the speed is free.  The ``engine_walk`` leg prices a recorded
SA-shaped walk (one link diff per move, the annealer's memo-miss path)
through the engine on each twin (its ``B`` column counts the walk's
moves): one compiled call per diff against the NumPy block rewrites.

Timing discipline mirrors ``bench_incremental_objective``: tiers
alternate in paired best-of rounds to cancel machine drift, and the
native library is warmed up (one-time C build and load) *before* any
timed region, so compile time is excluded by construction -- the same
contract the runtime seam keeps via per-worker ``native.warmup()``.

Skipped wholesale when the native tier is unavailable (no C
toolchain).
"""

import time

import numpy as np
import pytest

from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective
from repro.harness.tables import render_table
from repro.routing import native
from repro.routing.impls import available_impls
from repro.routing.shortest_path import (
    HopCostModel,
    batched_mean_distances,
    floyd_warshall_batch,
    row_distances_batch,
    weight_stack,
    weight_stack_population,
)

from benchmarks.bench_incremental_objective import record_walk, run_incremental
from benchmarks.conftest import SEED, publish, sa_effort

pytestmark = pytest.mark.skipif(
    "native" not in available_impls(),
    reason="native tier unavailable (no C toolchain)",
)

#: (n, B) legs for the row Floyd-Warshall stacks; the paper-effort grid
#: covers the claim's n >= 32 scales, quick keeps CI cheap.
PAPER_GRID = [(16, 64), (16, 256), (32, 64), (32, 256), (64, 64), (64, 256)]
QUICK_GRID = [(16, 64), (32, 64)]

ROUNDS = 5


def grid():
    return PAPER_GRID if sa_effort() == "paper" else QUICK_GRID


def rounds():
    return ROUNDS if sa_effort() == "paper" else 2


def random_stack(n, b, seed):
    """A population-shaped ``(B, n, n)`` left-to-right weight stack."""
    rng = np.random.default_rng(seed)
    pop = [
        ConnectionMatrix.random(n, 4, rng).decode() for _ in range(b)
    ]
    return weight_stack_population(pop, HopCostModel()), pop


def paired_best(run_native, run_vectorized):
    """Best-of paired rounds; returns (native_s, vectorized_s, outputs)."""
    best_nat = best_vec = float("inf")
    out_nat = out_vec = None
    for _ in range(rounds()):
        t0 = time.perf_counter()
        out_nat = run_native()
        best_nat = min(best_nat, time.perf_counter() - t0)
        t0 = time.perf_counter()
        out_vec = run_vectorized()
        best_vec = min(best_vec, time.perf_counter() - t0)
    return best_nat, best_vec, out_nat, out_vec


@pytest.fixture(scope="module", autouse=True)
def warm_backend():
    # The one-time C build happens here, outside every timed region.
    native.warmup()


@pytest.fixture(scope="module")
def fw_legs():
    legs = []
    for n, b in grid():
        stack, pop = random_stack(n, b, SEED + n + b)
        nat_s, vec_s, d_nat, d_vec = paired_best(
            lambda: row_distances_batch(stack, impl="native"),
            lambda: row_distances_batch(stack, impl="vectorized"),
        )
        assert np.array_equal(d_nat, d_vec), f"distance mismatch n={n} B={b}"
        legs.append(("row_dist", n, b, nat_s, vec_s))

        # Next hops still take both directional passes (one placement).
        pair = weight_stack(pop[0], HopCostModel())
        nat_s, vec_s, p_nat, p_vec = paired_best(
            lambda: floyd_warshall_batch(pair, impl="native"),
            lambda: floyd_warshall_batch(pair, impl="vectorized"),
        )
        assert np.array_equal(p_nat[0], p_vec[0])
        assert np.array_equal(p_nat[1], p_vec[1]), f"next-hop mismatch n={n}"
        legs.append(("fw_nexthop", n, 1, nat_s, vec_s))
    return legs


def population_leg():
    """Whole-population pricing through ``batched_mean_distances``."""
    n, b = (32, 64) if sa_effort() == "paper" else (16, 64)
    _, pop = random_stack(n, b, SEED + 7)
    nat_s, vec_s, m_nat, m_vec = paired_best(
        lambda: batched_mean_distances(pop, impl="native"),
        lambda: batched_mean_distances(pop, impl="vectorized"),
    )
    assert np.array_equal(m_nat, m_vec), "population means diverge"
    return "population", n, b, nat_s, vec_s


def engine_walk_leg():
    """A recorded SA-shaped walk priced by the engine on each twin."""
    moves = 400 if sa_effort() == "paper" else 100
    start, sites = record_walk(16, 4, moves, SEED)
    nat_s, vec_s, e_nat, e_vec = paired_best(
        lambda: run_incremental(start, sites, RowObjective(impl="native")),
        lambda: run_incremental(start, sites, RowObjective(impl="vectorized")),
    )
    assert e_nat[1] == e_vec[1], "engine walk energies diverge"
    return "engine_walk", 16, moves, nat_s, vec_s


def test_native_kernel_speedups(fw_legs, capsys):
    legs = list(fw_legs)
    legs.append(population_leg())
    legs.append(engine_walk_leg())

    rows, record_legs = [], []
    for kind, n, b, nat_s, vec_s in legs:
        speedup = vec_s / nat_s
        rows.append([
            kind, str(n), str(b),
            f"{1e3 * vec_s:.2f}", f"{1e3 * nat_s:.2f}", f"{speedup:.2f}x",
        ])
        record_legs.append({
            "kind": kind, "n": n, "B": b,
            "vectorized_wall_s": vec_s, "native_wall_s": nat_s,
            "speedup": speedup,
        })

    publish(
        capsys,
        "bench_native_kernels",
        render_table(
            f"Native ({native.backend_name()}) vs vectorized kernels "
            f"(best of {rounds()} paired rounds, byte-identical outputs)",
            ["leg", "n", "B", "numpy ms", "native ms", "speedup"],
            rows,
        ),
        record={"backend": native.backend_name(), "legs": record_legs},
    )

    big = [leg for leg in record_legs if leg["n"] >= 32]
    assert big, "grid must include an n >= 32 leg"
    best = max(leg["speedup"] for leg in big)
    assert best >= 3.0, (
        f"native tier only {best:.2f}x faster at n >= 32 "
        f"(backend {native.backend_name()})"
    )


def test_outputs_identical_on_every_grid_point(capsys):
    """Identity is asserted on all legs even if timing ever regresses."""
    for n, b in grid():
        stack, _ = random_stack(n, min(b, 32), SEED - n)
        assert np.array_equal(
            row_distances_batch(stack, impl="native"),
            row_distances_batch(stack, impl="vectorized"),
        )
