"""Pareto co-design fronts: size, hypervolume and pricing throughput.

Sweeps the latency/power front for the paper's 8x8 mesh across
C in {2, 3, 4} under uniform and PARSEC-modeled (blackscholes)
traffic, publishing front size and hypervolume per scenario as the
machine-readable twin -- the regression signal for the multi-objective
layer (a shrinking hypervolume at fixed seed and budget means the
search got worse).  Times the batched vector-pricing kernel.

``test_drivers_against_exact_fronts`` checks both front drivers
against the true front of two instances small enough to price whole,
P(8,4) and P(16,2) (every distinct placement, unfolded), and publishes
per driver the exact points found and the hypervolume ratio as the
``pareto_exact`` twin.
"""

import dataclasses
import time

import pytest

from repro.api import PARETO_DRIVERS, SearchConfig
from repro.core.annealing import AnnealingParams
from repro.core.connection_matrix import iter_unique_blocks
from repro.core.pareto import (
    ParetoPoint,
    ParetoPricer,
    ParetoSpec,
    nondominated,
    pareto_front,
)
from repro.harness.tables import render_table
from repro.topology.row import RowPlacement
from repro.traffic.parsec import PARSEC_WORKLOADS, workload_gamma

from benchmarks.conftest import SEED, publish, sa_effort

LIMITS = (2, 3, 4)


@pytest.fixture(scope="module")
def fronts():
    paper = sa_effort() == "paper"
    params = (
        None if paper
        else AnnealingParams(total_moves=1_500, moves_per_cooldown=300)
    )
    config = SearchConfig(seed=SEED)
    scenarios = {}
    for traffic in ("uniform", "blackscholes"):
        gamma = (
            None if traffic == "uniform"
            else workload_gamma(PARSEC_WORKLOADS[traffic], 8)
        )
        scenarios[traffic] = {
            c: pareto_front(
                8, c, objectives=("latency", "power"), driver="epsilon",
                gamma=gamma, params=params, config=config,
                points=5 if paper else 2,
            )
            for c in LIMITS
        }
    return scenarios


def test_pareto_fronts(benchmark, fronts, capsys):
    rows = []
    record = {"n": 8, "objectives": ["latency", "power"], "scenarios": {}}
    for traffic, per_c in fronts.items():
        for c, front in sorted(per_c.items()):
            hv = front.hypervolume()
            rows.append([
                traffic, c, len(front.points), front.evaluations,
                f"{hv:.6g}",
                f"{min(p.values[0] for p in front.points):.4f}",
                f"{min(p.values[1] for p in front.points):.4f}",
            ])
            record["scenarios"].setdefault(traffic, {})[str(c)] = {
                "front_size": len(front.points),
                "evaluations": front.evaluations,
                "hypervolume": hv,
                "best_latency": min(p.values[0] for p in front.points),
                "best_power_w": min(p.values[1] for p in front.points),
            }
    text = render_table(
        "8x8 latency/power Pareto fronts (epsilon driver)",
        ["traffic", "C", "front", "priced", "hypervolume",
         "best L_D", "best W"],
        rows,
    )
    publish(capsys, "pareto_fronts", text, record)

    for per_c in fronts.values():
        for front in per_c.values():
            assert front.points
            # A real tradeoff: more than one nondominated point, and
            # the dominated volume is nonzero.
            assert len(front.points) >= 2
            assert front.hypervolume() > 0

    spec = ParetoSpec(
        n=8, link_limit=2, objectives=("latency", "power"),
    )
    population = [RowPlacement.mesh(8)] + [
        RowPlacement(8, frozenset({(0, k)})) for k in range(2, 8)
    ]

    def price_cold():
        ParetoPricer(spec).price_many(population)

    benchmark(price_cold)


#: Instances whose every placement is priced for the exact front.
EXACT_INSTANCES = ((8, 4), (16, 2))
AXES = ("latency", "power")


def _exact_points(n, c):
    """The true latency/power front of P(n, C): every distinct placement
    (mirror images apart, since power prices them apart) priced."""
    pricer = ParetoPricer(ParetoSpec(n=n, link_limit=c, objectives=AXES))
    for block in iter_unique_blocks(n, c, fold=False):
        pricer.price_many(list(block))
    front = nondominated(
        (values, key) for key, values in pricer.archive.items()
    )
    return pricer.evaluations, tuple(
        ParetoPoint(placement=RowPlacement.from_canonical_bytes(key),
                    values=values)
        for values, key in front
    )


def _found(exact, front):
    """Exact points ``front`` reports, each axis within 1e-12 relative."""
    return sum(
        any(all(abs(a - b) <= 1e-12 * max(abs(a), abs(b))
                for a, b in zip(point.values, other.values))
            for other in front.points)
        for point in exact
    )


def test_drivers_against_exact_fronts(capsys):
    paper = sa_effort() == "paper"
    params = (
        None if paper
        else AnnealingParams(total_moves=1_500, moves_per_cooldown=300)
    )
    rows = []
    record = {"objectives": list(AXES), "seed": SEED, "instances": {}}
    for n, c in EXACT_INSTANCES:
        start = time.perf_counter()
        classes, exact_points = _exact_points(n, c)
        price_s = time.perf_counter() - start
        entry = record["instances"][f"P({n},{c})"] = {
            "classes": classes, "exact_points": len(exact_points),
            "price_all_s": price_s, "drivers": {},
        }
        for driver in PARETO_DRIVERS:
            start = time.perf_counter()
            front = pareto_front(n, c, objectives=AXES, driver=driver,
                                 params=params,
                                 config=SearchConfig(seed=SEED))
            wall = time.perf_counter() - start
            # The exact front in the drivers' own type: its default
            # reference is the one every hypervolume here is taken at.
            exact = dataclasses.replace(front, points=exact_points,
                                        method="exact", evaluations=classes)
            reference = exact.default_reference()
            found = _found(exact_points, front)
            hv_ratio = (front.hypervolume(reference)
                        / exact.hypervolume(reference))
            entry["drivers"][driver] = {
                "evaluations": front.evaluations, "wall_s": wall,
                "found": found, "hv_ratio": hv_ratio,
            }
            rows.append([f"P({n},{c})", classes, len(exact_points), driver,
                         front.evaluations, f"{wall:.1f}",
                         f"{found}/{len(exact_points)}", f"{hv_ratio:.4f}"])
            if paper and driver == "epsilon":
                assert found == len(exact_points), (n, c, found)
            assert hv_ratio <= 1.0 + 1e-12
    text = render_table(
        "latency/power fronts against the exact front (uniform traffic)",
        ["instance", "classes", "exact", "driver", "priced", "wall s",
         "found", "HV ratio"],
        rows,
    )
    publish(capsys, "pareto_exact", text, record)
