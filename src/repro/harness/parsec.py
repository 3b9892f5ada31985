"""Figures 6 and 9: the PARSEC campaign (latency + power per benchmark).

One cycle-accurate simulation per (benchmark, scheme) pair; the same
runs feed both the latency comparison (Figure 6) and the power
comparison (Figure 9), so the campaign executes once and both tables
render from its result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.harness.designs import SchemeDesign, reference_designs
from repro.harness.tables import pct_change, render_table
from repro.power.model import PowerReport, power_report
from repro.sim.campaign import SimJob, TrafficSpec, run_campaign
from repro.sim.config import SimConfig
from repro.sim.stats import LatencySummary
from repro.traffic.parsec import PARSEC_NAMES


@dataclass
class CampaignCell:
    """Result of one (benchmark, scheme) simulation."""

    benchmark: str
    scheme: str
    latency: LatencySummary
    power: PowerReport
    cycles: int
    drained: bool


@dataclass
class CampaignResult:
    """All cells of the PARSEC campaign for one network size."""

    n: int
    benchmarks: Tuple[str, ...]
    schemes: Tuple[str, ...]
    cells: Dict[Tuple[str, str], CampaignCell] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def latency_of(self, benchmark: str, scheme: str) -> float:
        return self.cells[(benchmark, scheme)].latency.avg_network_latency

    def average_latency(self, scheme: str) -> float:
        vals = [self.latency_of(b, scheme) for b in self.benchmarks]
        return sum(vals) / len(vals)

    def total_power(self, scheme: str) -> float:
        vals = [self.cells[(b, scheme)].power.total_w for b in self.benchmarks]
        return sum(vals) / len(vals)

    def dynamic_power(self, scheme: str) -> float:
        vals = [self.cells[(b, scheme)].power.dynamic_w for b in self.benchmarks]
        return sum(vals) / len(vals)

    def static_power(self, scheme: str) -> float:
        vals = [self.cells[(b, scheme)].power.static.total_w for b in self.benchmarks]
        return sum(vals) / len(vals)

    # ------------------------------------------------------------------
    def render_fig6(self) -> str:
        rows = []
        for b in self.benchmarks + ("average",):
            if b == "average":
                vals = [self.average_latency(s) for s in self.schemes]
            else:
                vals = [self.latency_of(b, s) for s in self.schemes]
            rows.append([b, *vals])
        table = render_table(
            f"Figure 6 ({self.n}x{self.n}): avg packet latency per PARSEC benchmark (cycles)",
            ["benchmark", *self.schemes],
            rows,
        )
        base = self.average_latency("Mesh")
        hfb = self.average_latency("HFB") if "HFB" in self.schemes else None
        dc = self.average_latency("D&C_SA")
        extra = f"D&C_SA vs Mesh: -{pct_change(dc, base):.1f}%"
        if hfb is not None:
            extra += f" | vs HFB: -{pct_change(dc, hfb):.1f}%"
        return table + "\n" + extra

    def render_fig9(self) -> str:
        rows = []
        base = self.total_power("Mesh")
        for b in self.benchmarks + ("average",):
            row: list = [b]
            for s in self.schemes:
                if b == "average":
                    stat, dyn = self.static_power(s), self.dynamic_power(s)
                else:
                    cell = self.cells[(b, s)]
                    stat, dyn = cell.power.static.total_w, cell.power.dynamic_w
                row.extend([stat / base, dyn / base])
            rows.append(row)
        headers = ["benchmark"]
        for s in self.schemes:
            headers.extend([f"{s}(s)", f"{s}(d)"])
        table = render_table(
            f"Figure 9 ({self.n}x{self.n}): router power, normalized to Mesh total",
            headers,
            rows,
            digits=3,
        )
        dc_total = self.total_power("D&C_SA")
        dc_dyn = self.dynamic_power("D&C_SA")
        lines = [
            f"total power D&C_SA vs Mesh: -{pct_change(dc_total, base):.1f}%",
            f"dynamic power D&C_SA vs Mesh: -{pct_change(dc_dyn, self.dynamic_power('Mesh')):.1f}%",
            f"static share of total (Mesh): {self.static_power('Mesh') / base * 100:.0f}%",
        ]
        if "HFB" in self.schemes:
            lines.insert(1, f"total power D&C_SA vs HFB: -{pct_change(dc_total, self.total_power('HFB')):.1f}%")
        return table + "\n" + " | ".join(lines)


def parsec_campaign(
    n: int = 8,
    benchmarks: Optional[Sequence[str]] = None,
    designs: Optional[Sequence[SchemeDesign]] = None,
    seed: int = 2019,
    effort: str = "paper",
    warmup_cycles: int = 500,
    measure_cycles: int = 2_000,
    rate_scale: float = 1.0,
    jobs: int = 1,
) -> CampaignResult:
    """Run the full campaign and return all cells.

    The (design, benchmark) grid is fully static, so it fans straight
    out over ``jobs`` processes via the campaign engine; cells are
    identical for every ``jobs`` value (each cell's traffic seed is
    ``seed + benchmark_index``, a pure function of the grid
    coordinates).
    """
    benchmarks = tuple(benchmarks or PARSEC_NAMES)
    designs = tuple(designs or reference_designs(n, seed=seed, effort=effort))
    result = CampaignResult(
        n=n, benchmarks=benchmarks, schemes=tuple(d.name for d in designs)
    )
    grid = []
    for design in designs:
        config = SimConfig(
            flit_bits=design.point.flit_bits,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            max_cycles=max(50_000, 20 * (warmup_cycles + measure_cycles)),
            seed=seed,
        )
        for bench_i, bench in enumerate(benchmarks):
            grid.append(SimJob(
                design=design,
                traffic=TrafficSpec(
                    kind="parsec", workload=bench, rate=rate_scale
                ),
                config=config,
                seed=seed + bench_i,
                key=(bench, design.name),
            ))
    campaign = run_campaign(grid, jobs=jobs)
    for job, res in zip(campaign.jobs, campaign.results):
        bench, scheme = job.key
        run = res.run
        result.cells[(bench, scheme)] = CampaignCell(
            benchmark=bench,
            scheme=scheme,
            latency=run.summary,
            power=power_report(
                job.design.topology, job.config, run.activity, run.cycles_run
            ),
            cycles=run.cycles_run,
            drained=run.drained,
        )
    return result
