"""Figure 8: synthetic-traffic latency and saturation throughput.

Panel (a): average packet latency at a representative low load for
uniform random (UR), transpose (TP) and bit-reverse (BR).

Panel (b): saturation throughput, measured by sweeping the injection
rate geometrically until the network saturates -- average latency
exceeding ``saturation_factor`` times the low-load latency, or the
measurement window failing to drain -- and reporting the largest
*accepted* throughput (packets/cycle network-wide) before that point.
The paper's qualitative result: Mesh highest, HFB less than half of
Mesh (quadrant-seam bottleneck), D&C_SA recovering most of the gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.designs import SchemeDesign, reference_designs
from repro.harness.tables import pct_change, render_table
from repro.sim.campaign import JobResult, SimJob, TrafficSpec, run_until
from repro.sim.config import SimConfig
from repro.traffic.patterns import PAPER_PATTERNS

PATTERN_LABELS = {"uniform_random": "UR", "transpose": "TP", "bit_reverse": "BR"}


@dataclass
class SyntheticCell:
    latency: float
    saturation_throughput: float
    sweep: Tuple[Tuple[float, float, float], ...]  # (rate, accepted, latency)


@dataclass
class Fig8Result:
    n: int
    patterns: Tuple[str, ...]
    schemes: Tuple[str, ...]
    cells: Dict[Tuple[str, str], SyntheticCell] = field(default_factory=dict)

    def avg_latency(self, scheme: str) -> float:
        vals = [self.cells[(p, scheme)].latency for p in self.patterns]
        return sum(vals) / len(vals)

    def avg_throughput(self, scheme: str) -> float:
        vals = [self.cells[(p, scheme)].saturation_throughput for p in self.patterns]
        return sum(vals) / len(vals)

    def render(self) -> str:
        lat_rows, thr_rows = [], []
        for p in self.patterns + ("Avg",):
            label = PATTERN_LABELS.get(p, p)
            if p == "Avg":
                lat_rows.append([label, *(self.avg_latency(s) for s in self.schemes)])
                thr_rows.append([label, *(self.avg_throughput(s) for s in self.schemes)])
            else:
                lat_rows.append([label, *(self.cells[(p, s)].latency for s in self.schemes)])
                thr_rows.append(
                    [label, *(self.cells[(p, s)].saturation_throughput for s in self.schemes)]
                )
        a = render_table(
            f"Figure 8a ({self.n}x{self.n}): avg packet latency (cycles)",
            ["pattern", *self.schemes],
            lat_rows,
        )
        b = render_table(
            f"Figure 8b ({self.n}x{self.n}): saturation throughput (packets/cycle)",
            ["pattern", *self.schemes],
            thr_rows,
            digits=3,
        )
        mesh_t = self.avg_throughput("Mesh")
        dc_t = self.avg_throughput("D&C_SA")
        lines = [
            f"latency D&C_SA vs Mesh: -{pct_change(self.avg_latency('D&C_SA'), self.avg_latency('Mesh')):.1f}%",
            f"D&C_SA throughput / Mesh: {dc_t / mesh_t:.2f}",
        ]
        if "HFB" in self.schemes:
            hfb_t = self.avg_throughput("HFB")
            lines.insert(
                1,
                f"latency D&C_SA vs HFB: -{pct_change(self.avg_latency('D&C_SA'), self.avg_latency('HFB')):.1f}%",
            )
            lines.append(f"D&C_SA throughput / HFB: {dc_t / max(hfb_t, 1e-12):.2f}")
        return a + "\n" + b + "\n" + " | ".join(lines)


def _cell_latency(res: JobResult) -> float:
    s = res.run.summary
    return s.avg_network_latency if s.packets else float("inf")


def _sweep_rates(n: int, low_rate: float, rate_step: float) -> List[float]:
    """Geometric rate ladder, capped at 0.75 packets/node/cycle."""
    rates = [low_rate]
    rate = low_rate
    while True:
        rate *= rate_step
        if rate / (n * n) > 0.75:
            return rates
        rates.append(rate)


def fig8(
    n: int = 8,
    patterns: Sequence[str] = PAPER_PATTERNS,
    designs: Optional[Sequence[SchemeDesign]] = None,
    seed: int = 2019,
    effort: str = "paper",
    low_rate: float = 1.0,
    saturation_factor: float = 3.0,
    rate_step: float = 1.4,
    warmup: int = 300,
    measure: int = 1_500,
    jobs: int = 1,
) -> Fig8Result:
    """Run the synthetic campaign.

    ``low_rate`` is the aggregate packets/cycle for panel (a); the
    throughput sweep starts there and multiplies by ``rate_step`` until
    saturation.  Each (design, pattern) sweep runs on the campaign
    engine in speculative waves of ``jobs`` simulations with the
    saturation stop applied in rate order, so ``jobs > 1`` changes wall
    clock only, never the tables.
    """
    designs = tuple(designs or reference_designs(n, seed=seed, effort=effort))
    result = Fig8Result(
        n=n, patterns=tuple(patterns), schemes=tuple(d.name for d in designs)
    )
    rates = _sweep_rates(n, low_rate, rate_step)
    for design in designs:
        config = SimConfig(
            flit_bits=design.point.flit_bits,
            warmup_cycles=warmup,
            measure_cycles=measure,
            max_cycles=warmup + measure + 6_000,
            seed=seed,
        )
        for p in patterns:
            grid = [
                SimJob(
                    design=design,
                    traffic=TrafficSpec(
                        kind="synthetic", pattern=p, rate=min(rate, float(n * n))
                    ),
                    config=config,
                    seed=seed,
                    key=(p, rate),
                )
                for rate in rates
            ]

            base: List[float] = []

            def stop(res: JobResult) -> bool:
                latency = _cell_latency(res)
                if not base:
                    # The low-load anchor point never stops the sweep;
                    # it only sets the saturation reference.
                    base.append(latency)
                    return False
                return (
                    not res.run.drained
                    or latency > saturation_factor * base[0]
                )

            campaign = run_until(grid, stop, jobs=jobs)
            sweep = [
                (job.key[1], res.run.summary.throughput_packets_per_cycle,
                 _cell_latency(res))
                for job, res in zip(campaign.jobs, campaign.results)
            ]
            first = campaign.results[0]
            best_thr = (
                first.run.summary.throughput_packets_per_cycle
                if first.run.drained else 0.0
            )
            for _, thr, _lat in sweep[1:]:
                if thr > best_thr:
                    best_thr = thr
            result.cells[(p, design.name)] = SyntheticCell(
                latency=base[0],
                saturation_throughput=best_thr,
                sweep=tuple(sweep),
            )
    return result
