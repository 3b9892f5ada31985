"""Load-latency curves: the standard NoC characterization sweep.

Sweeps offered load for one design and traffic pattern, recording
accepted throughput and average latency at each point -- the raw data
behind Figure 8 and behind any saturation claim.  Exposed as a library
API so users can characterize their own placements.

Runs on the campaign engine (:mod:`repro.sim.campaign`): the rate
sweep becomes a job list executed in speculative waves of ``jobs``
simulations, with the early-stop predicate applied in rate order -- so
``jobs=K`` returns the identical curve to the serial sweep, just
faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.harness.designs import SchemeDesign
from repro.harness.tables import render_table
from repro.sim.campaign import JobResult, SimJob, TrafficSpec, run_until
from repro.sim.config import SimConfig


@dataclass(frozen=True)
class LoadPoint:
    """One point of a load-latency curve."""

    offered_packets_per_cycle: float
    accepted_packets_per_cycle: float
    avg_latency: float
    drained: bool

    @property
    def saturated(self) -> bool:
        return not self.drained


@dataclass
class LoadCurve:
    """A full sweep for one (design, pattern) pair."""

    scheme: str
    pattern: str
    n: int
    points: Tuple[LoadPoint, ...]

    @property
    def zero_load_latency(self) -> float:
        return self.points[0].avg_latency

    def saturation_throughput(self, latency_factor: float = 3.0) -> float:
        """Largest accepted throughput before latency blows up."""
        best = 0.0
        for p in self.points:
            if p.saturated or p.avg_latency > latency_factor * self.zero_load_latency:
                break
            best = max(best, p.accepted_packets_per_cycle)
        return best

    def render(self) -> str:
        rows = [
            [
                p.offered_packets_per_cycle,
                p.accepted_packets_per_cycle,
                p.avg_latency,
                "saturated" if p.saturated else "",
            ]
            for p in self.points
        ]
        return render_table(
            f"Load-latency curve: {self.scheme}, {self.pattern} ({self.n}x{self.n})",
            ["offered (pkt/cyc)", "accepted", "latency", ""],
            rows,
            digits=3,
        )


def _point_latency(res: JobResult) -> float:
    s = res.run.summary
    return s.avg_network_latency if s.packets else float("inf")


def load_latency_curve(
    design: SchemeDesign,
    pattern: str = "uniform_random",
    rates: Optional[Sequence[float]] = None,
    seed: int = 2019,
    warmup: int = 300,
    measure: int = 1_000,
    stop_after_saturation: bool = True,
    latency_factor: float = 3.0,
    jobs: int = 1,
) -> LoadCurve:
    """Sweep offered load (aggregate packets/cycle) for one design.

    Every rate reuses the same traffic seed (paired-sample sweeps: the
    injection *pattern* stays fixed while only the rate moves), and
    with ``stop_after_saturation`` the sweep stops at the first
    saturated point -- applied in rate order, so ``jobs > 1`` is a pure
    wall-clock knob.
    """
    n = design.point.n
    if rates is None:
        rates = [0.5 * (1.5 ** k) for k in range(10)]
    cfg = SimConfig(
        flit_bits=design.point.flit_bits,
        warmup_cycles=warmup,
        measure_cycles=measure,
        max_cycles=warmup + measure + 6_000,
        seed=seed,
    )
    grid: List[SimJob] = []
    for rate in rates:
        if rate / (n * n) > 1.0:
            break
        grid.append(SimJob(
            design=design,
            traffic=TrafficSpec(kind="synthetic", pattern=pattern, rate=rate),
            config=cfg,
            seed=seed,
            key=(pattern, rate),
        ))

    zero_load: List[float] = []

    def stop(res: JobResult) -> bool:
        latency = _point_latency(res)
        if not zero_load:
            zero_load.append(latency)
        if not stop_after_saturation:
            return False
        return (not res.run.drained) or latency > latency_factor * zero_load[0]

    campaign = run_until(grid, stop, jobs=jobs)
    points = [
        LoadPoint(
            offered_packets_per_cycle=job.traffic.rate,
            accepted_packets_per_cycle=res.run.summary.throughput_packets_per_cycle,
            avg_latency=_point_latency(res),
            drained=res.run.drained,
        )
        for job, res in zip(campaign.jobs, campaign.results)
    ]
    return LoadCurve(
        scheme=design.name,
        pattern=pattern,
        n=n,
        points=tuple(points),
    )
