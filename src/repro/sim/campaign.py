"""Parallel simulation campaigns: a job grid fanned over processes.

A campaign is a list of :class:`SimJob` value objects -- (design,
traffic spec, sim config, seed) -- executed by the same order-preserving
process-pool machinery as the parallel search engine
(:func:`repro.core.parallel.parallel_map`).  The determinism rules are
identical and give the same headline guarantee, enforced by the parity
suite: for a fixed seed, a campaign returns bit-identical results for
every ``jobs`` value.

* **Jobs are pure functions of their fields.**  A job carries its own
  integer traffic seed (grid builders derive one per job from the base
  seed via ``SeedSequence`` spawn keys -- see
  :func:`repro.util.rngtools.derive_seed_sequence`), so it computes the
  same run whether it executes inline, first, last, or on any worker.
* **Deterministic ordering.**  Results come back in job order
  regardless of completion order.
* **Ordered observability merging.**  Each worker records events into
  its own ``MemorySink`` and metrics into its own registry; the parent
  replays events and merges metric snapshots in job order.

Adaptive sweeps (load-latency curves, saturation searches) that decide
whether to continue based on earlier results use
:func:`run_until` -- speculative waves of ``jobs`` runs with the stop
predicate applied in job order, so early-stopping sweeps parallelize
without changing which runs contribute to the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.parallel import _merge_observability, parallel_map
from repro.obs.instrument import Instrumentation, ensure_obs
from repro.obs.sinks import MemorySink
from repro.sim.config import SimConfig
from repro.sim.engine import RunResult, Simulator
from repro.traffic.injection import SyntheticTraffic, TraceTraffic
from repro.traffic.parsec import parsec_traffic
from repro.traffic.patterns import make_pattern
from repro.util.errors import ConfigurationError
from repro.util.rngtools import derive_seed_sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids a
    # runtime cycle: harness drivers import this module).
    from repro.harness.designs import SchemeDesign


def derive_job_seed(base_seed: int, *key: int) -> int:
    """One 64-bit traffic seed, a pure function of ``(base_seed, key)``."""
    seq = derive_seed_sequence(int(base_seed), *key)
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class TrafficSpec:
    """A picklable description of one traffic generator.

    Jobs cannot carry live generators (RNG state is not a value), so
    they carry this spec and the worker builds the generator from
    ``(spec, seed)``.  ``rate`` is the *aggregate* offered load in
    packets/cycle network-wide for ``synthetic`` (the harness
    convention; divided by ``n**2`` per node) and the rate scale for
    ``parsec``.
    """

    kind: str = "synthetic"  # "synthetic" | "parsec" | "trace"
    pattern: str = "uniform_random"
    rate: float = 1.0
    pattern_args: Tuple[Tuple[str, object], ...] = ()
    workload: Optional[str] = None
    events: Optional[Tuple[Tuple[int, int, int, int], ...]] = None
    stop_cycle: Optional[int] = None

    @property
    def label(self) -> str:
        if self.kind == "parsec":
            return str(self.workload)
        if self.kind == "trace":
            return "trace"
        return self.pattern

    def build(self, n: int, seed: int):
        """Instantiate the generator for an ``n x n`` network."""
        if self.kind == "synthetic":
            per_node = self.rate / (n * n)
            if per_node > 1.0:
                raise ConfigurationError(
                    f"aggregate rate {self.rate} exceeds 1 packet/node/cycle"
                )
            pattern = make_pattern(self.pattern, n, **dict(self.pattern_args))
            return SyntheticTraffic(
                pattern, rate=per_node, rng=seed, stop_cycle=self.stop_cycle
            )
        if self.kind == "parsec":
            if not self.workload:
                raise ConfigurationError("parsec traffic spec needs a workload name")
            return parsec_traffic(
                self.workload, n, rng=seed,
                rate_scale=self.rate, stop_cycle=self.stop_cycle,
            )
        if self.kind == "trace":
            return TraceTraffic(self.events or ())
        raise ConfigurationError(f"unknown traffic kind {self.kind!r}")


@dataclass(frozen=True)
class SimJob:
    """One simulation: everything a worker needs, nothing it shares."""

    design: SchemeDesign
    traffic: TrafficSpec
    config: SimConfig
    seed: int
    #: Caller-chosen identity (e.g. ``(scheme, pattern, rate, seed_i)``)
    #: carried through to the result for keyed lookup.
    key: Tuple = ()
    capture_events: bool = False


@dataclass
class JobResult:
    """A worker's complete output: the run plus captured observability."""

    key: Tuple
    run: RunResult
    events: List[dict]
    metrics: dict

    @property
    def obs_key(self) -> Tuple:
        """Job coordinate used as the deterministic gauge-merge key."""
        return self.key


@dataclass
class CampaignResult:
    """All runs of one campaign, in job order."""

    jobs: Tuple[SimJob, ...]
    results: Tuple[JobResult, ...]
    parallel_jobs: int = 1
    by_key: Dict[Tuple, JobResult] = field(default_factory=dict)

    def __post_init__(self):
        if not self.by_key:
            self.by_key = {r.key: r for r in self.results if r.key}

    @property
    def runs(self) -> Tuple[RunResult, ...]:
        return tuple(r.run for r in self.results)

    def run_for(self, *key) -> RunResult:
        return self.by_key[tuple(key)].run


def _run_job(job: SimJob) -> JobResult:
    """Execute one job (module-level so it pickles for pool workers)."""
    sink = MemorySink() if job.capture_events else None
    obs = Instrumentation(sinks=[] if sink is None else [sink])
    if job.key:
        obs.set_context(task=list(job.key))
    topology = job.design.topology
    traffic = job.traffic.build(job.design.point.n, job.seed)
    sim = Simulator(topology, job.config, traffic, obs=None if obs.is_null else obs)
    run = sim.run()
    return JobResult(
        key=job.key,
        run=run,
        events=[] if sink is None else [e.to_dict() for e in sink.events],
        metrics=obs.metrics.snapshot(),
    )


def run_campaign(
    grid: Sequence[SimJob],
    jobs: int = 1,
    obs: Optional[Instrumentation] = None,
) -> CampaignResult:
    """Run a job grid inline (``jobs <= 1``) or on a process pool.

    Results are in grid order; worker events/metrics fold into ``obs``
    in grid order, so traces and profiles are reproducible run to run.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    obs = ensure_obs(obs)
    grid = [replace(job, capture_events=obs.enabled) for job in grid]
    if obs.enabled:
        obs.emit("campaign.start", jobs=jobs, grid=len(grid))
    with obs.span("sim.campaign"):
        results = parallel_map(_run_job, grid, jobs)
    _merge_observability(obs, results)
    if not obs.is_null:
        obs.metrics.counter("campaign.runs").inc(len(results))
        obs.metrics.gauge("campaign.jobs").set(jobs)
    if obs.enabled:
        obs.emit("campaign.end", runs=len(results))
    return CampaignResult(
        jobs=tuple(grid), results=tuple(results), parallel_jobs=jobs
    )


def run_until(
    grid: Sequence[SimJob],
    stop: Callable[[JobResult], bool],
    jobs: int = 1,
    obs: Optional[Instrumentation] = None,
) -> CampaignResult:
    """Run ``grid`` in order until ``stop(result)`` is true, in waves.

    The parallel form of an early-stopping sweep: runs speculative
    waves of ``max(jobs, 1)`` consecutive jobs, applies ``stop`` to the
    results *in job order*, and truncates at the first hit -- so the
    retained prefix is exactly what a serial loop with the same
    predicate would have produced (later speculative runs are simply
    discarded).  The stopping job itself is included.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    obs = ensure_obs(obs)
    grid = list(grid)
    kept_jobs: List[SimJob] = []
    kept: List[JobResult] = []
    for start in range(0, len(grid), max(jobs, 1)):
        wave = grid[start:start + max(jobs, 1)]
        wave_result = run_campaign(wave, jobs=jobs, obs=obs)
        stopped = False
        for job, res in zip(wave_result.jobs, wave_result.results):
            kept_jobs.append(job)
            kept.append(res)
            if stop(res):
                stopped = True
                break
        if stopped:
            break
    return CampaignResult(
        jobs=tuple(kept_jobs), results=tuple(kept), parallel_jobs=jobs
    )


def campaign_grid(
    designs: Sequence[SchemeDesign],
    patterns: Sequence[str],
    rates: Sequence[float],
    base_seed: int,
    seeds_per_point: int = 1,
    warmup: int = 300,
    measure: int = 1_000,
    max_cycles: Optional[int] = None,
    routing_mode: str = "xy",
) -> List[SimJob]:
    """The standard design x pattern x rate x seed grid.

    Each job's traffic seed derives from ``(base_seed, design_i,
    pattern_i, rate_i, seed_i)`` via ``SeedSequence`` spawn keys -- a
    pure function of the grid coordinates, so adding rows to any axis
    never perturbs the others.  Keys are the human-readable coordinates
    ``(scheme, pattern, rate, seed_i)``.
    """
    grid: List[SimJob] = []
    for d_i, design in enumerate(designs):
        config = SimConfig(
            flit_bits=design.point.flit_bits,
            warmup_cycles=warmup,
            measure_cycles=measure,
            max_cycles=max_cycles or (warmup + measure + 6_000),
            routing_mode=routing_mode,
            seed=base_seed,
        )
        for p_i, pattern in enumerate(patterns):
            for r_i, rate in enumerate(rates):
                for s_i in range(seeds_per_point):
                    grid.append(SimJob(
                        design=design,
                        traffic=TrafficSpec(
                            kind="synthetic", pattern=pattern, rate=rate
                        ),
                        config=config,
                        seed=derive_job_seed(base_seed, d_i, p_i, r_i, s_i),
                        key=(design.name, pattern, rate, s_i),
                    ))
    return grid
