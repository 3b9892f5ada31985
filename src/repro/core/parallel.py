"""Parallel multi-restart search engine for the ``C`` sweep.

The paper's optimizer solves ``P~(n, C)`` independently for every
feasible cross-section limit ``C``, and simulated annealing is
restart-friendly: independent chains from independent streams, keep the
best.  Both axes are embarrassingly parallel, so this module fans the
``(C, restart)`` task grid out over a ``multiprocessing`` pool and
reduces deterministically.

Design rules that make ``--jobs K`` a pure wall-clock knob:

* **Derived seeds.**  Every task draws its generator from
  :func:`repro.util.rngtools.derived_rng` ``(base_seed, C, restart)``
  -- a pure function of the task key, independent of scheduling.  A
  task computes the same chain whether it runs inline, first, last, or
  on any worker.
* **Deterministic reduction.**  Per ``C``, the winner is the minimum by
  ``(energy, restart index)`` -- ties cannot depend on completion
  order.
* **Ordered obs merging.**  Each worker records events into its own
  :class:`~repro.obs.sinks.MemorySink` and metrics into its own
  registry; the parent replays events and merges metric snapshots in
  task order, so ``--trace-out`` traces and ``--profile`` totals are
  reproducible run to run.

The headline guarantee -- enforced by the parity suite -- is that for a
fixed base seed the best design is bit-identical for every ``jobs``
value, including the fully serial ``jobs=1`` path (which runs the exact
same task functions in the same order, just inline).
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.annealing import AnnealingParams, anneal_population
from repro.core.branch_bound import effective_link_limit, validated_link_limit
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.divide_conquer import initial_solution
from repro.core.latency import BandwidthConfig, PacketMix, RowObjective
from repro.core.optimizer import (
    METHODS,
    RowSolution,
    SweepResult,
    _solve_row,
    design_point,
)
from repro.obs.instrument import Instrumentation, ensure_obs
from repro.obs.sinks import MemorySink
from repro.routing.shortest_path import HopCostModel
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError
from repro.util.rngtools import derived_rng, ensure_rng, fresh_entropy


@dataclass(frozen=True)
class SearchTask:
    """One worker unit: a group of SA restarts for one ``P~(n, C)``.

    Tasks are frozen, picklable value objects -- everything a worker
    needs and nothing it could share, which is what makes the fork/spawn
    boundary safe and the result a pure function of the task.
    ``restarts`` holds the restart indices of the group: a singleton
    runs the plain serial chain, a longer tuple runs the group in
    lockstep (:func:`repro.core.annealing.anneal_population`) -- one
    batched objective call per move across the group, byte-identical
    trajectories either way.
    """

    n: int
    link_limit: int
    restarts: Tuple[int, ...]
    method: str
    params: AnnealingParams
    cost: HopCostModel
    weights: Optional[Tuple[Tuple[float, ...], ...]]
    impl: str
    base_seed: int
    max_evaluations: Optional[int]
    capture_events: bool


@dataclass
class TaskResult:
    """One restart's complete output: solution plus captured observability."""

    link_limit: int
    restart: int
    solution: RowSolution
    events: List[dict]
    metrics: dict

    @property
    def obs_key(self) -> Tuple:
        """Grid coordinate used as the deterministic gauge-merge key."""
        return (self.link_limit, self.restart)


def _chain_groups(restarts: int, chains: int) -> List[Tuple[int, ...]]:
    """Split restart indices into consecutive lockstep groups.

    ``chains=1`` (the default) keeps every restart its own task;
    ``chains=K`` packs restarts ``0..K-1`` into one group, ``K..2K-1``
    into the next, and so on (the last group may be smaller).  Grouping
    never changes which restarts run or their derived seeds -- only how
    many share a process and a batched kernel call.
    """
    step = max(1, chains)
    return [
        tuple(range(lo, min(lo + step, restarts)))
        for lo in range(0, restarts, step)
    ]


def _run_single(task: SearchTask, restart: int) -> TaskResult:
    """Execute one restart of a task through the serial solve path."""
    # NB: an empty MemorySink is falsy (it has __len__), so the guards
    # here must compare against None explicitly.
    sink = MemorySink() if task.capture_events else None
    obs = Instrumentation(sinks=[] if sink is None else [sink])
    obs.set_context(task=[task.link_limit, restart])
    # Under impl="native", constructing the objective warms the
    # compiled backend up (JIT / shared-object load, once per worker
    # process) before any solve span opens; the cost is reported as a
    # kernel.compile event on this worker's sink instead of polluting
    # the latency.floyd_warshall span.
    objective = RowObjective(
        cost=task.cost,
        weights=task.weights,
        impl=task.impl,
        obs=None if obs.is_null else obs,
    )
    solution = _solve_row(
        task.n,
        task.link_limit,
        method=task.method,
        objective=objective,
        params=task.params,
        rng=derived_rng(task.base_seed, task.link_limit, restart),
        max_evaluations=task.max_evaluations,
        obs=obs,
    )
    return TaskResult(
        link_limit=task.link_limit,
        restart=restart,
        solution=solution,
        events=[] if sink is None else [e.to_dict() for e in sink.events],
        metrics=obs.metrics.snapshot(),
    )


def _run_population(task: SearchTask) -> List[TaskResult]:
    """Execute a whole restart group in lockstep.

    Mirrors the serial ``_solve_row`` SA flow per chain exactly: the
    deterministic D&C seed is computed once (every serial restart
    would recompute the identical solution), each chain draws its
    matrix and stream from ``derived_rng(base_seed, C, restart)`` just
    as its serial run would, and :func:`anneal_population` interleaves
    the chains with one batched objective call per move.  The group
    shares one event sink; its events and metrics ride on the first
    restart's :class:`TaskResult` so the parent-side merge sees them
    exactly once.
    """
    sink = MemorySink() if task.capture_events else None
    obs = Instrumentation(sinks=[] if sink is None else [sink])
    obs.set_context(task=[task.link_limit, list(task.restarts)])
    # Native warm-up once per worker process, outside all solve spans
    # (see _run_single).
    objective = RowObjective(
        cost=task.cost,
        weights=task.weights,
        impl=task.impl,
        obs=None if obs.is_null else obs,
    )
    limit = effective_link_limit(task.n, task.link_limit)
    start = time.perf_counter()
    if obs.enabled:
        obs.emit("solve.start", n=task.n, link_limit=task.link_limit,
                 method=task.method, chains=list(task.restarts))

    seed = None
    initials, rngs = [], []
    if task.method == "dc_sa":
        seed = initial_solution(task.n, limit, objective, obs=obs)
        for restart in task.restarts:
            initials.append(ConnectionMatrix.from_placement(seed.placement, limit))
            rngs.append(
                ensure_rng(derived_rng(task.base_seed, task.link_limit, restart))
            )
    else:  # only_sa: the matrix draw and the SA stream share one generator
        for restart in task.restarts:
            gen = ensure_rng(derived_rng(task.base_seed, task.link_limit, restart))
            initials.append(ConnectionMatrix.random(task.n, limit, gen))
            rngs.append(gen)

    sas = anneal_population(
        initials,
        objective,
        params=task.params,
        rngs=rngs,
        max_evaluations=task.max_evaluations,
        obs=obs,
    )
    wall = time.perf_counter() - start

    results = []
    for idx, (restart, sa) in enumerate(zip(task.restarts, sas)):
        placement, energy = sa.best_placement, sa.best_energy
        if seed is not None and seed.energy < energy:
            placement, energy = seed.placement, seed.energy
        evaluations = sa.evaluations + (seed.evaluations if seed else 0)
        solution = RowSolution(
            n=task.n,
            link_limit=task.link_limit,
            placement=placement,
            energy=energy,
            method=task.method,
            evaluations=evaluations,
            wall_time_s=wall,
            annealing=sa,
            seed_solution=seed,
        )
        results.append(TaskResult(
            link_limit=task.link_limit,
            restart=restart,
            solution=solution,
            events=(
                [e.to_dict() for e in sink.events]
                if sink is not None and idx == 0 else []
            ),
            metrics=obs.metrics.snapshot() if idx == 0 else {},
        ))
    return results


def _run_task(task: SearchTask) -> List[TaskResult]:
    """Execute one task (module-level so it pickles for pool workers).

    Returns one :class:`TaskResult` per restart in the group, in
    restart order.  Groups of one and exact solves (no SA to
    interleave) take the serial per-restart path; everything else runs
    the lockstep population path -- the results are byte-identical,
    only the pricing differs.
    """
    if len(task.restarts) == 1 or task.method == "exact":
        return [_run_single(task, restart) for restart in task.restarts]
    return _run_population(task)


def parallel_map(fn, items: Sequence, jobs: int) -> List:
    """Order-preserving map, inline (``jobs <= 1``) or on a process pool.

    The workhorse behind every parallel engine in the repo (the search
    grid here, the simulation campaigns in :mod:`repro.sim.campaign`).
    ``fn`` must be a module-level callable and every item picklable;
    ``pool.map`` returns results in item order regardless of which
    worker finished first, so downstream reduction sees the same
    sequence either way.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    with ctx.Pool(processes=min(jobs, len(items))) as pool:
        return pool.map(fn, items, chunksize=1)


def run_tasks(tasks: Sequence[SearchTask], jobs: int) -> List[TaskResult]:
    """Run search tasks inline or on a process pool, in task order.

    Each task yields one result per restart in its group; the flattened
    list is in ``(task, restart)`` order, which -- with consecutive
    chain groups -- is plain ``(C, restart)`` order.
    """
    return [
        result
        for group in parallel_map(_run_task, tasks, jobs)
        for result in group
    ]


def best_of(results: Sequence[TaskResult]) -> TaskResult:
    """Deterministic reduction: lowest energy, then lowest restart index."""
    if not results:
        raise ConfigurationError("cannot reduce an empty result set")
    return min(results, key=lambda r: (r.solution.energy, r.restart))


def _check_grid(restarts: int, jobs: int, chains: int) -> int:
    """Validate the execution grid; returns the effective restart count.

    ``chains=K`` alone means "run K lockstep chains", so the restart
    count is raised to at least ``chains`` -- mirroring
    :attr:`repro.api.SearchConfig.effective_restarts`.
    """
    if restarts < 1:
        raise ConfigurationError(f"restarts must be >= 1, got {restarts}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if chains < 1:
        raise ConfigurationError(f"chains must be >= 1, got {chains}")
    return max(restarts, chains)


def _require_base_seed(base_seed) -> int:
    """Coerce the parallel engine's seed; generators are rejected.

    A shared :class:`numpy.random.Generator` is inherently sequential
    -- its state would depend on task execution order -- so parallel
    searches demand an integer seed (or ``None`` for fresh entropy,
    still an int so the run can be replayed from logs).
    """
    if base_seed is None:
        return fresh_entropy()
    if isinstance(base_seed, (int, np.integer)):
        return int(base_seed)
    raise ConfigurationError(
        "parallel search requires an integer base seed (or None); "
        f"got {type(base_seed).__name__} -- a shared generator cannot be "
        "split deterministically across workers"
    )


def _merge_observability(
    obs: Instrumentation, results: Sequence[TaskResult]
) -> None:
    """Fold worker events/metrics into the parent, in task order.

    Gauge conflicts resolve by each result's grid coordinate
    (``obs_key``), not arrival order, so the merged registry is a pure
    function of the result *set* -- permuting worker completion (or
    even the merge order itself) cannot change the summary.
    """
    if obs.is_null:
        return
    for worker, res in enumerate(results):
        if obs.enabled and res.events:
            obs.replay(res.events, worker=worker)
        obs.metrics.merge(res.metrics, key=getattr(res, "obs_key", None) or (worker,))


def _build_tasks(
    n: int,
    limits: Sequence[int],
    restarts: int,
    method: str,
    params: AnnealingParams,
    cost: HopCostModel,
    weights,
    impl: str,
    base_seed: int,
    max_evaluations: Optional[int],
    capture_events: bool,
    chains: int = 1,
) -> List[SearchTask]:
    return [
        SearchTask(
            n=n,
            link_limit=limit,
            restarts=group,
            method=method,
            params=params,
            cost=cost,
            weights=weights,
            impl=impl,
            base_seed=base_seed,
            max_evaluations=max_evaluations,
            capture_events=capture_events,
        )
        for limit in limits
        for group in _chain_groups(restarts, chains)
    ]


def parallel_row_search(
    n: int,
    link_limit: int,
    method: str = "dc_sa",
    params: AnnealingParams | None = None,
    cost: HopCostModel | None = None,
    weights=None,
    impl: str = "vectorized",
    base_seed=None,
    max_evaluations: Optional[int] = None,
    restarts: int = 1,
    jobs: int = 1,
    chains: int = 1,
    obs: Optional[Instrumentation] = None,
) -> Tuple[RowSolution, Tuple[float, ...]]:
    """Multi-restart solve of one ``P~(n, C)`` instance.

    Returns the winning :class:`RowSolution` plus the per-restart final
    energies (restart order), so callers can report the spread.
    ``chains=K`` packs consecutive restarts into lockstep groups of
    ``K`` (one batched objective call per move per group) without
    changing any result byte; it composes freely with ``jobs``.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; expected one of {METHODS}")
    restarts = _check_grid(restarts, jobs, chains)
    obs = ensure_obs(obs)
    seed = _require_base_seed(base_seed)
    limit = validated_link_limit(n, link_limit, obs)
    tasks = _build_tasks(
        n, [limit], restarts, method, params or AnnealingParams(),
        cost or HopCostModel(), weights, impl, seed, max_evaluations,
        capture_events=obs.enabled, chains=chains,
    )
    if obs.enabled:
        obs.emit("parallel.start", n=n, link_limit=limit, method=method,
                 restarts=restarts, jobs=jobs, chains=chains,
                 tasks=len(tasks), base_seed=seed)
    with obs.span("parallel.row_search"):
        results = run_tasks(tasks, jobs)
    _merge_observability(obs, results)
    best = best_of(results)
    energies = tuple(r.solution.energy for r in results)
    if not obs.is_null:
        obs.metrics.counter("parallel.tasks").inc(len(tasks))
        obs.metrics.gauge("parallel.jobs").set(jobs)
    if obs.enabled:
        obs.emit("parallel.end", n=n, link_limit=link_limit,
                 best_energy=best.solution.energy, best_restart=best.restart)
    return best.solution, energies


def parallel_sweep(
    n: int,
    method: str = "dc_sa",
    bandwidth: BandwidthConfig | None = None,
    mix: PacketMix | None = None,
    cost: HopCostModel | None = None,
    params: AnnealingParams | None = None,
    base_seed=None,
    link_limits: Optional[Tuple[int, ...]] = None,
    max_evaluations: Optional[int] = None,
    restarts: int = 1,
    jobs: int = 1,
    chains: int = 1,
    weights=None,
    impl: str = "vectorized",
    obs: Optional[Instrumentation] = None,
) -> SweepResult:
    """Full ``C`` sweep with ``restarts`` SA chains per limit.

    The parallel counterpart of :func:`repro.core.optimizer.optimize`:
    the ``(C, restart)`` grid runs on up to ``jobs`` processes, and for
    a fixed ``base_seed`` the returned :class:`SweepResult` carries
    bit-identical placements for every ``jobs`` value.  ``chains=K``
    additionally packs consecutive restarts into lockstep population
    groups -- same placements, fewer kernel launches.  Every requested
    ``C`` is validated once here (:func:`validated_link_limit`):
    oversized limits are clamped to ``C_full`` with a ``config.clamp``
    event before any worker spawns.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; expected one of {METHODS}")
    restarts = _check_grid(restarts, jobs, chains)
    bandwidth = bandwidth or BandwidthConfig()
    mix = mix or PacketMix.paper_default()
    cost = cost or HopCostModel()
    params = params or AnnealingParams()
    obs = ensure_obs(obs)
    seed = _require_base_seed(base_seed)
    limits = tuple(dict.fromkeys(
        validated_link_limit(n, c, obs)
        for c in (link_limits or bandwidth.valid_link_limits(n))
    ))

    searched = [c for c in limits if c > 1]
    tasks = _build_tasks(
        n, searched, restarts, method, params, cost, weights, impl, seed,
        max_evaluations, capture_events=obs.enabled, chains=chains,
    )
    if obs.enabled:
        obs.emit("parallel.start", n=n, method=method, restarts=restarts,
                 jobs=jobs, chains=chains, tasks=len(tasks), base_seed=seed,
                 link_limits=list(limits))
    with obs.span("parallel.sweep"):
        results = run_tasks(tasks, jobs)
    _merge_observability(obs, results)

    by_limit: Dict[int, List[TaskResult]] = {}
    for res in results:
        by_limit.setdefault(res.link_limit, []).append(res)

    sweep = SweepResult(n=n, method=method, restarts=restarts, jobs=jobs,
                        chains=chains)
    objective = RowObjective(cost=cost, weights=weights, impl=impl)
    for limit in limits:
        if limit == 1:
            mesh = RowPlacement.mesh(n)
            solution = RowSolution(
                n=n,
                link_limit=1,
                placement=mesh,
                energy=objective(mesh),
                method=method,
                evaluations=1,
                wall_time_s=0.0,
            )
            sweep.restart_energies[1] = (solution.energy,)
        else:
            group = by_limit[limit]
            solution = best_of(group).solution
            sweep.restart_energies[limit] = tuple(
                r.solution.energy for r in group
            )
        sweep.solutions[limit] = solution
        sweep.points[limit] = design_point(
            solution.placement, limit, bandwidth, mix, cost
        )
    if not obs.is_null:
        obs.metrics.counter("parallel.tasks").inc(len(tasks))
        obs.metrics.gauge("parallel.jobs").set(jobs)
    if obs.enabled:
        best = sweep.best
        obs.emit("parallel.end", n=n, best_link_limit=best.link_limit,
                 best_total_latency=best.total_latency)
    return sweep
