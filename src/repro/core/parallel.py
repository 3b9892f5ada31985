"""The search runner: every placement search executes here.

The paper's optimizer solves ``P~(n, C)`` independently for every
feasible cross-section limit ``C``, and simulated annealing is
restart-friendly: independent chains from independent streams, keep the
best.  Every search -- a single solve or a full ``C`` sweep, in any
search space -- is therefore a grid of ``(C, restart)`` tasks, each one
SA chain or one exact solve, run inline (``jobs=1``) or on a
``multiprocessing`` pool and reduced deterministically.

Design rules that make ``jobs`` a pure wall-clock knob:

* **Derived seeds.**  Every task draws its generator from
  :func:`repro.util.rngtools.derived_rng` ``(base_seed, C, restart)``
  -- a pure function of the task key, independent of scheduling.  A
  task computes the same chain whether it runs inline, first, last, or
  on any worker.
* **Deterministic reduction.**  Per ``C``, the winner is the minimum by
  ``(energy, restart index)`` -- ties cannot depend on completion
  order.
* **Ordered obs merging.**  Each task records events into its own
  :class:`~repro.obs.sinks.MemorySink`, metrics into its own registry
  and span timings into its own recorder; the parent replays events
  and merges metric snapshots and span aggregates in task order, so
  ``--trace-out`` traces and ``--profile`` totals are reproducible run
  to run and list the same spans at every ``jobs``.  Pool tasks'
  events carry a ``worker`` stamp; inline tasks replay unstamped, so a
  serial trace reads as the parent's own.

The objective travels with the task: it is stripped of its
instrumentation when the task is built and rebound to the task's own
inside it.  Inline, any callable works; on the pool it must pickle.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api import SearchConfig
from repro.core.annealing import AnnealingParams
from repro.core.branch_bound import validated_link_limit
from repro.core.optimizer import METHODS, RowSolution, _solve_row
from repro.obs.instrument import Instrumentation, ensure_obs
from repro.obs.sinks import MemorySink
from repro.obs.spans import SpanStats
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError
from repro.util.rngtools import derived_rng, fresh_entropy

#: ``(best solution, per-restart final energies in restart order)``.
Solved = Tuple[Any, Tuple[float, ...]]


@dataclass(frozen=True)
class SearchTask:
    """One unit of work: restart ``restart`` of ``P~(n, C)`` in ``space``.

    Tasks are frozen, picklable value objects -- everything a worker
    needs and nothing it could share, which is what makes the fork/spawn
    boundary safe and the result a pure function of the task.
    ``observe`` / ``capture_events`` / ``profile`` mirror the parent's
    instrumentation so the task records exactly what it would record
    in the parent.
    """

    n: int
    link_limit: int
    restart: int
    space: str
    method: str
    objective: Any
    params: AnnealingParams
    base_seed: int
    max_evaluations: Optional[int]
    progress_every: int
    observe: bool
    capture_events: bool
    profile: bool


@dataclass
class TaskResult:
    """One task's complete output: solution plus captured observability."""

    link_limit: int
    restart: int
    solution: Any
    events: List[dict]
    metrics: dict
    spans: List[SpanStats]

    @property
    def obs_key(self) -> Tuple:
        """Grid coordinate used as the deterministic gauge-merge key."""
        return (self.link_limit, self.restart)


def _with_obs(objective, obs: Optional[Instrumentation]):
    """``objective`` rebound to ``obs`` when it carries an ``obs`` field
    (:class:`~repro.core.latency.RowObjective`,
    :class:`~repro.core.search_space.MeshObjective`); any other
    callable is returned as is."""
    if is_dataclass(objective) and any(f.name == "obs" for f in fields(objective)):
        return replace(objective, obs=obs)
    return objective


def _run_task(task: SearchTask) -> TaskResult:
    """Execute one task (module-level so it pickles for pool workers)."""
    # NB: an empty MemorySink is falsy (it has __len__), so the guards
    # here must compare against None explicitly.
    sink = MemorySink() if task.capture_events else None
    obs = ensure_obs(None)
    if task.observe:
        obs = Instrumentation(sinks=[] if sink is None else [sink],
                              profile=task.profile)
        obs.set_context(task=[task.link_limit, task.restart])
    # Rebinding rebuilds the objective: on the native tier that warms
    # the compiled backend up (once per worker process) before any
    # solve span opens, reported as a kernel.compile event instead of
    # polluting the latency.floyd_warshall span.
    objective = _with_obs(task.objective, None if obs.is_null else obs)
    kwargs = dict(
        method=task.method,
        objective=objective,
        params=task.params,
        rng=derived_rng(task.base_seed, task.link_limit, task.restart),
        max_evaluations=task.max_evaluations,
        obs=obs,
        progress_every=task.progress_every,
    )
    if task.space == "row":
        solution = _solve_row(task.n, task.link_limit, **kwargs)
    else:
        from repro.core.search_space import solve_space_chain

        solution = solve_space_chain(task.n, task.link_limit, task.space, **kwargs)
    return TaskResult(
        link_limit=task.link_limit,
        restart=task.restart,
        solution=solution,
        events=[] if sink is None else [e.to_dict() for e in sink.events],
        metrics={} if obs.is_null else obs.metrics.snapshot(),
        spans=list(obs.spans.stats.values()),
    )


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


def best_of(results: Sequence[TaskResult]) -> TaskResult:
    """Deterministic reduction: lowest energy, then lowest restart index."""
    if not results:
        raise ConfigurationError("cannot reduce an empty result set")
    return min(results, key=lambda r: (r.solution.energy, r.restart))


def _merge_observability(
    obs: Instrumentation, results: Sequence, stamp_workers: bool = True
) -> None:
    """Fold worker events/metrics into the parent, in task order.

    Gauge conflicts resolve by each result's grid coordinate
    (``obs_key``), not arrival order, so the merged registry is a pure
    function of the result *set* -- permuting worker completion (or
    even the merge order itself) cannot change the summary.  With
    ``stamp_workers=False`` (inline tasks) events replay unstamped.
    """
    if obs.is_null:
        return
    for worker, res in enumerate(results):
        if obs.enabled and res.events:
            obs.replay(res.events, worker=worker if stamp_workers else None)
        obs.metrics.merge(res.metrics, key=getattr(res, "obs_key", None) or (worker,))


def _check_picklable(objective) -> None:
    try:
        pickle.dumps(objective)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ConfigurationError(
            f"jobs > 1 needs a picklable objective; {type(objective).__name__} "
            f"cannot be sent to a worker process ({exc}); use jobs=1"
        ) from None


def _run_grid(
    n: int,
    limits: Sequence[int],
    *,
    space: str,
    method: str,
    objective,
    params: Optional[AnnealingParams],
    config: SearchConfig,
    obs: Instrumentation,
) -> Dict[int, Solved]:
    """Run ``config.restarts`` tasks for every (validated) limit."""
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; expected one of {METHODS}")
    base_seed = fresh_entropy() if config.seed is None else config.seed
    stripped = _with_obs(objective, None)
    tasks = [
        SearchTask(
            n=n, link_limit=limit, restart=restart, space=space, method=method,
            objective=stripped, params=params or AnnealingParams(),
            base_seed=base_seed, max_evaluations=config.max_evaluations,
            progress_every=config.metrics_every, observe=not obs.is_null,
            capture_events=obs.enabled, profile=obs.profiling,
        )
        for limit in limits
        for restart in range(config.restarts)
    ]
    pooled = config.jobs > 1 and len(tasks) > 1
    if pooled:
        _check_picklable(stripped)
    if obs.enabled:
        obs.emit("parallel.start", n=n, space=space, method=method,
                 restarts=config.restarts, jobs=config.jobs, tasks=len(tasks),
                 base_seed=base_seed, link_limits=list(limits))
    with obs.span("parallel.sweep"):
        results = parallel_map(_run_task, tasks, config.jobs)
    _merge_observability(obs, results, stamp_workers=pooled)
    for res in results:
        obs.spans.merge(res.spans)

    by_limit: Dict[int, List[TaskResult]] = {}
    for res in results:
        by_limit.setdefault(res.link_limit, []).append(res)
    solved = {
        limit: (best_of(group).solution,
                tuple(r.solution.energy for r in group))
        for limit, group in by_limit.items()
    }
    if not obs.is_null:
        obs.metrics.counter("parallel.tasks").inc(len(tasks))
        obs.metrics.gauge("parallel.jobs").set(config.jobs)
    if obs.enabled:
        obs.emit("parallel.end", n=n, best_energies=[
            [limit, solution.energy] for limit, (solution, _) in solved.items()
        ])
    return solved


def solve_limit(
    n: int,
    link_limit: int,
    *,
    space: str,
    method: str,
    objective,
    params: Optional[AnnealingParams] = None,
    config: Optional[SearchConfig] = None,
    obs: Optional[Instrumentation] = None,
) -> Solved:
    """Solve one ``P~(n, C)`` with ``config.restarts`` tasks; keep the best.

    ``C`` is validated once here (:func:`validated_link_limit`): an
    oversized limit is clamped to ``C_full`` with a ``config.clamp``
    event before any task runs, and the solution reports the clamped
    limit.
    """
    obs = ensure_obs(obs)
    limit = validated_link_limit(n, link_limit, obs)
    return _run_grid(
        n, [limit], space=space, method=method, objective=objective,
        params=params, config=config or SearchConfig(), obs=obs,
    )[limit]


def sweep_limits(
    n: int,
    link_limits: Sequence[int],
    *,
    space: str,
    method: str,
    objective,
    params: Optional[AnnealingParams] = None,
    config: Optional[SearchConfig] = None,
    obs: Optional[Instrumentation] = None,
) -> Dict[int, Solved]:
    """Solve every ``C`` of a sweep, in limit order.

    Limits are validated and de-duplicated once, before any task runs.
    ``C = 1`` admits only the plain mesh, so it is priced directly (one
    evaluation) instead of searched.
    """
    obs = ensure_obs(obs)
    limits = tuple(dict.fromkeys(validated_link_limit(n, c, obs) for c in link_limits))
    solved = _run_grid(
        n, [c for c in limits if c > 1], space=space, method=method,
        objective=objective, params=params, config=config or SearchConfig(),
        obs=obs,
    )
    if 1 in limits:
        mesh = _mesh_solution(n, space, method, objective)
        solved[1] = (mesh, (mesh.energy,))
    return {limit: solved[limit] for limit in limits}


def _mesh_solution(n: int, space: str, method: str, objective):
    """The ``C = 1`` design of ``space``: the plain mesh, priced once."""
    if space == "row":
        placement = RowPlacement.mesh(n)
        return RowSolution(
            n=n, link_limit=1, placement=placement, energy=objective(placement),
            method=method, evaluations=1, wall_time_s=0.0,
        )
    from repro.core.search_space import SpaceSolution, _space_class

    placement = _space_class(space).mesh(n)
    return SpaceSolution(
        n=n, link_limit=1, space=space, placement=placement,
        energy=objective(placement), method=method, evaluations=1,
        wall_time_s=0.0,
    )
