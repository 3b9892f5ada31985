"""Top-level express-link placement optimizer (Section 4 entry point).

The overall flow of the paper: for every feasible cross-section limit
``C`` (Section 4.1), solve the one-dimensional placement problem
``P~(n, C)`` that minimizes average head latency, add the serialization
latency implied by the flit width ``b = b_base / C``, and keep the
``C`` whose total is lowest.

Three solving methods are exposed:

* ``"dc_sa"``   -- the paper's proposal: divide-and-conquer initial
  solution + simulated annealing (D&C_SA),
* ``"only_sa"`` -- simulated annealing from a random matrix (OnlySA),
* ``"exact"``   -- exhaustive optimal (small instances only).

The same flow runs in every search space (``config.space``): the row
is the paper's reduction, ``hetero`` and ``grid2d`` search whole mesh
designs.  The functions here never branch on the space; what differs
per space is looked up in :data:`repro.core.search_space.SPACES`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.api import METHODS, PlacementResult, SearchConfig
from repro.core.annealing import (
    AnnealingParams,
    AnnealingResult,
    Objective,
    anneal,
)
from repro.core.branch_bound import ExactResult, effective_link_limit
from repro.core.divide_conquer import InitialSolution
from repro.core.latency import (
    BandwidthConfig,
    LatencyBreakdown,
    PacketMix,
    RowObjective,
)
from repro.obs.instrument import Instrumentation, ensure_obs
from repro.routing.shortest_path import HopCostModel
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError
from repro.util.rngtools import ensure_rng


@dataclass(frozen=True)
class RowSolution:
    """Solution of one ``P~(n, C)`` instance in ``space``.

    ``placement`` is a design of that space: a
    :class:`~repro.topology.row.RowPlacement` in the row space, a whole
    mesh design in the others.
    """

    n: int
    link_limit: int
    placement: Any
    energy: float
    method: str
    evaluations: int
    wall_time_s: float
    space: str = "row"
    annealing: Optional[AnnealingResult] = None
    seed_solution: Optional[InitialSolution] = None
    exact: Optional[ExactResult] = None


@dataclass(frozen=True)
class DesignPoint:
    """A fully-costed design: placement + latency breakdown (Eq. 2)."""

    n: int
    link_limit: int
    flit_bits: int
    placement: Any
    latency: LatencyBreakdown

    @property
    def total_latency(self) -> float:
        return self.latency.total


@dataclass
class SweepResult:
    """Outcome of the full ``C`` sweep for one network size.

    ``restart_energies`` maps each ``C`` to the final energies of its
    SA chains, in restart order.
    """

    n: int
    method: str
    space: str = "row"
    points: Dict[int, DesignPoint] = field(default_factory=dict)
    solutions: Dict[int, RowSolution] = field(default_factory=dict)
    restart_energies: Dict[int, Tuple[float, ...]] = field(default_factory=dict)

    @property
    def best(self) -> DesignPoint:
        """The design point with the lowest total average latency."""
        return min(self.points.values(), key=lambda p: p.total_latency)

    def latency_curve(self) -> Tuple[Tuple[int, float], ...]:
        """``(C, total latency)`` pairs sorted by ``C`` (Figure 5 series)."""
        return tuple(sorted((c, p.total_latency) for c, p in self.points.items()))


def solve_row_problem(
    n: int,
    link_limit: int,
    method: str = "dc_sa",
    objective: Objective | None = None,
    params: AnnealingParams | None = None,
    obs: Optional[Instrumentation] = None,
    config: Optional[SearchConfig] = None,
) -> PlacementResult:
    """Solve ``P~(n, C)`` and return a :class:`~repro.api.PlacementResult`.

    Execution knobs arrive in ``config`` (a
    :class:`~repro.api.SearchConfig`).  The solve runs through the
    search runner (:mod:`repro.core.parallel`): ``config.restarts``
    independent chains from the derived streams
    ``derived_rng(seed, C, restart)``, the best kept, on up to
    ``config.jobs`` processes -- the result is the same for every
    ``jobs`` value.  ``config.space`` picks the search space; in the
    mesh spaces ``objective``, if given, must be a
    :class:`~repro.core.search_space.MeshObjective`.  The winning
    :class:`RowSolution` stays reachable as ``result.solution``.

    ``obs`` flows into the D&C seeder, the annealer and the
    Floyd-Warshall evaluator of every task, so a single
    :class:`~repro.obs.Instrumentation` observes the whole solve.
    """
    from repro.core.parallel import solve_limit
    from repro.core.search_space import SPACES

    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    config = config or SearchConfig()
    solution, energies = solve_limit(
        n, link_limit, space=config.space, method=method,
        objective=SPACES[config.space].objective_for(objective),
        params=params, config=config, obs=obs,
    )
    return PlacementResult.from_solution(
        solution, config, restart_energies=((solution.link_limit, energies),)
    )


def _solve_row(
    n: int,
    link_limit: int,
    *,
    space: str = "row",
    method: str = "dc_sa",
    objective: Objective,
    params: AnnealingParams | None = None,
    rng=None,
    max_evaluations: Optional[int] = None,
    obs: Optional[Instrumentation] = None,
    progress_every: int = 0,
) -> RowSolution:
    """Single-chain ``P~(n, C)`` solve in ``space``: one task of the search runner.

    ``"exact"`` runs the space's exhaustive search; ``"dc_sa"`` anneals
    from the space's D&C seed and keeps the seed if no state beats it;
    ``"only_sa"`` anneals from a random state drawn from ``rng``.
    ``rng`` may be a shared generator: application-aware slices and
    rectangular sweeps draw several chains from one stream.
    """
    from repro.core.search_space import SPACES

    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}; expected one of {METHODS}")
    spec = SPACES[space]
    obs = ensure_obs(obs)
    params = params or AnnealingParams()
    gen = ensure_rng(rng)
    limit = effective_link_limit(n, link_limit)
    start = time.perf_counter()
    if obs.enabled:
        obs.emit("solve.start", n=n, link_limit=link_limit, method=method)

    if method == "exact":
        with obs.span("solve.exact"):
            exact = spec.exact(n, limit, objective)
        return RowSolution(
            n=n,
            link_limit=link_limit,
            placement=exact.placement,
            energy=exact.energy,
            method=method,
            evaluations=exact.evaluations,
            wall_time_s=time.perf_counter() - start,
            space=space,
            exact=exact,
        )

    seed: Optional[InitialSolution] = None
    if method == "dc_sa":
        seed = spec.seed(n, limit, objective, obs)
        state = spec.state.from_placement(seed.placement, limit)
    else:  # only_sa
        state = spec.state.random(n, limit, gen)

    with obs.span("solve.anneal"):
        sa = anneal(
            state,
            objective,
            params=params,
            rng=gen,
            max_evaluations=max_evaluations,
            obs=obs,
            progress_every=progress_every,
        )
    placement, energy = sa.best_placement, sa.best_energy
    if seed is not None and seed.energy < energy:
        placement, energy = seed.placement, seed.energy
    evaluations = sa.evaluations + (seed.evaluations if seed else 0)
    return RowSolution(
        n=n,
        link_limit=link_limit,
        placement=placement,
        energy=energy,
        method=method,
        evaluations=evaluations,
        wall_time_s=time.perf_counter() - start,
        space=space,
        annealing=sa,
        seed_solution=seed,
    )


def design_point(
    placement: Any,
    link_limit: int,
    bandwidth: BandwidthConfig | None = None,
    mix: PacketMix | None = None,
    cost: HopCostModel | None = None,
) -> DesignPoint:
    """Cost a design of any space at a link limit into a :class:`DesignPoint`.

    The head latency is twice the space objective's energy: under
    dimension-order routing each design serves both dimensions (Eq. 5
    for a row, :meth:`~repro.topology.grid.MeshRowsPlacement
    .mesh_topology` for a mesh design), so totals compare across
    spaces.  For a row this is bit for bit
    :func:`~repro.core.latency.network_average_latency`.
    """
    from repro.core.search_space import space_of

    bandwidth = bandwidth or BandwidthConfig()
    mix = mix or PacketMix.paper_default()
    placement.validate(link_limit)
    energy = space_of(placement).objective(cost=cost or HopCostModel())(placement)
    flit_bits = bandwidth.flit_bits(link_limit)
    return DesignPoint(
        n=placement.n,
        link_limit=link_limit,
        flit_bits=flit_bits,
        placement=placement,
        latency=LatencyBreakdown(
            head=2.0 * energy, serialization=mix.serialization_cycles(flit_bits)
        ),
    )


@dataclass(frozen=True)
class RectDesignPoint:
    """A costed rectangular design (library extension beyond the paper).

    The 2D -> 1D reduction holds for any ``width x height`` mesh under
    XY routing; with identical rows and identical columns the average
    head latency is the row average plus the column average (the square
    case's ``2x`` is the special case ``width == height``).
    """

    width: int
    height: int
    link_limit: int
    flit_bits: int
    row_placement: RowPlacement
    col_placement: RowPlacement
    head_latency: float
    serialization: float

    @property
    def total_latency(self) -> float:
        return self.head_latency + self.serialization


def optimize_rectangular(
    width: int,
    height: int,
    method: str = "dc_sa",
    bandwidth: BandwidthConfig | None = None,
    mix: PacketMix | None = None,
    cost: HopCostModel | None = None,
    params: AnnealingParams | None = None,
    rng=None,
    link_limits: Optional[Tuple[int, ...]] = None,
) -> Dict[int, RectDesignPoint]:
    """Sweep ``C`` on a rectangular mesh; one 1D solve per dimension.

    Returns a map ``C -> RectDesignPoint``; the caller picks the best
    by ``total_latency`` (see :func:`best_rectangular`).
    """
    from repro.core.latency import mean_row_head_latency

    bandwidth = bandwidth or BandwidthConfig()
    mix = mix or PacketMix.paper_default()
    cost = cost or HopCostModel()
    gen = ensure_rng(rng)
    # Limits beyond the smaller dimension's full connectivity are
    # clamped inside each solve, so sweeping up to the larger
    # dimension's C_full covers every distinct design.
    limits = tuple(link_limits or bandwidth.valid_link_limits(max(width, height)))

    objective = RowObjective(cost=cost)
    points: Dict[int, RectDesignPoint] = {}
    for limit in limits:
        solved: Dict[int, RowPlacement] = {}
        for dim in {width, height}:
            if limit == 1 or dim < 3:
                solved[dim] = RowPlacement.mesh(dim)
            else:
                solved[dim] = _solve_row(
                    dim, limit, method=method, objective=objective,
                    params=params, rng=gen,
                ).placement
        row, col = solved[width], solved[height]
        head = mean_row_head_latency(row, cost) + mean_row_head_latency(col, cost)
        points[limit] = RectDesignPoint(
            width=width,
            height=height,
            link_limit=limit,
            flit_bits=bandwidth.flit_bits(limit),
            row_placement=row,
            col_placement=col,
            head_latency=head,
            serialization=mix.serialization_cycles(bandwidth.flit_bits(limit)),
        )
    return points


def best_rectangular(points: Dict[int, "RectDesignPoint"]) -> "RectDesignPoint":
    """The rectangular design point with the lowest total latency."""
    return min(points.values(), key=lambda p: p.total_latency)


def optimize(
    n: int,
    method: str = "dc_sa",
    bandwidth: BandwidthConfig | None = None,
    mix: PacketMix | None = None,
    cost: HopCostModel | None = None,
    params: AnnealingParams | None = None,
    link_limits: Optional[Tuple[int, ...]] = None,
    obs: Optional[Instrumentation] = None,
    config: Optional[SearchConfig] = None,
) -> PlacementResult:
    """Full optimization: sweep ``C``, solve each ``P~(n, C)``, cost them.

    Returns the winning design as a frozen
    :class:`~repro.api.PlacementResult` -- the paper's final answer for
    this network; the raw sweep with every design point (the Figure 5
    curves) stays reachable as ``result.sweep``.  ``obs`` observes
    every per-``C`` solve through one instrumentation context.

    Execution knobs arrive in ``config`` (a
    :class:`~repro.api.SearchConfig`).  The ``(C, restart)`` grid runs
    through the search runner (:mod:`repro.core.parallel`):
    ``config.restarts`` independent SA chains per ``C`` with
    per-``(C, restart)`` derived seeds, best chain kept, on up to
    ``config.jobs`` processes -- bit-identical results for every
    ``jobs`` value at a fixed seed.  ``config.space`` picks the search
    space; ``C = 1`` is the plain mesh in every space.
    """
    from repro.core.parallel import sweep_limits
    from repro.core.search_space import SPACES

    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    config = config or SearchConfig()
    start = time.perf_counter()
    bandwidth = bandwidth or BandwidthConfig()
    mix = mix or PacketMix.paper_default()
    cost = cost or HopCostModel()
    solved = sweep_limits(
        n, link_limits or bandwidth.valid_link_limits(n), space=config.space,
        method=method, objective=SPACES[config.space].objective(cost=cost),
        params=params, config=config, obs=obs,
    )
    sweep = SweepResult(n=n, method=method, space=config.space)
    for limit, (solution, energies) in solved.items():
        sweep.solutions[limit] = solution
        sweep.restart_energies[limit] = energies
        sweep.points[limit] = design_point(
            solution.placement, limit, bandwidth, mix, cost
        )
    return PlacementResult.from_sweep(
        sweep, config, time.perf_counter() - start
    )
