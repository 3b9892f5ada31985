"""Multi-objective Pareto co-design over row placements.

ROADMAP item 5: turn the scalar placement search into a traffic-aware
co-design tool.  A candidate row placement (replicated into the paper's
uniform mesh) is priced on up to four axes, all minimized:

* ``latency`` -- (optionally traffic-weighted) mean row head latency,
  the exact energy the scalar optimizer minimizes.  With a traffic
  matrix ``gamma`` the weight matrix aggregates the per-row and
  per-column weights of :mod:`repro.core.application_aware`, so for a
  replicated-row design ``2 * latency`` equals
  :func:`~repro.core.application_aware.weighted_average_head_latency`
  of the full mesh (pinned by a parity test).
* ``power`` -- router static power plus a dynamic proxy: the expected
  buffer/crossbar/link event rates at one injected packet per cycle,
  integrated through :func:`repro.power.model.dynamic_power`.
* ``area`` -- total router area of the replicated design
  (:func:`repro.power.area.router_area` summed over routers).
* ``channel_load`` -- the worst expected per-channel flit load per
  injected packet (:mod:`repro.analysis.channel_load`); minimizing it
  maximizes the ideal saturation throughput ``1 / load``.

Two front-search drivers build the nondominated set:

* ``"epsilon"`` -- an ε-constraint sweep: per-axis endpoint solves
  bound each secondary axis, then the primary axis is minimized under
  a penalty for exceeding each ε level.  Every constraint point is an
  independent scalar search (reusing the annealer/exhaustive backends)
  with its own PR 2 derived seed stream, fanned across ``config.jobs``
  worker processes by :func:`repro.core.parallel.parallel_map`.
* ``"nsga2"`` -- an NSGA-II-style population loop over
  :class:`~repro.core.connection_matrix.ConnectionMatrix` genotypes
  (any bit state decodes to a valid placement, so uniform bitwise
  crossover never leaves the feasible set), with fast nondominated
  sorting, crowding-distance selection, batched
  :meth:`~repro.core.latency.RowObjective.evaluate_many` pricing of the
  latency/power components and ``parallel_map`` fan-out of the mesh
  axes.

Determinism contract (the repo-wide convention): every random decision
happens in the parent from seed streams derived with
:func:`repro.util.rngtools.derived_rng`, worker processes compute pure
functions of their task, and the archive/front assembly sorts
canonically -- so fronts are byte-identical for every ``config.jobs``
value, and a single-objective ``latency`` front reduces bitwise to the
scalar :func:`repro.core.optimizer.solve_row_problem` result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.api import (
    OBJECTIVES,
    PARETO_DRIVERS,
    RESULT_SCHEMA,
    SearchConfig,
    _check_schema,
    _float_hex,
    _json_choice,
    _json_field,
    _json_int,
    _json_list,
)
from repro.analysis.channel_load import channel_loads
from repro.core.annealing import AnnealingParams
from repro.core.application_aware import _check_gamma, _col_weights, _row_weights
from repro.core.branch_bound import effective_link_limit, validated_link_limit
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import BandwidthConfig, PacketMix, RowObjective
from repro.core.optimizer import METHODS, _solve_row
from repro.core.parallel import parallel_map
from repro.obs.instrument import Instrumentation, ensure_obs
from repro.power.area import router_area
from repro.power.model import dynamic_power, router_static_power
from repro.routing.shortest_path import HopCostModel
from repro.routing.tables import RoutingTables
from repro.sim.config import SimConfig
from repro.topology.mesh import MeshTopology
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError, InvalidPlacementError
from repro.util.rngtools import derived_rng

__all__ = [
    "ParetoFront",
    "ParetoPoint",
    "ParetoPricer",
    "ParetoSpec",
    "aggregate_weights",
    "dominates",
    "hypervolume",
    "nondominated",
    "pareto_front",
    "pareto_sweep",
]

#: Derived-seed stream tags (one namespace per driver stage, so adding
#: a stage never perturbs another stage's streams).
_ENDPOINT_KEY = 101
_EPSILON_KEY = 202
_NSGA_KEY = 303

#: ε-penalty stiffness, in units of the primary axis range per unit of
#: normalized constraint violation.
_PENALTY_STIFFNESS = 8.0


# ----------------------------------------------------------------------
# Dominance, fronts, hypervolume
# ----------------------------------------------------------------------

def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is at least as good everywhere and better somewhere."""
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


def nondominated(
    entries: Iterable[Tuple[Tuple[float, ...], bytes]],
) -> List[Tuple[Tuple[float, ...], bytes]]:
    """The nondominated subset, canonically ordered.

    ``entries`` are ``(values, canonical_bytes)`` pairs.  Duplicate
    value vectors keep only their lexicographically-smallest placement
    (one representative per front point), and the result is sorted by
    ``(values, bytes)`` -- the order the front serializes in, which is
    what makes front JSON byte-identical across ``--jobs`` values.

    A dominating point sorts lexicographically before every point it
    dominates (componentwise ``<=`` implies lex ``<=``), so a single
    pass that checks each entry against the kept set suffices:
    ``O(total * front_size)`` instead of ``O(total^2)``.
    """
    ordered = sorted(set(entries))
    kept: List[Tuple[Tuple[float, ...], bytes]] = []
    for values, key in ordered:
        duplicate_or_dominated = any(
            kv == values or dominates(kv, values) for kv, _ in kept
        )
        if not duplicate_or_dominated:
            kept.append((values, key))
    return kept


def hypervolume(
    points: Iterable[Sequence[float]], reference: Sequence[float]
) -> float:
    """Exact hypervolume dominated by ``points`` w.r.t. ``reference``.

    Minimization convention: the measure of the region dominated by at
    least one point and bounded above by ``reference``.  Points not
    strictly below the reference on every axis contribute nothing.
    Recursive slab decomposition -- exponential in the axis count, fine
    for the <=4-axis fronts this module produces.
    """
    reference = tuple(float(r) for r in reference)
    pts = [
        tuple(float(v) for v in p)
        for p in points
        if all(v < r for v, r in zip(p, reference))
    ]
    if not pts:
        return 0.0
    if any(len(p) != len(reference) for p in pts):
        raise ConfigurationError(
            "hypervolume points and reference must share one dimension"
        )
    return _hv(pts, reference)


def _hv(pts: List[Tuple[float, ...]], reference: Tuple[float, ...]) -> float:
    if len(reference) == 1:
        return reference[0] - min(p[0] for p in pts)
    total = 0.0
    cuts = sorted({p[0] for p in pts})
    for i, x in enumerate(cuts):
        upper = cuts[i + 1] if i + 1 < len(cuts) else reference[0]
        width = upper - x
        if width <= 0:
            continue
        sub = [p[1:] for p in pts if p[0] <= x]
        front = [v for v, _ in nondominated((s, b"") for s in sub)]
        total += width * _hv(front, reference[1:])
    return total


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------

def aggregate_weights(gamma: np.ndarray, n: int) -> Tuple[Tuple[float, ...], ...]:
    """The replicated-row pair-weight matrix ``W`` of a traffic matrix.

    Summing the per-row and per-column weight matrices of the
    application-aware reduction gives one ``n x n`` matrix whose
    weighted row energy prices every row *and* column of a
    replicated-row design at once:
    ``weighted_average_head_latency(MeshTopology.uniform(p), gamma)
    == 2 * mean_row_head_latency(p, weights=W)`` (up to floating-point
    accumulation order).
    """
    g = _check_gamma(gamma, n)
    w = np.zeros((n, n))
    for part in _row_weights(g, n):
        w += part
    for part in _col_weights(g, n):
        w += part
    return tuple(map(tuple, w.tolist()))


@dataclass(frozen=True, eq=False)
class ParetoSpec:
    """Everything needed to price one placement on every axis.

    Picklable and process-independent: a worker holding the spec prices
    bit-identically to the parent, which is what lets the drivers fan
    pricing out over ``jobs`` processes without touching results.
    """

    n: int
    link_limit: int
    objectives: Tuple[str, ...]
    #: Aggregated traffic weight matrix (None = uniform traffic).
    weights: Optional[Tuple[Tuple[float, ...], ...]] = None
    #: Full ``n^2 x n^2`` traffic matrix for the channel-load axis
    #: (None = uniform); diagonal-stripped by the caller.
    gamma: Optional[np.ndarray] = field(default=None, repr=False)
    cost: HopCostModel = HopCostModel()
    base_flit_bits: int = 256
    mix: PacketMix = PacketMix.paper_default()

    def __post_init__(self) -> None:
        unknown = [o for o in self.objectives if o not in OBJECTIVES]
        if unknown:
            raise ConfigurationError(
                f"unknown objective(s) {unknown}; expected a subset of "
                f"{OBJECTIVES}"
            )
        if not self.objectives:
            raise ConfigurationError("need at least one objective axis")
        if len(set(self.objectives)) != len(self.objectives):
            raise ConfigurationError(
                f"duplicate objectives in {self.objectives}"
            )

    @property
    def flit_bits(self) -> int:
        """Flit width at the spec's cross-section limit.

        Non-divisor limits (e.g. ``C = 3`` against a 256-bit baseline)
        fall back to the floored width ``max(1, base // C)`` -- the
        pareto grid sweeps every integer ``C``, not just the scalar
        sweep's power-of-two divisors.
        """
        c = self.link_limit
        if c <= 0:
            raise ConfigurationError(f"link limit must be positive, got {c}")
        if self.base_flit_bits % c == 0:
            return self.base_flit_bits // c
        return max(1, self.base_flit_bits // c)

    def latency_objective(self) -> RowObjective:
        """The latency axis as the scalar optimizer's own objective."""
        return RowObjective(cost=self.cost, weights=self.weights)


def _mesh_axis_values(
    spec: ParetoSpec, placement: RowPlacement
) -> Tuple[float, float, float]:
    """(static power W, total router area um^2, worst channel load).

    Prices the replicated ``n x n`` design; axes outside
    ``spec.objectives`` are skipped (returned as 0.0) so the hot loop
    never builds routing tables it does not need.
    """
    objectives = spec.objectives
    topology = MeshTopology.uniform(placement)
    config = SimConfig(flit_bits=spec.flit_bits)
    static_w = area_um2 = channel = 0.0
    if "power" in objectives:
        static_w = router_static_power(topology, config).total_w
    if "area" in objectives:
        area_um2 = sum(
            router_area(topology, node, config).total_um2
            for node in range(topology.num_nodes)
        )
    if "channel_load" in objectives:
        tables = RoutingTables.build(topology)
        report = channel_loads(
            tables, spec.gamma, mix=spec.mix, flit_bits=spec.flit_bits
        )
        channel = report.max_load_per_packet
    return (static_w, area_um2, channel)


def _price_mesh_axes(task) -> Tuple[float, float, float]:
    """``parallel_map`` worker: mesh-axis values from canonical bytes."""
    spec, data = task
    return _mesh_axis_values(spec, RowPlacement.from_canonical_bytes(data))


class ParetoPricer:
    """Memoizing objective-vector evaluator for one :class:`ParetoSpec`.

    The memo (canonical placement bytes -> value tuple) doubles as the
    search archive: every candidate any driver ever priced is a front
    candidate, so the final nondominated filter runs over everything
    evaluated, not just per-stage winners.
    """

    def __init__(self, spec: ParetoSpec) -> None:
        self.spec = spec
        self._memo: Dict[bytes, Tuple[float, ...]] = {}
        self._latency = spec.latency_objective()
        # Integral unit costs: the mean hop count per row traversal is
        # mirror-fold safe in evaluate_many.
        self._hops = RowObjective(
            cost=HopCostModel(1.0, 0.0, 0.0), weights=spec.weights
        )
        # Mean wire length per row traversal.  Every left-to-right path
        # from i to j is j - i units long, so every placement has the
        # mesh row's distances, and this mean, weighted or not: it is
        # priced once per spec.
        self._wire = RowObjective(
            cost=HopCostModel(0.0, 1.0, 0.0), weights=spec.weights
        )(RowPlacement.mesh(spec.n))

    @property
    def evaluations(self) -> int:
        """Unique placements priced on the full vector so far."""
        return len(self._memo)

    @property
    def archive(self) -> Dict[bytes, Tuple[float, ...]]:
        return self._memo

    def merge(self, memo: Mapping[bytes, Tuple[float, ...]]) -> None:
        """Fold a worker's memo into the archive (same spec, same bits)."""
        for key, values in memo.items():
            self._memo[key] = tuple(values)

    def price_many(
        self, placements: Sequence[RowPlacement], jobs: int = 1
    ) -> List[Tuple[float, ...]]:
        """Objective vectors for a population, in input order.

        Fresh placements are priced in one batch: the latency and hop
        components through a single
        :meth:`~repro.core.latency.RowObjective.evaluate_many` kernel
        call each (the wire term is the spec's one constant), the mesh
        axes fanned over ``jobs`` processes.
        """
        placements = list(placements)
        keys = [p.canonical_bytes() for p in placements]
        fresh: List[Tuple[bytes, RowPlacement]] = []
        seen = set()
        for key, placement in zip(keys, placements):
            if key not in self._memo and key not in seen:
                seen.add(key)
                fresh.append((key, placement))
        if fresh:
            self._price_fresh(fresh, jobs)
        return [self._memo[key] for key in keys]

    def _price_fresh(
        self, fresh: List[Tuple[bytes, RowPlacement]], jobs: int
    ) -> None:
        spec = self.spec
        population = [p for _, p in fresh]
        columns: Dict[str, Sequence[float]] = {}
        if "latency" in spec.objectives:
            columns["latency"] = self._latency.evaluate_many(population)
        mesh_axes = [
            o for o in spec.objectives
            if o in ("power", "area", "channel_load")
        ]
        if mesh_axes:
            rows = parallel_map(
                _price_mesh_axes, [(spec, key) for key, _ in fresh], jobs
            )
            if "power" in spec.objectives:
                hops = self._hops.evaluate_many(population)
                columns["power"] = [
                    rows[i][0] + self._dynamic_proxy_w(hops[i], self._wire)
                    for i in range(len(population))
                ]
            if "area" in spec.objectives:
                columns["area"] = [row[1] for row in rows]
            if "channel_load" in spec.objectives:
                columns["channel_load"] = [row[2] for row in rows]
        for i, (key, _) in enumerate(fresh):
            self._memo[key] = tuple(
                float(columns[axis][i]) for axis in spec.objectives
            )

    def _dynamic_proxy_w(self, row_hops: float, row_wire: float) -> float:
        """Dynamic power at one injected packet/cycle of aggregate traffic.

        ``row_hops`` / ``row_wire`` are mean row hop count and wire
        length; the 2D means are twice that (Eq. 5).  Expected per-cycle
        events: every flit of a packet is written, read and switched at
        each of its ``H + 1`` routers and traverses ``D`` wire units.
        """
        spec = self.spec
        flits = spec.mix.serialization_cycles(spec.flit_bits)
        hops_2d = 2.0 * float(row_hops)
        wire_2d = 2.0 * float(row_wire)
        activity = {
            "buffer_writes": flits * (hops_2d + 1.0),
            "buffer_reads": flits * (hops_2d + 1.0),
            "crossbar_traversals": flits * (hops_2d + 1.0),
            "link_flit_hops": flits * wire_2d,
        }
        return sum(
            dynamic_power(activity, 1, spec.flit_bits).values()
        )


class _VectorObjective:
    """Scalar view of the vector pricer for the SA/exhaustive backends.

    ``value = values[axis] + sum(scale * max(0, values[j] - bound))``
    over the ε-constraints.  Every evaluation lands in the pricer's
    memo, so a constraint solve feeds the archive as a side effect.
    Not sliceable, so no D&C seed; the exact search's population scan
    prices each chunk of classes through :meth:`evaluate_many`, one
    :meth:`ParetoPricer.price_many` call, and a single placement is the
    population of one.
    """

    def __init__(
        self,
        pricer: ParetoPricer,
        axis: int,
        constraints: Tuple[Tuple[int, float, float], ...] = (),
    ) -> None:
        self.pricer = pricer
        self.axis = axis
        self.constraints = tuple(constraints)

    def __call__(self, placement: RowPlacement) -> float:
        return float(self.evaluate_many([placement])[0])

    def evaluate_many(self, placements) -> np.ndarray:
        """The penalized value of each placement, priced in one batch."""
        out = []
        for values in self.pricer.price_many(placements):
            total = values[self.axis]
            for axis_j, bound, scale in self.constraints:
                total += scale * max(0.0, values[axis_j] - bound)
            out.append(total)
        return np.asarray(out, dtype=float)

    def mirror_invariant(self) -> bool:
        """True only when every axis prices mirror images bit for bit:
        the latency axis alone, by its own rule.  The mesh axes sum
        per-router terms in node order, which a mirror reverses."""
        pricer = self.pricer
        return (pricer.spec.objectives == ("latency",)
                and pricer._latency.mirror_invariant())


# ----------------------------------------------------------------------
# Result type
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ParetoPoint:
    """One nondominated design: a placement and its objective vector."""

    placement: RowPlacement
    values: Tuple[float, ...]


@dataclass(frozen=True)
class ParetoFront:
    """The nondominated set of one ``(n, C)`` pareto search.

    Points are canonically ordered by ``(values, placement bytes)``
    and the JSON schema is bit-exact (float-hex values, canonical
    placement bytes), so serialized fronts diff byte-identically across
    ``--jobs`` values.  Wall time is deliberately *not* a field: it
    would be the only nondeterministic bit.
    """

    n: int
    link_limit: int
    objectives: Tuple[str, ...]
    driver: str
    method: str
    points: Tuple[ParetoPoint, ...]
    evaluations: int
    seed: Optional[int] = None

    def values_matrix(self) -> np.ndarray:
        return np.array([p.values for p in self.points], dtype=float)

    def default_reference(self) -> Tuple[float, ...]:
        """The hypervolume reference: 10 % beyond the nadir per axis."""
        if not self.points:
            raise ConfigurationError("empty front has no reference point")
        values = self.values_matrix()
        low = values.min(axis=0)
        high = values.max(axis=0)
        span = high - low
        pad = np.where(span > 0, 0.1 * span, 1.0)
        return tuple(float(v) for v in high + pad)

    def hypervolume(
        self, reference: Optional[Sequence[float]] = None
    ) -> float:
        """Dominated hypervolume (see :func:`hypervolume`)."""
        reference = (
            self.default_reference() if reference is None else reference
        )
        return hypervolume([p.values for p in self.points], reference)

    # -- JSON schema ---------------------------------------------------
    def to_json(self) -> Dict:
        """The shared wire/ledger schema for a front (bit-exact)."""
        return {
            "schema": RESULT_SCHEMA,
            "kind": "pareto_front",
            "n": self.n,
            "link_limit": self.link_limit,
            "objectives": list(self.objectives),
            "driver": self.driver,
            "method": self.method,
            "evaluations": self.evaluations,
            "seed": self.seed,
            "points": [
                {
                    "placement": p.placement.canonical_bytes().hex(),
                    "values": [_float_hex(v) for v in p.values],
                }
                for p in self.points
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ParetoFront":
        """Rebuild a front from :meth:`to_json` output (bit-exact).

        A missing or mistyped field raises :class:`ConfigurationError`
        naming it, as does a point whose placement is not ``n`` routers
        wide or whose values do not match the axes one for one.
        """
        _check_schema(data, "pareto_front")

        def field(name, convert, *default):
            return _json_field(data, "pareto_front", name, convert, *default)

        def axes(value):
            names = _json_list(value, _json_choice(OBJECTIVES))
            if not names or len(set(names)) != len(names):
                raise ValueError(
                    f"expected one or more distinct axes, got {value!r}"
                )
            return names

        def point(value):
            if not isinstance(value, Mapping):
                raise TypeError(f"expected an object, got {value!r}")
            placement = RowPlacement.from_canonical_bytes(
                bytes.fromhex(value.get("placement"))
            )
            if placement.n != n:
                raise ValueError(f"a placement of {placement.n} routers "
                                 f"on a front of n={n}")
            values = _json_list(value.get("values"), float.fromhex)
            if len(values) != len(objectives):
                raise ValueError(f"{len(values)} values on a front of "
                                 f"{len(objectives)} axes")
            return ParetoPoint(placement=placement, values=values)

        n = field("n", _json_int(2))
        objectives = field("objectives", axes)
        return cls(
            n=n,
            link_limit=field("link_limit", _json_int(1)),
            objectives=objectives,
            driver=field("driver", _json_choice(PARETO_DRIVERS)),
            method=field("method", _json_choice(METHODS)),
            points=field("points", lambda v: _json_list(v, point)),
            evaluations=field("evaluations", _json_int(0)),
            seed=field("seed", _json_int(0, optional=True), None),
        )


# ----------------------------------------------------------------------
# Scalar solve tasks (endpoints + ε-constraint points)
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _FrontTask:
    """One scalar solve a driver fans out (picklable)."""

    spec: ParetoSpec
    axis: int
    method: str
    params: AnnealingParams
    base_seed: int
    key: Tuple[int, ...]
    constraints: Tuple[Tuple[int, float, float], ...] = ()
    max_evaluations: Optional[int] = None


@dataclass(frozen=True, eq=False)
class _TaskOutcome:
    """A task's winner plus everything it priced along the way."""

    placement_bytes: bytes
    energy: float
    evaluations: int
    memo: Dict[bytes, Tuple[float, ...]]


def _run_front_task(task: _FrontTask) -> _TaskOutcome:
    """``parallel_map`` worker: one endpoint or ε-constraint solve."""
    spec = task.spec
    pricer = ParetoPricer(spec)
    rng = derived_rng(task.base_seed, *task.key)
    axis_name = spec.objectives[task.axis]
    if axis_name == "latency" and not task.constraints:
        # The latency axis is the scalar optimizer's own objective:
        # sliceable, batchable, dc_sa-compatible.
        objective = spec.latency_objective()
        method = task.method
    else:
        # Generic vector axes cannot be sliced for the D&C seeding;
        # anneal from a random matrix instead (exact stays exact).
        objective = _VectorObjective(pricer, task.axis, task.constraints)
        method = task.method if task.method == "exact" else "only_sa"
    solution = _solve_row(
        spec.n,
        spec.link_limit,
        method=method,
        objective=objective,
        params=task.params,
        rng=rng,
        max_evaluations=task.max_evaluations,
    )
    values = pricer.price_many([solution.placement])[0]
    return _TaskOutcome(
        placement_bytes=solution.placement.canonical_bytes(),
        energy=values[task.axis],
        evaluations=solution.evaluations,
        memo=dict(pricer.archive),
    )


def _endpoint_tasks(
    spec: ParetoSpec,
    method: str,
    params: AnnealingParams,
    base_seed: int,
    max_evaluations: Optional[int],
) -> List[_FrontTask]:
    return [
        _FrontTask(
            spec=spec,
            axis=axis,
            method=method,
            params=params,
            base_seed=base_seed,
            key=(_ENDPOINT_KEY, axis),
            max_evaluations=max_evaluations,
        )
        for axis in range(len(spec.objectives))
    ]


def _epsilon_tasks(
    spec: ParetoSpec,
    endpoint_values: Sequence[Tuple[float, ...]],
    method: str,
    params: AnnealingParams,
    base_seed: int,
    points: int,
    max_evaluations: Optional[int],
) -> List[_FrontTask]:
    """Interior ε levels per secondary axis, bounded by the endpoints."""
    values = np.array(endpoint_values, dtype=float)
    primary_span = float(values[:, 0].max() - values[:, 0].min())
    tasks: List[_FrontTask] = []
    for axis_j in range(1, len(spec.objectives)):
        low = float(values[:, axis_j].min())
        high = float(values[:, axis_j].max())
        span = high - low
        if span <= 0:
            continue
        scale = (
            (primary_span if primary_span > 0 else 1.0) / span
        ) * _PENALTY_STIFFNESS
        for t in range(points):
            eps = low + span * (t + 1) / (points + 1)
            tasks.append(
                _FrontTask(
                    spec=spec,
                    axis=0,
                    method=method,
                    params=params,
                    base_seed=base_seed,
                    key=(_EPSILON_KEY, axis_j, t),
                    constraints=((axis_j, float(eps), float(scale)),),
                    max_evaluations=max_evaluations,
                )
            )
    return tasks


# ----------------------------------------------------------------------
# NSGA-II driver
# ----------------------------------------------------------------------

def _rank_and_crowd(
    values: Sequence[Tuple[float, ...]],
) -> Tuple[List[int], List[float]]:
    """Fast nondominated sort ranks + crowding distances (NSGA-II)."""
    m = len(values)
    dominated_by = [0] * m
    dominates_idx: List[List[int]] = [[] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if dominates(values[i], values[j]):
                dominates_idx[i].append(j)
                dominated_by[j] += 1
            elif dominates(values[j], values[i]):
                dominates_idx[j].append(i)
                dominated_by[i] += 1
    ranks = [0] * m
    current = [i for i in range(m) if dominated_by[i] == 0]
    rank = 0
    while current:
        nxt: List[int] = []
        for i in current:
            ranks[i] = rank
            for j in dominates_idx[i]:
                dominated_by[j] -= 1
                if dominated_by[j] == 0:
                    nxt.append(j)
        current = nxt
        rank += 1

    crowd = [0.0] * m
    fronts: Dict[int, List[int]] = {}
    for i, r in enumerate(ranks):
        fronts.setdefault(r, []).append(i)
    k = len(values[0]) if m else 0
    for members in fronts.values():
        for axis in range(k):
            members.sort(key=lambda i: values[i][axis])
            low = values[members[0]][axis]
            high = values[members[-1]][axis]
            crowd[members[0]] = crowd[members[-1]] = float("inf")
            span = high - low
            if span <= 0:
                continue
            for pos in range(1, len(members) - 1):
                gap = (
                    values[members[pos + 1]][axis]
                    - values[members[pos - 1]][axis]
                )
                crowd[members[pos]] += gap / span
    return ranks, crowd


def _nsga_front(
    spec: ParetoSpec,
    pricer: ParetoPricer,
    seed_placements: Sequence[RowPlacement],
    *,
    jobs: int,
    base_seed: int,
    population: int,
    generations: int,
    obs: Instrumentation,
) -> None:
    """Run the population loop; results accumulate in the pricer archive.

    All randomness is drawn in the parent from one derived stream;
    workers only price, so fronts are byte-identical for every ``jobs``.
    """
    limit = effective_link_limit(spec.n, spec.link_limit)
    rng = derived_rng(base_seed, _NSGA_KEY)
    genotypes: List[ConnectionMatrix] = []
    for placement in seed_placements:
        try:
            genotypes.append(ConnectionMatrix.from_placement(placement, limit))
        except InvalidPlacementError:  # pragma: no cover - seeds are valid
            continue
    while len(genotypes) < population:
        genotypes.append(ConnectionMatrix.random(spec.n, limit, rng))
    genotypes = genotypes[:population]

    def evaluate(matrices: List[ConnectionMatrix]):
        decoded = [m.decode() for m in matrices]
        priced = pricer.price_many(decoded, jobs)
        return [
            (m, d.canonical_bytes(), v)
            for m, d, v in zip(matrices, decoded, priced)
        ]

    pop = evaluate(genotypes)
    for _ in range(generations):
        values = [entry[2] for entry in pop]
        ranks, crowd = _rank_and_crowd(values)

        def better(i: int, j: int) -> int:
            if (ranks[i], -crowd[i]) <= (ranks[j], -crowd[j]):
                return i
            return j

        children: List[ConnectionMatrix] = []
        for _ in range(population):
            a = better(int(rng.integers(len(pop))), int(rng.integers(len(pop))))
            b = better(int(rng.integers(len(pop))), int(rng.integers(len(pop))))
            bits_a = pop[a][0].bits
            bits_b = pop[b][0].bits
            if bits_a.size:
                mask = rng.random(bits_a.shape) < 0.5
                child = np.where(mask, bits_a, bits_b)
                flip = rng.random(child.shape) < (1.0 / child.size)
                child = child ^ flip
            else:
                child = bits_a.copy()
            children.append(ConnectionMatrix(spec.n, limit, child))
        combined = pop + evaluate(children)
        values = [entry[2] for entry in combined]
        ranks, crowd = _rank_and_crowd(values)
        order = sorted(
            range(len(combined)),
            key=lambda i: (ranks[i], -crowd[i], combined[i][1]),
        )
        pop = [combined[i] for i in order[:population]]
        if obs.enabled:
            obs.emit(
                "pareto.generation",
                population=len(pop),
                archive=pricer.evaluations,
            )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def pareto_front(
    n: int,
    link_limit: int,
    objectives: Sequence[str] = ("latency", "power"),
    driver: str = "epsilon",
    gamma: Optional[np.ndarray] = None,
    method: str = "dc_sa",
    params: Optional[AnnealingParams] = None,
    config: Optional[SearchConfig] = None,
    points: int = 5,
    population: int = 16,
    generations: int = 8,
    bandwidth: Optional[BandwidthConfig] = None,
    mix: Optional[PacketMix] = None,
    cost: Optional[HopCostModel] = None,
    obs: Optional[Instrumentation] = None,
) -> ParetoFront:
    """Search the Pareto front of ``P~(n, C)`` on the chosen axes.

    ``objectives`` is an ordered subset of :data:`~repro.api.OBJECTIVES`
    (the value-vector layout); ``driver`` is one of
    :data:`~repro.api.PARETO_DRIVERS`.  From ``config`` the search reads
    the seed, ``jobs`` and ``max_evaluations``; fronts are row-space
    searches of one chain per task, so ``config.space`` must be
    ``"row"`` and ``config.restarts`` 1.  An unseeded config draws its
    base seed once, and ``front.seed`` records it.  ``gamma`` weights
    the latency axis and drives the channel-load axis; ``None`` means
    uniform traffic.  ``points`` sets the ε levels
    per secondary axis; ``population`` / ``generations`` size the NSGA
    loop.  A single-objective ``latency`` call degenerates to the exact
    scalar solve -- bitwise-identical to
    :func:`repro.core.optimizer.solve_row_problem` at the same seed.
    """
    config = (config or SearchConfig()).seeded()
    objectives = tuple(objectives)
    if driver not in PARETO_DRIVERS:
        raise ConfigurationError(
            f"unknown pareto driver {driver!r}; expected one of "
            f"{PARETO_DRIVERS}"
        )
    if config.space != "row":
        raise ConfigurationError(
            f"space must be 'row' for a pareto front search (the axes "
            f"price replicated-row designs), got {config.space!r}"
        )
    if config.restarts != 1:
        raise ConfigurationError(
            f"restarts must be 1 for a pareto front search (each front "
            f"task runs one chain), got {config.restarts}"
        )
    if method not in METHODS:
        raise ConfigurationError(
            f"unknown method {method!r}; expected one of {METHODS}"
        )
    # Refuses C < 1 before any task runs; the spec keeps C as given.
    validated_link_limit(n, link_limit)
    if points < 1:
        raise ConfigurationError(f"points must be >= 1, got {points}")
    if population < 2:
        raise ConfigurationError(f"population must be >= 2, got {population}")
    if generations < 0:
        raise ConfigurationError(
            f"generations must be >= 0, got {generations}"
        )
    params = params or AnnealingParams()
    obs = ensure_obs(obs)
    bandwidth = bandwidth or BandwidthConfig()
    mix = mix or PacketMix.paper_default()
    cost = cost or HopCostModel()

    weights = None
    checked_gamma = None
    if gamma is not None:
        checked_gamma = _check_gamma(gamma, n)
        weights = aggregate_weights(checked_gamma, n)
    spec = ParetoSpec(
        n=n,
        link_limit=link_limit,
        objectives=objectives,
        weights=weights,
        gamma=checked_gamma,
        cost=cost,
        base_flit_bits=bandwidth.base_flit_bits,
        mix=mix,
    )
    base_seed = config.seed
    pricer = ParetoPricer(spec)
    if obs.enabled:
        obs.emit(
            "pareto.start",
            n=n,
            link_limit=link_limit,
            driver=driver,
            objectives=",".join(objectives),
        )

    if len(objectives) == 1:
        # Degenerate single-axis front: the scalar solve itself, on the
        # stream of solve_row_problem's restart 0 -- the bitwise
        # endpoint-agreement contract both drivers share.
        rng = derived_rng(base_seed, effective_link_limit(n, link_limit), 0)
        if objectives[0] == "latency":
            solution = _solve_row(
                n,
                link_limit,
                method=method,
                objective=spec.latency_objective(),
                params=params,
                rng=rng,
                max_evaluations=config.max_evaluations,
            )
        else:
            solution = _solve_row(
                n,
                link_limit,
                method=method if method == "exact" else "only_sa",
                objective=_VectorObjective(pricer, 0),
                params=params,
                rng=rng,
                max_evaluations=config.max_evaluations,
            )
        pricer.price_many([solution.placement], config.jobs)
    else:
        endpoint_outcomes = parallel_map(
            _run_front_task,
            _endpoint_tasks(
                spec, method, params, base_seed, config.max_evaluations
            ),
            config.jobs,
        )
        for outcome in endpoint_outcomes:
            pricer.merge(outcome.memo)
        endpoint_placements = [
            RowPlacement.from_canonical_bytes(o.placement_bytes)
            for o in endpoint_outcomes
        ]
        endpoint_values = pricer.price_many(endpoint_placements, config.jobs)
        if driver == "epsilon":
            tasks = _epsilon_tasks(
                spec, endpoint_values, method, params, base_seed, points,
                config.max_evaluations,
            )
            for outcome in parallel_map(_run_front_task, tasks, config.jobs):
                pricer.merge(outcome.memo)
        else:
            _nsga_front(
                spec,
                pricer,
                endpoint_placements,
                jobs=config.jobs,
                base_seed=base_seed,
                population=population,
                generations=generations,
                obs=obs,
            )

    front_entries = nondominated(
        (values, key) for key, values in pricer.archive.items()
    )
    front_points = tuple(
        ParetoPoint(
            placement=RowPlacement.from_canonical_bytes(key),
            values=values,
        )
        for values, key in front_entries
    )
    front = ParetoFront(
        n=n,
        link_limit=link_limit,
        objectives=objectives,
        driver=driver,
        method=method,
        points=front_points,
        evaluations=pricer.evaluations,
        seed=config.seed,
    )
    if not obs.is_null:
        obs.metrics.counter("pareto_points").inc(len(front_points))
        obs.metrics.counter("pareto_evaluations").inc(front.evaluations)
    if obs.enabled:
        obs.emit(
            "pareto.front",
            n=n,
            link_limit=link_limit,
            size=len(front_points),
            evaluations=front.evaluations,
        )
    return front


def pareto_sweep(
    n: int,
    link_limits: Optional[Sequence[int]] = None,
    **kwargs,
) -> Dict[int, ParetoFront]:
    """One front per cross-section limit (default ``C in {2, 3, 4}``).

    Keyword arguments forward to :func:`pareto_front`; each front is an
    independent search (shared base seed, disjoint derived streams by
    construction since the spec differs only in ``link_limit``).
    """
    limits = tuple(link_limits) if link_limits is not None else (2, 3, 4)
    return {c: pareto_front(n, c, **kwargs) for c in limits}
