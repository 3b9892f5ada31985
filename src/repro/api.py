"""Stable public facade for the express-link placement toolkit.

The solver surface grew keyword-by-keyword across iterations
(``optimize(..., rng=, restarts=, jobs=, max_evaluations=, ...)``).
This module is the deliberate redesign: one frozen
:class:`SearchConfig` carries every knob that shapes *how* a search
runs (seed, restarts, jobs, evaluation cap, search space), and
every search entry point -- :func:`repro.optimize`,
:func:`repro.solve_row_problem`, :func:`place_express_links`, across
all search spaces -- returns one frozen result type:

* :class:`PlacementResult` -- the chosen design plus its Eq. 2 latency
  breakdown; ``.sweep`` / ``.solution`` expose the raw engine objects
  for power users,
* :class:`EvalResult` -- an existing placement, priced by
  :func:`evaluate_placement`.

Both result types and :class:`SearchConfig` round-trip through JSON
(:meth:`~PlacementResult.to_json` / :meth:`~PlacementResult.from_json`)
with float-hex energies and canonical placement bytes, so the HTTP
serving layer (:mod:`repro.serve`), the run ledger
(:mod:`repro.obs.ledger`) and the design store all share one schema.

The pre-redesign keywords (``rng=``, ``restarts=``, ...) are gone;
Python rejects them as unknown keywords.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.routing.shortest_path import (
    check_weights,
    directional_distances,
    slice_means,
)
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError, ReproError
from repro.util.rngtools import fresh_entropy

__all__ = [
    "SEARCH_SPACES",
    "METHODS",
    "OBJECTIVES",
    "PARETO_DRIVERS",
    "RESULT_SCHEMA",
    "SearchConfig",
    "PlacementResult",
    "EvalResult",
    "place_express_links",
    "evaluate_placement",
]

#: Placement search spaces: the paper's replicated row, heterogeneous
#: per-row placements, and pooled-budget 2D chords.  Defined here (not
#: in :mod:`repro.core.search_space`) so :class:`SearchConfig` can
#: validate without importing the search stack.
SEARCH_SPACES = ("row", "hetero", "grid2d")

#: Pareto objective axes a placement can be priced on (all minimized):
#: traffic-weighted mean row head latency, the static+dynamic power
#: proxy, total router area, and the worst-case channel-load saturation
#: bound.  Defined here (not in :mod:`repro.core.pareto`) so the
#: facade names them without importing the front-search stack.
OBJECTIVES = ("latency", "power", "area", "channel_load")

#: Front-search drivers (:func:`repro.pareto_front`'s ``driver=``):
#: the ε-constraint sweep over the scalar backends and the NSGA-II-style
#: population loop.
PARETO_DRIVERS = ("epsilon", "nsga2")

#: Row solvers: the paper's D&C-seeded annealing, annealing from a
#: random matrix, and exhaustive search.  Defined here (not in
#: :mod:`repro.core.optimizer`) so :meth:`PlacementResult.from_json` can
#: validate without importing the search stack.
METHODS = ("dc_sa", "only_sa", "exact")

#: Version stamp of the shared JSON schema (:meth:`SearchConfig.to_json`,
#: :meth:`PlacementResult.to_json`, :meth:`EvalResult.to_json`).  Bump
#: when a field changes meaning; readers reject unknown versions.
RESULT_SCHEMA = 1


def _float_hex(value: Optional[float]) -> Optional[str]:
    """Bit-exact float encoding for the JSON schema (``None`` passes)."""
    return None if value is None else float(value).hex()


def _float_unhex(value: Optional[str]) -> Optional[float]:
    return None if value is None else float.fromhex(value)


_REQUIRED = object()


def _json_field(data: Mapping, kind: str, name: str, convert,
                default: Any = _REQUIRED) -> Any:
    """``convert(data[name])``, failing with a :class:`ConfigurationError`
    that names the field (a missing required field included)."""
    try:
        value = data[name] if default is _REQUIRED else data.get(name, default)
        return convert(value)
    except (ReproError, LookupError, TypeError, ValueError) as exc:
        reason = "missing" if isinstance(exc, KeyError) else exc
        raise ConfigurationError(f"{kind} field {name!r}: {reason}") from None


def _json_list(value: Any, item=lambda v: v) -> tuple:
    """A JSON list as a tuple of ``item(element)``."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {value!r}")
    return tuple(map(item, value))


def _json_int(minimum: int, optional: bool = False):
    """A converter accepting an integer ``>= minimum`` (never a bool),
    or ``None`` when ``optional``."""
    def convert(value: Any) -> Optional[int]:
        if optional and value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"expected an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"expected an integer >= {minimum}, got {value}")
        return int(value)
    return convert


def _json_choice(choices: Tuple[str, ...]):
    """A converter accepting one of ``choices``."""
    def convert(value: Any) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ValueError(f"expected one of {choices}, got {value!r}")
        return value
    return convert


def _json_pair(value: Any, convert) -> tuple:
    """A ``[C, x]`` JSON pair as ``(C, convert(x))``, ``C`` an int >= 1."""
    c, x = _json_list(value)
    return _json_int(1)(c), convert(x)


def _check_schema(data: Mapping, kind: str) -> None:
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{kind} JSON must be an object, got "
                                 f"{type(data).__name__}")
    schema = data.get("schema")
    if schema != RESULT_SCHEMA:
        raise ConfigurationError(
            f"unsupported {kind} schema {schema!r} (expected {RESULT_SCHEMA})"
        )
    if data.get("kind") != kind:
        raise ConfigurationError(
            f"expected kind {kind!r}, got {data.get('kind')!r}"
        )


@dataclass(frozen=True)
class SearchConfig:
    """Everything that shapes *how* a search runs (not *what* it solves).

    Problem parameters (``n``, ``C``, method, cost model, annealing
    schedule) stay explicit on the entry points; this object carries
    the execution knobs so they cannot sprawl into more keywords.

    Attributes
    ----------
    seed:
        Integer base seed (``>= 0``), or ``None`` for fresh entropy,
        drawn once per search (:meth:`seeded`) and recorded in the
        result's config.  Every search derives one independent stream
        per ``(C, restart)`` task from it
        (:func:`repro.util.rngtools.derived_rng`).
    restarts:
        Independent SA chains per ``C``; the best chain wins (ties go
        to the lowest restart index).
    jobs:
        Worker processes; results are bit-identical for every value, so
        ``jobs`` is neither compared nor written by :meth:`to_json`: a
        run's documents are the same at every ``jobs``.  How each move
        is priced is not a knob either: every search runs on the
        machine's Floyd-Warshall tier
        (:func:`repro.routing.impls.default_impl`), and
        :func:`repro.core.annealing.anneal` picks the O(n^2)
        incremental engine whenever it is bit-exact.
    max_evaluations:
        Optional cap (``>= 1``) on unique objective evaluations per
        chain.
    space:
        Placement search space (``--space``): ``"row"`` is the paper's
        replicated-row reduction; ``"hetero"`` searches one placement
        per mesh row (each under the row budget ``C``); ``"grid2d"``
        searches arbitrary same-row chords under the pooled per-cut
        budget ``n * C`` (see :mod:`repro.core.search_space`).  Every
        space runs through the same search runner, so ``restarts`` and
        ``jobs`` apply to all of them.
    """

    seed: Optional[int] = None
    restarts: int = 1
    jobs: int = field(default=1, compare=False)
    max_evaluations: Optional[int] = None
    space: str = "row"

    def __post_init__(self) -> None:
        self._require_int("seed", "an integer >= 0 or None", optional=True)
        for name in ("restarts", "jobs"):
            self._require_int(name, "an integer")
        self._require_int("max_evaluations", "an integer >= 1 or None",
                          optional=True)
        if self.seed is not None and self.seed < 0:
            raise ConfigurationError(
                f"seed must be an integer >= 0 or None, got {self.seed}"
            )
        if self.restarts < 1:
            raise ConfigurationError(f"restarts must be >= 1, got {self.restarts}")
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ConfigurationError(
                f"max_evaluations must be >= 1 or None, got {self.max_evaluations}"
            )
        if self.space not in SEARCH_SPACES:
            raise ConfigurationError(
                f"unknown search space {self.space!r}; expected one of "
                f"{SEARCH_SPACES}"
            )

    def _require_int(self, name: str, expected: str,
                      optional: bool = False) -> None:
        """Reject a non-integer field, naming it; NumPy integers are
        stored as plain ints so they serialize like Python ones."""
        value = getattr(self, name)
        if optional and value is None:
            return
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigurationError(
                f"{name} must be {expected}, got {value!r} "
                f"({type(value).__name__})"
            )
        object.__setattr__(self, name, int(value))

    @classmethod
    def from_cli(cls, args: Any) -> "SearchConfig":
        """Build a config from parsed CLI args (missing flags default)."""
        defaults = cls()
        return cls(**{
            f.name: getattr(args, f.name, getattr(defaults, f.name))
            for f in fields(cls)
        })

    def with_updates(self, **changes: Any) -> "SearchConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    def seeded(self) -> "SearchConfig":
        """This config, with a ``None`` seed replaced by fresh entropy.

        Every search entry point draws here, once, so the result records
        the base seed its derived streams came from and replays exactly.
        """
        if self.seed is not None:
            return self
        return replace(self, seed=fresh_entropy())

    # -- JSON schema ---------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """This config's compared fields as a plain JSON-safe dict."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}

    @classmethod
    def from_json(cls, data: Mapping) -> "SearchConfig":
        """Rebuild a config from :meth:`to_json` output.

        Unknown keys are rejected (a typo'd knob must not silently
        fall back to its default) and validation re-runs.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"SearchConfig JSON must be an object, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown SearchConfig field(s) {unknown}; known fields: "
                f"{sorted(known)}"
            )
        return cls(**dict(data))


# ----------------------------------------------------------------------
# Result objects
# ----------------------------------------------------------------------

def _placement_rows(placement: Any, space: str) -> Tuple[bytes, ...]:
    """Per-row canonical bytes: the exact (unfolded) design encoding.

    Mesh placements serialize one byte string per row -- NOT
    :meth:`~repro.topology.grid.MeshRowsPlacement.canonical_bytes`,
    which mirror-folds (identifies a design with its vertical mirror)
    and therefore cannot round-trip.
    """
    if space == "row":
        return (placement.canonical_bytes(),)
    return tuple(row.canonical_bytes() for row in placement.rows)


def _placement_from_rows(space: str, rows: Tuple[bytes, ...]) -> Any:
    """Inverse of :func:`_placement_rows`; a mesh design's size is its
    row count (its constructor checks every row against it)."""
    decoded = [RowPlacement.from_canonical_bytes(data) for data in rows]
    if space == "row":
        if len(decoded) != 1:
            raise ConfigurationError(
                f"row-space placements serialize as one row, got {len(decoded)}"
            )
        return decoded[0]
    from repro.topology.grid import Grid2DPlacement, HeteroPlacement

    cls = HeteroPlacement if space == "hetero" else Grid2DPlacement
    return cls(n=len(decoded), rows=tuple(decoded))


@dataclass(frozen=True)
class PlacementResult:
    """The unified outcome of every placement search entry point.

    Returned by :func:`repro.optimize`, :func:`repro.solve_row_problem`
    and :func:`place_express_links` in every search space.  The core
    fields (``placement``, ``energy``, ``evaluations``) are always
    filled; the latency-breakdown fields (``flit_bits``,
    ``head_latency``, ``serialization_latency``, ``total_latency``,
    ``latency_curve``) are filled by the sweeping entry points and
    ``None``/empty for single-``C`` solves, where no flit width has
    been chosen.  ``restart_energies`` maps every searched ``C`` to
    its chains' final energies, in restart order.

    ``sweep`` keeps the raw engine object
    (:class:`~repro.core.optimizer.SweepResult`) and ``solution`` the
    per-instance one (:class:`~repro.core.optimizer.RowSolution`) for
    power users, in every space; both are excluded from equality and
    from the JSON schema.
    """

    n: int
    method: str
    space: str
    link_limit: int
    placement: Any
    express_links: Tuple[Tuple[int, ...], ...]
    energy: float
    evaluations: int
    wall_time_s: float
    config: SearchConfig
    flit_bits: Optional[int] = None
    head_latency: Optional[float] = None
    serialization_latency: Optional[float] = None
    total_latency: Optional[float] = None
    latency_curve: Tuple[Tuple[int, float], ...] = ()
    restart_energies: Tuple[Tuple[int, Tuple[float, ...]], ...] = ()
    sweep: Any = field(repr=False, compare=False, default=None)
    solution: Any = field(repr=False, compare=False, default=None)

    # -- constructors --------------------------------------------------
    @classmethod
    def from_sweep(
        cls,
        sweep: Any,
        config: SearchConfig,
        wall_time_s: float,
    ) -> "PlacementResult":
        """Wrap a full ``C`` sweep (any space) as the public type."""
        best = sweep.best
        solution = sweep.solutions[best.link_limit]
        return cls(
            n=sweep.n,
            method=sweep.method,
            space=sweep.space,
            link_limit=best.link_limit,
            placement=best.placement,
            express_links=tuple(sorted(best.placement.express_links)),
            energy=solution.energy,
            evaluations=sum(s.evaluations for s in sweep.solutions.values()),
            wall_time_s=wall_time_s,
            config=config,
            flit_bits=best.flit_bits,
            head_latency=best.latency.head,
            serialization_latency=best.latency.serialization,
            total_latency=best.total_latency,
            latency_curve=sweep.latency_curve(),
            restart_energies=tuple(sorted(sweep.restart_energies.items())),
            sweep=sweep,
        )

    @classmethod
    def from_solution(
        cls,
        solution: Any,
        config: SearchConfig,
        restart_energies: Tuple[Tuple[int, Tuple[float, ...]], ...] = (),
    ) -> "PlacementResult":
        """Wrap a single ``P~(n, C)`` solve (any space) as the public type."""
        return cls(
            n=solution.n,
            method=solution.method,
            space=solution.space,
            link_limit=solution.link_limit,
            placement=solution.placement,
            express_links=tuple(sorted(solution.placement.express_links)),
            energy=solution.energy,
            evaluations=solution.evaluations,
            wall_time_s=solution.wall_time_s,
            config=config,
            restart_energies=restart_energies,
            solution=solution,
        )

    # -- JSON schema ---------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """The shared wire/ledger/store schema for this result.

        Energies and latencies are ``float.hex`` strings (bit-exact);
        the placement is per-row canonical bytes as hex.  ``sweep`` /
        ``solution`` are deliberately dropped: they carry engine
        internals, and equality ignores them, so
        ``from_json(to_json(r)) == r``.
        """
        return {
            "schema": RESULT_SCHEMA,
            "kind": "placement_result",
            "n": self.n,
            "method": self.method,
            "space": self.space,
            "link_limit": self.link_limit,
            "placement_rows": [
                data.hex() for data in _placement_rows(self.placement, self.space)
            ],
            "express_links": [list(link) for link in self.express_links],
            "energy": _float_hex(self.energy),
            "evaluations": self.evaluations,
            "wall_time_s": _float_hex(self.wall_time_s),
            "config": self.config.to_json(),
            "flit_bits": self.flit_bits,
            "head_latency": _float_hex(self.head_latency),
            "serialization_latency": _float_hex(self.serialization_latency),
            "total_latency": _float_hex(self.total_latency),
            "latency_curve": [
                [c, _float_hex(t)] for c, t in self.latency_curve
            ],
            "restart_energies": [
                [c, [_float_hex(e) for e in energies]]
                for c, energies in self.restart_energies
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "PlacementResult":
        """Rebuild a result from :meth:`to_json` output (bit-exact).

        A missing or mistyped field raises :class:`ConfigurationError`
        naming it.
        """
        _check_schema(data, "placement_result")

        def field(name, convert=lambda v: v, default=_REQUIRED):
            return _json_field(data, "placement_result", name, convert, default)

        def placement_size(value):
            value = _json_int(2)(value)
            if value != placement.n:
                raise ValueError(
                    f"{value} != the placement's {placement.n} routers per row"
                )
            return value

        space = field("space", _json_choice(SEARCH_SPACES))
        placement = field("placement_rows", lambda rows: _placement_from_rows(
            space, _json_list(rows, bytes.fromhex)
        ))
        n = field("n", placement_size)
        return cls(
            n=n,
            method=field("method", _json_choice(METHODS)),
            space=space,
            link_limit=field("link_limit", _json_int(1)),
            placement=placement,
            express_links=field(
                "express_links",
                lambda v: _json_list(v, lambda link: _json_list(link, int)),
            ),
            energy=field("energy", float.fromhex),
            evaluations=field("evaluations", _json_int(0)),
            wall_time_s=field("wall_time_s", float.fromhex),
            config=field("config", SearchConfig.from_json),
            flit_bits=field("flit_bits", _json_int(1, optional=True), None),
            head_latency=field("head_latency", _float_unhex, None),
            serialization_latency=field(
                "serialization_latency", _float_unhex, None
            ),
            total_latency=field("total_latency", _float_unhex, None),
            latency_curve=field("latency_curve", lambda v: _json_list(
                v, lambda pair: _json_pair(pair, float.fromhex)
            ), []),
            restart_energies=field("restart_energies", lambda v: _json_list(
                v, lambda pair: _json_pair(
                    pair, lambda es: _json_list(es, float.fromhex)
                )
            ), []),
        )


@dataclass(frozen=True)
class EvalResult:
    """Outcome of :func:`evaluate_placement`: one placement, priced.

    Head latencies are zero-load averages; the serialization and total
    fields are ``None`` when no ``link_limit`` is given (without ``C``
    there is no flit width, hence no ``L_S``).
    """

    n: int
    link_limit: Optional[int]
    row_head_latency: float
    head_latency: float
    worst_case_latency: Optional[float]
    serialization_latency: Optional[float]
    total_latency: Optional[float]
    flit_bits: Optional[int]

    def to_json(self) -> Dict[str, Any]:
        """The shared wire schema for an evaluation (float-hex exact)."""
        return {
            "schema": RESULT_SCHEMA,
            "kind": "eval_result",
            "n": self.n,
            "link_limit": self.link_limit,
            "row_head_latency": _float_hex(self.row_head_latency),
            "head_latency": _float_hex(self.head_latency),
            "worst_case_latency": _float_hex(self.worst_case_latency),
            "serialization_latency": _float_hex(self.serialization_latency),
            "total_latency": _float_hex(self.total_latency),
            "flit_bits": self.flit_bits,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "EvalResult":
        """Rebuild an evaluation from :meth:`to_json` output; a missing
        or mistyped field raises :class:`ConfigurationError` naming it."""
        _check_schema(data, "eval_result")

        def field(name, convert=lambda v: v):
            return _json_field(data, "eval_result", name, convert)

        return cls(
            n=field("n", _json_int(2)),
            link_limit=field("link_limit", _json_int(1, optional=True)),
            row_head_latency=field("row_head_latency", float.fromhex),
            head_latency=field("head_latency", float.fromhex),
            worst_case_latency=field("worst_case_latency", _float_unhex),
            serialization_latency=field("serialization_latency", _float_unhex),
            total_latency=field("total_latency", _float_unhex),
            flit_bits=field("flit_bits", _json_int(1, optional=True)),
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def place_express_links(
    n: int,
    method: str = "dc_sa",
    config: Optional[SearchConfig] = None,
    bandwidth=None,
    mix=None,
    cost=None,
    params=None,
    link_limits: Optional[Tuple[int, ...]] = None,
    obs=None,
) -> PlacementResult:
    """Run the paper's full flow for an ``n x n`` mesh (any space).

    Sweeps every feasible cross-section limit ``C``, solves each
    ``P~(n, C)`` with ``method`` in ``config.space``, adds the
    serialization latency implied by the flit width, and returns the
    best design as a frozen :class:`PlacementResult`.
    """
    from repro.core.optimizer import optimize

    return optimize(
        n,
        method=method,
        bandwidth=bandwidth,
        mix=mix,
        cost=cost,
        params=params,
        link_limits=link_limits,
        obs=obs,
        config=config or SearchConfig(),
    )


def evaluate_placement(
    placement: RowPlacement,
    link_limit: Optional[int] = None,
    bandwidth=None,
    mix=None,
    cost=None,
    weights=None,
    impl: Optional[str] = None,
) -> EvalResult:
    """Price an existing row placement into an :class:`EvalResult`.

    Without ``link_limit`` only the head-latency terms are computed;
    with it the placement is validated against ``C`` and the full
    Eq. 2 breakdown (flit width, serialization, worst case) is filled
    in.  The row is priced once, on ``impl``'s tier (``None``: the
    machine's; ``"reference"`` re-prices against the pure-Python
    oracle), and every field derives from that one distance matrix and
    the row pricer's own mean.  ``weights`` (an ``n x n`` traffic
    matrix) weight the row mean and so
    ``head_latency = 2 * row_head_latency`` and ``total_latency``; the
    worst case stays the maximum over all pairs (Table 2).
    """
    w = None if weights is None else check_weights(weights, placement.n)
    dist = directional_distances(placement, cost, impl=impl)
    row_head_latency = float(slice_means(dist[None], w)[0])
    head_latency = 2.0 * row_head_latency
    if link_limit is None:
        return EvalResult(
            n=placement.n,
            link_limit=None,
            row_head_latency=row_head_latency,
            head_latency=head_latency,
            worst_case_latency=None,
            serialization_latency=None,
            total_latency=None,
            flit_bits=None,
        )
    from repro.core.latency import BandwidthConfig, PacketMix

    placement.validate(link_limit)
    mix = mix or PacketMix.paper_default()
    flit_bits = (bandwidth or BandwidthConfig()).flit_bits(link_limit)
    serialization = mix.serialization_cycles(flit_bits)
    return EvalResult(
        n=placement.n,
        link_limit=link_limit,
        row_head_latency=row_head_latency,
        head_latency=head_latency,
        worst_case_latency=(
            2.0 * float(dist.max()) + mix.worst_serialization_cycles(flit_bits)
        ),
        serialization_latency=serialization,
        total_latency=head_latency + serialization,
        flit_bits=flit_bits,
    )
