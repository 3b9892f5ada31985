"""The search spaces, and the one place that knows how they differ.

The paper's optimizer searches one :class:`~repro.topology.row
.RowPlacement` and replicates it across the mesh (Sec. 4.2).  Two
mesh-level spaces built on :mod:`repro.topology.grid` measure that
reduction:

* ``"hetero"`` -- independent per-row placements, each under the row
  budget ``C`` (:class:`~repro.topology.grid.HeteroPlacement`),
* ``"grid2d"`` -- arbitrary same-row horizontal chords under the pooled
  per-cut budget (:class:`~repro.topology.grid.Grid2DPlacement`).

Every space runs on one search stack -- :func:`repro.optimize`,
:func:`repro.solve_row_problem`, the ``(C, restart)`` runner of
:mod:`repro.core.parallel` and its chain function -- with the space as
a parameter.  :data:`SPACES` is the table that stack reads: per space
its placement class, SA state class, default objective, D&C seed and
exhaustive search.  This module also provides the mesh objective
(:class:`MeshObjective`), the mesh SA move kernels (same state protocol
as :class:`~repro.core.connection_matrix.ConnectionMatrix`, so
:func:`~repro.core.annealing.anneal` runs unchanged) and the mesh
exhaustive searches.

Reduction-parity contract
-------------------------
The load-bearing correctness property: an all-rows-equal design prices
**bit-identically** to the replicated-1D ``RowObjective`` path.
:class:`MeshObjective` groups equal rows (by ``canonical_bytes``) and
combines group energies as ``sum((count_g / R) * e_g)``; with a single
group that sum is exactly ``0.0 + 1.0 * e == e``, the row energy of
the one pricing path ``RowObjective(p)`` also takes.  A naive mean of ``R``
identical floats would *not* be bit-exact for non-power-of-two ``R``
(e.g. ``n = 6``); the group combine is what turns every existing
golden row value into a free oracle for the new spaces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.branch_bound import (
    ExactResult,
    effective_link_limit,
    exhaustive_matrix_search,
)
from repro.core.connection_matrix import ConnectionMatrix, iter_unique_placements
from repro.core.divide_conquer import InitialSolution, initial_solution
from repro.core.latency import RowObjective
from repro.routing.shortest_path import (
    INF,
    HopCostModel,
    directional_distances,
    floyd_warshall_distances_batch,
)
from repro.topology.grid import Grid2DPlacement, HeteroPlacement, MeshRowsPlacement
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError, InvalidPlacementError
from repro.util.rngtools import ensure_rng


# ----------------------------------------------------------------------
# Mesh objective
# ----------------------------------------------------------------------

def _group_rows(rows: Sequence[RowPlacement]):
    """Group rows by ``canonical_bytes`` in first-occurrence order.

    Returns ``(reps, counts, keys)``; the combine rule walks groups in
    this order, so a design's energy is one float operation sequence
    whatever population it is priced in.
    """
    reps: List[RowPlacement] = []
    counts: List[int] = []
    keys: List[bytes] = []
    index: Dict[bytes, int] = {}
    for row in rows:
        key = row.canonical_bytes()
        pos = index.get(key)
        if pos is None:
            index[key] = len(reps)
            reps.append(row)
            counts.append(1)
            keys.append(key)
        else:
            counts[pos] += 1
    return reps, counts, keys


@dataclass(frozen=True)
class MeshObjective:
    """Mean row head latency of a whole mesh design.

    The mesh energy is the row-count-weighted mean of the distinct row
    energies: ``sum over groups of (count_g / R) * e_g`` where rows are
    grouped by ``canonical_bytes`` in first-occurrence order and each
    ``e_g`` comes from the same batched Floyd-Warshall path
    :class:`~repro.core.latency.RowObjective` uses.  A single group
    reduces to exactly ``1.0 * e``, which is the reduction-parity
    guarantee (see module docstring).

    ``weights`` is either a shared ``(n, n)`` traffic matrix applied to
    every row, or a per-row ``(R, n, n)`` stack -- the latter is what
    makes heterogeneous placements strictly win (with shared weights
    the objective separates across rows, so the exhaustive hetero
    optimum is the replicated row optimum).  ``obs`` forwards to the
    underlying :class:`RowObjective`.
    """

    cost: HopCostModel = HopCostModel()
    weights: tuple | None = None
    obs: Optional[object] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.weights is None:
            return
        w = np.asarray(self.weights, dtype=float)
        if w.ndim == 2:
            frozen = tuple(map(tuple, w.tolist()))
        elif w.ndim == 3:
            frozen = tuple(tuple(map(tuple, m)) for m in w.tolist())
        else:
            raise ConfigurationError(
                f"weights must be (n, n) shared or (R, n, n) per-row; "
                f"got shape {w.shape}"
            )
        object.__setattr__(self, "weights", frozen)

    @property
    def per_row_weights(self) -> bool:
        """True when ``weights`` is a per-row ``(R, n, n)`` stack."""
        return (
            self.weights is not None
            and isinstance(self.weights[0][0], tuple)
        )

    def row_objective(self, row_index: Optional[int] = None) -> RowObjective:
        """The :class:`RowObjective` pricing one row of a design."""
        if self.weights is None:
            w = None
        elif self.per_row_weights:
            if row_index is None:
                raise ConfigurationError(
                    "per-row weights need an explicit row index"
                )
            w = self.weights[row_index]
        else:
            w = self.weights
        return RowObjective(cost=self.cost, weights=w, obs=self.obs)

    def _check_design(self, design: MeshRowsPlacement) -> None:
        if self.per_row_weights and len(self.weights) != len(design.rows):
            raise ConfigurationError(
                f"per-row weights cover {len(self.weights)} rows, design "
                f"has {len(design.rows)}"
            )

    def __call__(self, design: MeshRowsPlacement) -> float:
        return float(self.evaluate_many([design])[0])

    def evaluate_many(self, designs) -> np.ndarray:
        """Price a population of whole designs, batching all distinct rows.

        Every distinct row across the whole population is priced once
        by one ``RowObjective.evaluate_many`` stack, and per-row
        energies from the batched kernel are
        batch-composition-independent (each Floyd-Warshall slice is
        relaxed elementwise), so each design's group combine sees the
        same floats whatever else the population holds; a single design
        is the population of one :meth:`__call__` prices.  Per-row
        weights price row ``r`` of every design under row ``r``'s
        objective, one batch per row index, and average the rows.
        """
        designs = list(designs)
        if not designs:
            return np.empty(0, dtype=float)
        for design in designs:
            self._check_design(design)
        if self.per_row_weights:
            per_row = [
                self.row_objective(r).evaluate_many(
                    [design.rows[r] for design in designs]
                ).tolist()
                for r in range(len(self.weights))
            ]
            return np.asarray(
                [sum(vals) / len(vals) for vals in zip(*per_row)], dtype=float
            )
        grouped = []
        reps_by_key: Dict[bytes, RowPlacement] = {}
        for design in designs:
            reps, counts, keys = _group_rows(design.rows)
            grouped.append((len(design.rows), counts, keys))
            for rep, key in zip(reps, keys):
                if key not in reps_by_key:
                    reps_by_key[key] = rep
        energies = self.row_objective().evaluate_many(list(reps_by_key.values()))
        by_key = dict(zip(reps_by_key.keys(), energies.tolist()))
        out = []
        for R, counts, keys in grouped:
            if len(keys) == 1:
                out.append(by_key[keys[0]])
            else:
                out.append(float(sum(
                    (c / R) * by_key[k] for c, k in zip(counts, keys)
                )))
        return np.asarray(out, dtype=float)


# ----------------------------------------------------------------------
# Distance stacks over whole designs
# ----------------------------------------------------------------------

def grid2d_weight_stack(
    design: MeshRowsPlacement,
    cost: HopCostModel | None = None,
) -> np.ndarray:
    """Directional weight stack of the full ``n^2``-node X-subgraph.

    Shape ``(2, n^2, n^2)``: slice 0 holds the left-to-right one-hop
    costs of every in-row horizontal link (locals and chords), slice 1
    the right-to-left ones; there are no inter-row edges (the Y leg is
    handled separately under dimension-order routing).  The matrix is
    block-diagonal by row, so a batched Floyd-Warshall over it relaxes
    each row's block with exactly the per-row kernel's operations --
    off-row intermediates only ever contribute ``inf``, and
    ``min(x, inf)`` returns ``x`` unchanged -- making each block
    bitwise equal to the row's two directional passes (and so to the
    row kernel's one triangular pass and its transpose).
    """
    cost = cost or HopCostModel()
    n = design.n
    size = n * n
    w = np.full((2, size, size), INF)
    idx = np.arange(size)
    w[:, idx, idx] = 0.0
    for r, row in enumerate(design.rows):
        base = r * n
        for i, j in row.all_links():  # i < j by construction
            c = cost.hop_cost(j - i)
            w[0, base + i, base + j] = c
            w[1, base + j, base + i] = c
    return w


def grid2d_head_distances(
    design: MeshRowsPlacement,
    cost: HopCostModel | None = None,
) -> np.ndarray:
    """All-pairs zero-load head latency on the full 2D mesh.

    XY routing with the design's horizontal chords and plain mesh
    columns: the latency from ``(r1, c1)`` to ``(r2, c2)`` is the X leg
    within row ``r1`` plus the plain-column Y leg between rows.  Node
    ``(r, c)`` has index ``r * n + c``.  The mean of this matrix equals
    the X-objective energy plus the plain-mesh column mean -- a
    cross-check the parity suite pins.
    """
    cost = cost or HopCostModel()
    n = design.n
    stack = floyd_warshall_distances_batch(grid2d_weight_stack(design, cost))
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    dx = np.empty((n, n, n))
    for r in range(n):
        lo, hi = r * n, (r + 1) * n
        block = np.where(upper, stack[0, lo:hi, lo:hi], stack[1, lo:hi, lo:hi])
        np.fill_diagonal(block, 0.0)
        dx[r] = block
    dy = directional_distances(RowPlacement.mesh(n), cost)
    full = dx[:, :, None, :] + dy[:, None, :, None]
    return full.reshape(n * n, n * n)


# ----------------------------------------------------------------------
# SA move kernels (ConnectionMatrix state protocol)
# ----------------------------------------------------------------------

class HeteroMatrix:
    """SA state over :class:`HeteroPlacement`: stacked per-row bits.

    ``bits[r]`` is row ``r``'s :class:`~repro.core.connection_matrix
    .ConnectionMatrix` bit plane, so every reachable state decodes to a
    valid hetero placement (each plane decodes valid at budget ``C``)
    and every valid placement is reachable.  Implements the same state
    protocol as ``ConnectionMatrix`` (``copy`` / ``decode`` / ``flip``
    / ``random_move`` / ``num_connection_points`` / ``n`` /
    ``link_limit``), so :func:`~repro.core.annealing.anneal` drives it
    unchanged; a move flips one bit of one row and consumes exactly
    one RNG draw, like the row kernel.
    """

    def __init__(self, n: int, link_limit: int, bits: np.ndarray) -> None:
        expected = (n,) + ConnectionMatrix.shape(n, link_limit)
        bits = np.asarray(bits, dtype=bool)
        if bits.shape != expected:
            raise ConfigurationError(
                f"hetero bits shape {bits.shape} != {expected} for "
                f"n={n}, C={link_limit}"
            )
        self.n = n
        self.link_limit = link_limit
        self.bits = bits

    @classmethod
    def zeros(cls, n: int, link_limit: int) -> "HeteroMatrix":
        shape = (n,) + ConnectionMatrix.shape(n, link_limit)
        return cls(n, link_limit, np.zeros(shape, dtype=bool))

    @classmethod
    def random(cls, n: int, link_limit: int, rng=None) -> "HeteroMatrix":
        gen = ensure_rng(rng)
        shape = (n,) + ConnectionMatrix.shape(n, link_limit)
        return cls(n, link_limit, gen.random(shape) < 0.5)

    @classmethod
    def from_placement(
        cls, placement: MeshRowsPlacement, link_limit: int
    ) -> "HeteroMatrix":
        planes = [
            ConnectionMatrix.from_placement(row, link_limit).bits
            for row in placement.rows
        ]
        return cls(placement.n, link_limit, np.stack(planes))

    @property
    def num_connection_points(self) -> int:
        return self.bits.size

    def random_move(self, rng) -> Tuple[int, int, int]:
        gen = ensure_rng(rng)
        size = self.bits.size
        if size == 0:
            raise ConfigurationError(
                f"no connection points for n={self.n}, C={self.link_limit}"
            )
        flat = int(gen.integers(size))
        plane = self.bits.shape[1] * self.bits.shape[2]
        r, rem = divmod(flat, plane)
        row, layer = divmod(rem, self.bits.shape[2])
        return (r, row, layer)

    def flip(self, r: int, row: int, layer: int) -> None:
        self.bits[r, row, layer] = not self.bits[r, row, layer]

    def copy(self) -> "HeteroMatrix":
        return HeteroMatrix(self.n, self.link_limit, self.bits.copy())

    def decode(self) -> HeteroPlacement:
        rows = tuple(
            ConnectionMatrix(self.n, self.link_limit, self.bits[r]).decode()
            for r in range(self.n)
        )
        return HeteroPlacement(n=self.n, rows=rows)


class Grid2DChords:
    """SA state over :class:`Grid2DPlacement`: a gated chord set.

    The state is the set of present chords ``(r, i, j)`` plus the
    per-cut express totals.  A move toggles one chord: removes are
    always feasible, and an add that would exceed the pooled budget is
    a *no-op* -- the candidate then equals the current state, prices
    identically (a guaranteed memo hit), has delta 0 and is always
    accepted, so the annealer's undo path never needs to reverse a
    gated move asymmetrically.  Every reachable state is feasible and
    every feasible chord set is reachable (add chords one at a time;
    any feasible set stays feasible prefix-wise when added in any
    order, since constraints are monotone).
    """

    def __init__(self, n: int, link_limit: int, chords=()) -> None:
        if n < 2:
            raise ConfigurationError(f"need n >= 2, got {n}")
        if link_limit < 1:
            raise ConfigurationError(f"need C >= 1, got {link_limit}")
        self.n = n
        self.link_limit = link_limit
        self.sites: Tuple[Tuple[int, int, int], ...] = tuple(
            (r, i, j)
            for r in range(n)
            for i in range(n)
            for j in range(i + 2, n)
        )
        #: Pooled express tracks per vertical cut: ``n * (C - 1)``.
        self.express_budget = n * (link_limit - 1)
        self._chords: set = set()
        self._totals = np.zeros(max(n - 1, 0), dtype=np.int64)
        for r, i, j in sorted(chords):
            if not (0 <= r < n and 0 <= i and i + 2 <= j < n):
                raise InvalidPlacementError(
                    f"bad chord {(r, i, j)} for n={n}"
                )
            if (r, i, j) in self._chords:
                continue
            if np.any(self._totals[i:j] + 1 > self.express_budget):
                raise InvalidPlacementError(
                    f"initial chords violate the pooled budget "
                    f"{self.express_budget} at C={link_limit}"
                )
            self._chords.add((r, i, j))
            self._totals[i:j] += 1

    @classmethod
    def from_placement(
        cls, placement: MeshRowsPlacement, link_limit: int
    ) -> "Grid2DChords":
        return cls(placement.n, link_limit, placement.express_links)

    @classmethod
    def random(cls, n: int, link_limit: int, rng=None) -> "Grid2DChords":
        """A random feasible state: one gated toggle walk over the sites.

        Performs ``len(sites)`` random toggles from the empty state --
        a feasibility-preserving random walk whose endpoint plays the
        role ``ConnectionMatrix.random`` plays for the row space.
        """
        gen = ensure_rng(rng)
        state = cls(n, link_limit)
        for _ in range(state.num_connection_points):
            state.flip(*state.random_move(gen))
        return state

    @property
    def num_connection_points(self) -> int:
        # With C = 1 the pooled budget is zero: no chord can ever be
        # added, so the annealer's empty-space early return applies.
        if self.express_budget == 0:
            return 0
        return len(self.sites)

    @property
    def chords(self) -> Tuple[Tuple[int, int, int], ...]:
        return tuple(sorted(self._chords))

    def express_totals(self) -> Tuple[int, ...]:
        """Express links per vertical cut (bookkeeping view)."""
        return tuple(int(t) for t in self._totals)

    def random_move(self, rng) -> Tuple[int, int, int]:
        gen = ensure_rng(rng)
        if self.num_connection_points == 0:
            raise ConfigurationError(
                f"no chord sites for n={self.n}, C={self.link_limit}"
            )
        return self.sites[int(gen.integers(len(self.sites)))]

    def flip(self, r: int, i: int, j: int) -> None:
        site = (r, i, j)
        if site in self._chords:
            self._chords.remove(site)
            self._totals[i:j] -= 1
            return
        if np.any(self._totals[i:j] + 1 > self.express_budget):
            return  # gated: infeasible add is a no-op
        self._chords.add(site)
        self._totals[i:j] += 1

    def copy(self) -> "Grid2DChords":
        return Grid2DChords(self.n, self.link_limit, self._chords)

    def decode(self) -> Grid2DPlacement:
        return Grid2DPlacement.from_chords(self.n, self._chords)


# ----------------------------------------------------------------------
# Exhaustive search at small n
# ----------------------------------------------------------------------

def exhaustive_hetero_search(
    n: int,
    link_limit: int,
    objective: MeshObjective | None = None,
) -> ExactResult:
    """Exhaustive hetero optimum, exploiting row separability.

    The hetero objective is a (count-weighted) mean of independent
    per-row energies and the feasibility rule is per-row, so the space
    separates: each row's optimum can be found independently.  With
    shared weights every row faces the identical subproblem, so one
    replicated :func:`exhaustive_matrix_search` winner is the hetero
    optimum and -- by reduction parity -- ``E(hetero) == E(row)``
    bitwise.  Per-row weights solve one exhaustive search per row and
    can beat the best replicated design strictly.
    """
    objective = objective or MeshObjective()
    limit = effective_link_limit(n, link_limit)
    start = time.perf_counter()
    if not objective.per_row_weights:
        exact = exhaustive_matrix_search(n, limit, objective.row_objective())
        placement = HeteroPlacement.replicate(exact.placement)
        return ExactResult(
            placement=placement,
            energy=objective(placement),
            evaluations=exact.evaluations,
            states_visited=exact.states_visited,
            wall_time_s=time.perf_counter() - start,
        )
    rows: List[RowPlacement] = []
    evaluations = states = 0
    for r in range(n):
        exact = exhaustive_matrix_search(n, limit, objective.row_objective(r))
        rows.append(exact.placement)
        evaluations += exact.evaluations
        states += exact.states_visited
    placement = HeteroPlacement(n=n, rows=tuple(rows))
    return ExactResult(
        placement=placement,
        energy=objective(placement),
        evaluations=evaluations,
        states_visited=states,
        wall_time_s=time.perf_counter() - start,
    )


#: Largest row bit count :func:`exhaustive_replicated_search` enumerates.
_REPLICATED_ENUM_MAX_BITS = 16


def exhaustive_replicated_search(
    n: int,
    link_limit: int,
    objective: MeshObjective,
    space: str = "hetero",
) -> ExactResult:
    """Row-space exhaustive optimum under a :class:`MeshObjective`.

    The oracle for "the best *replicated* design" when the objective
    cannot be expressed as a single :class:`RowObjective` (per-row
    weights): enumerates every distinct row placement without mirror
    folding -- a replicated design and its mirror price differently
    under asymmetric traffic -- and prices each replicated embedding
    with the mesh objective.  First strict minimum wins, matching the
    row-space exact search's tie-breaking.
    """
    cls = SPACES[space].placement
    limit = effective_link_limit(n, link_limit)
    start = time.perf_counter()
    rows, layers = ConnectionMatrix.shape(n, limit)
    bits = rows * layers
    if bits > _REPLICATED_ENUM_MAX_BITS:
        raise ConfigurationError(
            f"replicated enumeration needs {bits} bits > "
            f"{_REPLICATED_ENUM_MAX_BITS}; use a smaller instance"
        )
    candidates = [
        cls.replicate(p) for p in iter_unique_placements(n, limit, fold=False)
    ]
    energies = objective.evaluate_many(candidates)
    best = 0
    for k in range(1, len(candidates)):
        if energies[k] < energies[best]:
            best = k
    return ExactResult(
        placement=candidates[best],
        energy=float(energies[best]),
        evaluations=len(candidates),
        states_visited=1 << bits,
        wall_time_s=time.perf_counter() - start,
    )


#: Largest mesh size the grid2d exhaustive search accepts (the per-row
#: chord count is (n-1)(n-2)/2, so n = 6 means 2^10 row candidates).
GRID2D_EXACT_MAX_N = 6

#: Bound-pruning slack: ``(R - r) * e`` can round above the sequential
#: float sum by ulps, so prune only when the bound clears best by this.
_BOUND_EPS = 1e-9


def exhaustive_grid2d_search(
    n: int,
    link_limit: int,
    objective: MeshObjective | None = None,
) -> ExactResult:
    """Exhaustive grid2d optimum via Pareto-pruned DFS over row designs.

    Enumerates every per-row chord subset feasible on its own, prices
    all candidates with one batched Floyd-Warshall population stack,
    prunes candidates dominated in (energy, per-cut express vector),
    then assigns one candidate per row by depth-first search with
    running pooled cut budgets.  Rows are exchangeable under shared
    weights, so the DFS only visits non-decreasing candidate sequences;
    the admissible bound ``partial + rows_left * e_next`` (with an ulp
    slack) cuts the rest.  The replicated row-space optimum is also
    priced, and wins ties -- which pins ``E(grid2d) <= E(row)``
    bitwise whenever pooling does not strictly help.

    Per-row weights are not supported here (rows stop being
    exchangeable and the search space is better served by the hetero
    separable solve); shared ``(n, n)`` weights are fine.
    """
    objective = objective or MeshObjective()
    if objective.per_row_weights:
        raise ConfigurationError(
            "grid2d exhaustive search supports shared weights only"
        )
    if n > GRID2D_EXACT_MAX_N:
        raise ConfigurationError(
            f"grid2d exhaustive search supports n <= {GRID2D_EXACT_MAX_N}, "
            f"got n={n}"
        )
    limit = effective_link_limit(n, link_limit)
    start = time.perf_counter()

    chords = [(i, j) for i in range(n) for j in range(i + 2, n)]
    m = len(chords)
    budget = n * (limit - 1)
    codes = np.arange(1 << m, dtype=np.int64)
    bitmat = (codes[:, None] >> np.arange(m)[None, :]) & 1  # (2^m, m)
    inc = np.zeros((m, max(n - 1, 1)), dtype=np.int64)
    for a, (i, j) in enumerate(chords):
        inc[a, i:j] = 1
    cuts = bitmat @ inc  # express count per cut, per candidate row
    feasible = (cuts <= budget).all(axis=1)
    cand_bits = bitmat[feasible]
    cand_cuts = cuts[feasible]

    placements = [
        RowPlacement(n, frozenset(
            chords[a] for a in range(m) if row_bits[a]
        ))
        for row_bits in cand_bits
    ]
    energies = objective.row_objective().evaluate_many(placements)

    # Sort by energy (stable on the enumeration index), then keep only
    # the Pareto frontier: a candidate is dominated when an earlier
    # kept one is no worse in energy AND no hungrier on every cut.
    order = sorted(range(len(placements)), key=lambda k: (energies[k], k))
    kept: List[int] = []
    kept_cuts: List[np.ndarray] = []
    for k in order:
        cv = cand_cuts[k]
        if any((kc <= cv).all() for kc in kept_cuts):
            continue
        kept.append(k)
        kept_cuts.append(cv)
    e_kept = [float(energies[k]) for k in kept]
    cuts_kept = [tuple(int(x) for x in cand_cuts[k]) for k in kept]
    num_kept = len(kept)
    num_cuts = len(cuts_kept[0]) if cuts_kept else 0

    best_energy = math.inf
    best_rows: Optional[List[int]] = None
    states = 0

    def dfs(r: int, floor: int, budget_left: Tuple[int, ...],
            partial: float, chosen: List[int]) -> None:
        nonlocal best_energy, best_rows, states
        states += 1
        if r == n:
            if partial < best_energy:
                best_energy = partial
                best_rows = list(chosen)
            return
        for idx in range(floor, num_kept):
            e = e_kept[idx]
            if partial + (n - r) * e > best_energy + _BOUND_EPS:
                break  # energies ascend: nothing later can improve
            cv = cuts_kept[idx]
            ok = True
            for t in range(num_cuts):
                if cv[t] > budget_left[t]:
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(idx)
            dfs(r + 1, idx,
                tuple(b - c for b, c in zip(budget_left, cv)),
                partial + e, chosen)
            chosen.pop()

    dfs(0, 0, (budget,) * num_cuts, 0.0, [])
    assert best_rows is not None  # the all-mesh assignment is always feasible
    placement = Grid2DPlacement(n=n, rows=tuple(
        placements[kept[idx]] for idx in best_rows
    ))
    energy = objective(placement)

    # Tie-break toward the replicated row optimum: when pooling does
    # not strictly help, the result then prices bit-identically to the
    # row-space golden value (reduction parity made actionable).
    row_exact = exhaustive_matrix_search(n, limit, objective.row_objective())
    replicated = Grid2DPlacement.replicate(row_exact.placement)
    rep_energy = objective(replicated)
    if rep_energy <= energy:
        placement, energy = replicated, rep_energy
    return ExactResult(
        placement=placement,
        energy=energy,
        evaluations=len(placements) + row_exact.evaluations,
        states_visited=states + row_exact.states_visited,
        wall_time_s=time.perf_counter() - start,
    )


# ----------------------------------------------------------------------
# The space table
# ----------------------------------------------------------------------

# The row entries look their functions up at call time, so a tracer
# that rebinds module attributes (``perfbench/tracing.py``) sees them.
def _row_seed(n: int, link_limit: int, objective, obs) -> InitialSolution:
    return initial_solution(n, link_limit, objective, obs=obs)


def _row_exact(n: int, link_limit: int, objective) -> ExactResult:
    return exhaustive_matrix_search(n, link_limit, objective)


def _mesh_seed(
    cls, n: int, link_limit: int, objective: MeshObjective, obs
) -> InitialSolution:
    """The D&C seed of a mesh space, priced as a whole design.

    The row space's seed replicated on every row, or under per-row
    weights one row seed per row, each solved under its own row's
    traffic.
    """
    start = time.perf_counter()
    if objective.per_row_weights:
        seeds = [
            initial_solution(n, link_limit, objective.row_objective(r), obs=obs)
            for r in range(n)
        ]
        placement = cls(n=n, rows=tuple(s.placement for s in seeds))
    else:
        seeds = [initial_solution(n, link_limit, objective.row_objective(), obs=obs)]
        placement = cls.replicate(seeds[0].placement)
    return InitialSolution(
        placement=placement,
        energy=objective(placement),
        evaluations=sum(s.evaluations for s in seeds),
        wall_time_s=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class Space:
    """How one search space differs from the others.

    ``placement`` is the design class (its ``mesh(n)`` is the ``C = 1``
    design), ``state`` the SA state class (``random(n, C, rng)`` and
    ``from_placement(p, C)``), ``objective`` the default objective
    class (built with ``cost=``), ``seed(n, C, objective, obs)`` the
    D&C seed and ``exact(n, C, objective)`` the exhaustive search.
    """

    name: str
    placement: type
    state: type
    objective: type
    seed: Callable[..., InitialSolution]
    exact: Callable[..., ExactResult]

    def objective_for(self, objective=None):
        """``objective``, or a default objective of this space for ``None``.

        The row space takes any callable of a row placement; the mesh
        kernels read a :class:`MeshObjective`'s rows, so a mesh space
        refuses any other objective.
        """
        if objective is None:
            return self.objective()
        if self.objective is MeshObjective and not isinstance(objective, MeshObjective):
            raise ConfigurationError(
                f"{self.name}-space solves need a MeshObjective (or None); "
                f"got {type(objective).__name__}"
            )
        return objective


#: Every search space by name, in :data:`repro.api.SEARCH_SPACES` order.
SPACES: Dict[str, Space] = {
    "row": Space("row", RowPlacement, ConnectionMatrix, RowObjective,
                 _row_seed, _row_exact),
    "hetero": Space("hetero", HeteroPlacement, HeteroMatrix, MeshObjective,
                    partial(_mesh_seed, HeteroPlacement),
                    exhaustive_hetero_search),
    "grid2d": Space("grid2d", Grid2DPlacement, Grid2DChords, MeshObjective,
                    partial(_mesh_seed, Grid2DPlacement),
                    exhaustive_grid2d_search),
}


def space_of(placement) -> Space:
    """The space whose designs ``placement`` belongs to."""
    for space in SPACES.values():
        if isinstance(placement, space.placement):
            return space
    raise ConfigurationError(
        f"not a search-space placement: {type(placement).__name__}"
    )
