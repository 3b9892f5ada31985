"""Simulated annealing over the connection-matrix space (Section 4.4).

The engine follows the paper's setup exactly (Table 1):

* exponential acceptance ``exp(-dL / T)`` for uphill moves,
* linear-in-stages cooling -- the temperature is *divided* by the
  cooldown scale ``S_c`` after every ``m_c`` moves,
* moves flip a single connection point of the matrix, which keeps every
  visited state valid and every valid placement reachable,
* default parameters ``T0 = 10`` cycles, ``m = 10^4`` total moves,
  ``S_c = 2``, ``m_c = 10^3``.

The objective is pluggable (any callable ``RowPlacement -> float``); the
paper's is the mean row head latency evaluated by directional
Floyd-Warshall, and Section 5.6.4 swaps in a traffic-weighted variant.

How :func:`anneal` prices a move is chosen from its inputs, not
configured.  When the state reports link diffs (``flip_diff``) and the
objective hands out a bit-exact O(n^2) evaluator
(:meth:`~repro.core.latency.RowObjective.incremental_evaluator`), the
run walks the decoded link set itself and prices memo misses with the
dynamic APSP engine of :mod:`repro.routing.incremental`
(:class:`_EngineWalk`).  Otherwise -- mesh-space states, arbitrary
callables, the pure-Python oracle tier -- every candidate is decoded
and priced by the objective (:class:`_DecodeWalk`).  Both walks visit
the same states with the same energies and counters, bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.connection_matrix import ConnectionMatrix
from repro.obs.instrument import Instrumentation, ensure_obs
from repro.topology.row import Link, RowPlacement
from repro.util.rngtools import ensure_rng

Objective = Callable[[RowPlacement], float]

#: Accepted moves between two full Floyd-Warshall self-checks of the
#: engine walk (see :meth:`_EngineWalk.drifted`).
SELF_CHECK_EVERY = 1_000


@dataclass(frozen=True)
class AnnealingParams:
    """Simulated-annealing hyperparameters (paper Table 1)."""

    initial_temperature: float = 10.0
    total_moves: int = 10_000
    cooldown_scale: float = 2.0
    moves_per_cooldown: int = 1_000

    def __post_init__(self) -> None:
        if self.initial_temperature <= 0:
            raise ValueError("initial temperature must be positive")
        if self.total_moves < 0:
            raise ValueError("total moves must be nonnegative")
        if self.cooldown_scale <= 1.0:
            raise ValueError("cooldown scale must be > 1")
        if self.moves_per_cooldown <= 0:
            raise ValueError("moves per cooldown must be positive")

    def temperature(self, move_index: int) -> float:
        """Temperature in effect at ``move_index`` (0-based)."""
        stages = move_index // self.moves_per_cooldown
        return self.initial_temperature / (self.cooldown_scale ** stages)


@dataclass
class AnnealingResult:
    """Outcome of one annealing run.

    ``trace`` records ``(evaluation_count, best_energy_so_far)`` pairs
    -- the raw data behind the paper's Figure 7 quality-vs-runtime
    curves, where runtime is measured in objective evaluations.
    """

    best_placement: RowPlacement
    best_energy: float
    initial_energy: float
    evaluations: int
    accepted_moves: int
    uphill_accepted: int
    wall_time_s: float
    trace: List[Tuple[int, float]] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Fractional energy reduction relative to the initial state."""
        if self.initial_energy == 0:
            return 0.0
        return (self.initial_energy - self.best_energy) / self.initial_energy


class MemoizedObjective:
    """Objective wrapper caching energies by placement.

    SA frequently revisits states (a flip and its undo decode to the
    same placement), and distinct matrices can decode identically; the
    cache turns those repeats into dictionary hits.  Also counts true
    evaluations for runtime normalization (Figure 7).

    Entries are keyed by :meth:`RowPlacement.canonical_bytes` -- the
    exact connection structure, not object identity and not the
    mirror-invariant ``canonical_key`` (which would alias a placement
    with its reversal and silently corrupt traffic-weighted
    objectives once a cache is shared across restarts).  The byte key
    maps 1:1 to placement values, so hit/miss patterns -- and therefore
    search trajectories -- are identical to placement-keyed caching.
    Any other 1:1 key gives the same pattern: the engine walk keys by
    a link-set bitmask through :meth:`lookup_key` / :meth:`store_key`.

    The cache is bounded: once it holds ``max_size`` entries it is
    cleared wholesale, so long multi-restart sweeps cannot grow memory
    without limit.  Clearing only costs recomputation -- the objective
    is deterministic, so cached and recomputed energies agree and the
    search trajectory is unaffected.
    """

    #: Default cache bound; ~10x the states a paper-sized run visits.
    DEFAULT_MAX_SIZE = 100_000

    def __init__(self, objective: Objective,
                 max_size: int = DEFAULT_MAX_SIZE) -> None:
        if max_size <= 0:
            raise ValueError("memo cache size must be positive")
        self._objective = objective
        self._cache: dict = {}
        self.max_size = max_size
        self.evaluations = 0
        self.calls = 0
        self.hits = 0
        self.misses = 0
        self.overflows = 0

    #: Sentinel returned by :meth:`lookup_key` on a cache miss (``None``
    #: is reserved for in-batch placeholders inside :meth:`evaluate_many`).
    MISS = object()

    def lookup_key(self, key):
        """Probe the cache by a key 1:1 with placements, accounting one
        call plus a hit or a miss.

        Returns the cached energy, or :data:`MISS` -- the caller must
        then compute the energy and hand it to :meth:`store_key`.
        """
        self.calls += 1
        hit = self._cache.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        return self.MISS

    def store_key(self, key, value: float) -> float:
        """Insert a freshly computed energy (the second half of a miss);
        once ``max_size`` entries are held the cache is cleared first."""
        if len(self._cache) >= self.max_size:
            self._cache.clear()
            self.overflows += 1
        self._cache[key] = value
        self.evaluations += 1
        return value

    def clear(self) -> None:
        """Forget every cached energy (counters are kept)."""
        self._cache.clear()

    def mirror_invariant(self) -> bool:
        """Whether the wrapped objective prices mirror images alike.

        Passes through the objective's own
        :meth:`~repro.core.latency.RowObjective.mirror_invariant`; an
        objective that declares nothing keeps the exact search's
        documented mirror fold.
        """
        declared = getattr(self._objective, "mirror_invariant", None)
        return True if declared is None else bool(declared())

    def __call__(self, placement: RowPlacement) -> float:
        key = placement.canonical_bytes()
        value = self.lookup_key(key)
        if value is not self.MISS:
            return value
        return self.store_key(key, self._objective(placement))

    def evaluate_many(
        self,
        placements: Sequence[RowPlacement],
        folded: bool = False,
    ) -> np.ndarray:
        """Batch counterpart of calling the memo on each placement in order.

        Every counter (``calls``/``hits``/``misses``/``evaluations``/
        ``overflows``) and the final cache contents match the scalar
        loop exactly: placements are walked in order, with misses
        marked by in-cache placeholders so a duplicate later in the
        batch registers as the hit it would have been.  All misses are
        then priced together -- one ``objective.evaluate_many`` call
        when the wrapped objective supports it, a scalar loop otherwise
        (a key missed twice around a wholesale clear still counts two
        evaluations but shares one kernel slice; the objective is
        deterministic, so the values agree).

        ``folded=True`` asserts the caller already reduced the batch to
        placements pairwise distinct under the objective's dedup key
        (one per mirror pair when it is mirror-invariant) that are
        also disjoint from everything previously priced through this
        memo (the exact enumerators' flush pattern: fresh memo,
        globally unique stream).  The memo then bulk-counts the batch
        as misses and skips both the per-placement cache probe and the
        store -- the keying bytes are never computed and the values are
        *not* cached -- while the objective skips its own dedup pass.
        Values and every counter are identical to the scalar loop under
        that contract.
        """
        placements = list(placements)
        if folded:
            count = len(placements)
            self.calls += count
            self.misses += count
            self.evaluations += count
            batched = getattr(self._objective, "evaluate_many", None)
            if batched is None:
                return np.asarray(
                    [float(self._objective(p)) for p in placements], dtype=float
                )
            return np.asarray(batched(placements, folded=True), dtype=float)
        out: List[Optional[float]] = [None] * len(placements)
        pending: dict = {}
        unresolved: List[Tuple[int, bytes]] = []
        for idx, placement in enumerate(placements):
            key = placement.canonical_bytes()
            self.calls += 1
            if key in self._cache:
                self.hits += 1
                value = self._cache[key]
                if value is None:  # placeholder from this same batch
                    unresolved.append((idx, key))
                else:
                    out[idx] = value
                continue
            self.misses += 1
            if len(self._cache) >= self.max_size:
                self._cache.clear()
                self.overflows += 1
            self._cache[key] = None
            self.evaluations += 1
            pending[key] = placement
            unresolved.append((idx, key))
        if pending:
            batched = getattr(self._objective, "evaluate_many", None)
            reps = list(pending.values())
            if batched is None:
                values = [float(self._objective(p)) for p in reps]
            else:
                values = [float(v) for v in batched(reps)]
            by_key = dict(zip(pending.keys(), values))
            for key, value in by_key.items():
                if key in self._cache and self._cache[key] is None:
                    self._cache[key] = value
            for idx, key in unresolved:
                out[idx] = by_key[key]
        return np.asarray(out, dtype=float)

    @property
    def hit_ratio(self) -> float:
        """Fraction of calls answered from the cache."""
        return self.hits / self.calls if self.calls else 0.0

    def __len__(self) -> int:
        return len(self._cache)


class _DecodeWalk:
    """Decode every candidate and price it through a placement memo.

    The paper's walk: each memo miss is one objective call -- for
    :class:`~repro.core.latency.RowObjective` a full Floyd-Warshall
    pass.  It works for any state with the move protocol and any
    objective.
    """

    def __init__(self, state, objective: Objective,
                 placement: RowPlacement) -> None:
        self.state = state
        self.memo = MemoizedObjective(objective)
        self.placement = placement

    def price(self) -> float:
        """Energy of ``placement`` (the initial state)."""
        return self.memo(self.placement)

    def propose(self, site) -> float:
        self.state.flip(*site)
        self.placement = self.state.decode()
        return self.memo(self.placement)

    def reject(self, site) -> None:
        self.state.flip(*site)

    def drifted(self) -> bool:
        return False

    def report(self, metrics) -> None:
        pass


class _EngineWalk:
    """Walk the decoded link set and price memo misses in O(n^2).

    ``counts`` is the multiset of links over all layers (layers may
    duplicate a link; the placement holds a link while its count is
    positive), kept current from each move's ``flip_diff`` -- so no
    candidate is ever decoded.  ``key`` is the placement's link set as
    a bitmask (bit ``a * n + b`` for link ``(a, b)``), toggled whenever
    a count crosses zero: a small memo key that maps 1:1 to
    ``canonical_bytes`` at fixed ``n``, so hits, misses and evaluations
    match :class:`_DecodeWalk` move for move.

    The engine is synced lazily.  It stays at the link set it last
    priced, and a memo miss moves it to the candidate's link set with
    one ``apply_link_changes`` call, so a rejected move costs nothing
    to undo and a repeated state costs a dictionary probe.
    """

    def __init__(self, state: ConnectionMatrix, evaluator) -> None:
        self.state = state
        self.evaluator = evaluator
        self.engine = evaluator.engine
        self.memo = MemoizedObjective(evaluator.objective)
        self.counts: Dict[Link, int] = {}
        self.key = 0
        self._diff: Tuple = ((), ())
        for layer in range(state.bits.shape[1]):
            self._shift(state.layer_links(layer), ())
        self.incremental = self.selfchecks = self.resyncs = 0

    @property
    def placement(self) -> RowPlacement:
        return RowPlacement.from_normalized(self.state.n, frozenset(self.counts))

    def price(self) -> float:
        """Energy of the current link set: memo hit, or sync and price."""
        value = self.memo.lookup_key(self.key)
        if value is not MemoizedObjective.MISS:
            return value
        engine, links = self.engine, self.counts.keys()
        changes = [(a, b, False) for a, b in engine.links - links]
        changes.extend((a, b, True) for a, b in links - engine.links)
        if changes:
            engine.apply_link_changes(changes)
            self.incremental += 1
        return self.memo.store_key(self.key, self.evaluator.energy())

    def _shift(self, added, removed) -> None:
        counts, n = self.counts, self.state.n
        for link in removed:
            left = counts[link] - 1
            if left:
                counts[link] = left
            else:
                del counts[link]
                self.key ^= 1 << (link[0] * n + link[1])
        for link in added:
            held = counts.get(link, 0)
            counts[link] = held + 1
            if not held:
                self.key ^= 1 << (link[0] * n + link[1])

    def propose(self, site) -> float:
        self._diff = self.state.flip_diff(*site)
        self.state.flip(*site)
        self._shift(*self._diff)
        return self.price()

    def reject(self, site) -> None:
        self.state.flip(*site)
        added, removed = self._diff
        self._shift(removed, added)

    def drifted(self) -> bool:
        """Compare the engine with a full solve; on a mismatch rebuild
        it and forget every energy it priced (the caller re-prices)."""
        self.selfchecks += 1
        if self.engine.self_check():
            return False
        self.resyncs += 1
        self.engine.resync()
        self.memo.clear()
        return True

    def report(self, metrics) -> None:
        metrics.counter("sa.eval.incremental").inc(self.incremental)
        metrics.counter("sa.eval.full").inc(1 + self.selfchecks + self.resyncs)
        metrics.counter("sa.selfcheck").inc(self.selfchecks)
        metrics.counter("sa.resync").inc(self.resyncs)


def _walk(state, objective: Objective):
    """The engine walk where it is bit-exact, else the decode walk."""
    placement = state.decode()
    factory = getattr(objective, "incremental_evaluator", None)
    if factory is not None and hasattr(state, "flip_diff"):
        evaluator = factory(placement)
        if evaluator is not None:
            return _EngineWalk(state, evaluator)
    return _DecodeWalk(state, objective, placement)


def anneal(
    initial: ConnectionMatrix,
    objective: Objective,
    params: AnnealingParams | None = None,
    rng=None,
    max_evaluations: Optional[int] = None,
    trace_every: int = 1,
    obs: Optional[Instrumentation] = None,
    progress_every: int = 0,
) -> AnnealingResult:
    """Run simulated annealing from ``initial`` and return the best state.

    Parameters
    ----------
    initial:
        Starting connection matrix (mutated in place during the run; a
        copy is taken so the caller's object is untouched).  Any state
        implementing the same move protocol works -- ``copy`` /
        ``decode`` / ``random_move`` (returning an opaque site tuple) /
        ``flip(*site)`` (its own inverse) / ``num_connection_points``
        plus ``n`` and ``link_limit`` attributes -- which is how the
        hetero and grid2d kernels in :mod:`repro.core.search_space`
        ride this engine unchanged.
    objective:
        Energy function on decoded placements; lower is better.  With
        a :class:`~repro.core.latency.RowObjective` that offers an
        incremental evaluator (integral hop costs, any tier but the
        pure-Python oracle) and a state with ``flip_diff``, memo misses
        are priced by the O(n^2) engine instead of a full
        Floyd-Warshall pass.  The run is the same bit for bit either
        way; the engine walk re-checks itself against a full solve
        every :data:`SELF_CHECK_EVERY` accepted moves and, on a
        mismatch, emits ``sa.resync``, rebuilds, and re-prices the
        current and best states from scratch.
    params:
        Schedule parameters; defaults to the paper's Table 1.
    max_evaluations:
        Optional hard cap on *unique* objective evaluations -- the
        budget knob used to compare OnlySA and D&C_SA at equal runtime
        (Section 5.3).
    trace_every:
        Record the best-so-far energy every this many moves.
    obs:
        Optional :class:`~repro.obs.Instrumentation`.  With a sink
        attached the run emits ``sa.start``, one ``sa.stage`` per
        cooling stage (acceptance / uphill rates, best energy, memo hit
        ratio), ``sa.best`` on every improvement and a final ``sa.end``.
        Instrumentation never touches the RNG stream, so results are
        identical with or without it.
    progress_every:
        With ``obs`` attached, additionally emit a ``sa.progress``
        event every this many moves (0 disables).
    """
    params = params or AnnealingParams()
    gen = ensure_rng(rng)
    obs = ensure_obs(obs)
    state = initial.copy()

    start = time.perf_counter()
    walk = _walk(state, objective)
    memo = walk.memo
    current_energy = walk.price()
    best_placement = walk.placement
    initial_energy = current_energy
    best_energy = current_energy
    trace: List[Tuple[int, float]] = [(memo.evaluations, best_energy)]
    accepted = 0
    uphill = 0

    if obs.enabled:
        obs.emit(
            "sa.start",
            move=0,
            n=state.n,
            link_limit=state.link_limit,
            initial_energy=initial_energy,
            total_moves=params.total_moves,
            initial_temperature=params.initial_temperature,
            moves_per_cooldown=params.moves_per_cooldown,
        )

    if state.num_connection_points == 0:
        # C = 1 or n = 2: the mesh row is the only state.
        if obs.enabled:
            obs.emit("sa.end", move=0, best_energy=best_energy,
                     evaluations=memo.evaluations, accepted=0, uphill=0)
        return AnnealingResult(
            best_placement=best_placement,
            best_energy=best_energy,
            initial_energy=initial_energy,
            evaluations=memo.evaluations,
            accepted_moves=0,
            uphill_accepted=0,
            wall_time_s=time.perf_counter() - start,
            trace=trace,
        )

    # Per-cooling-stage accounting (reported via sa.stage events; the
    # integer bumps are cheap enough to keep unconditionally).
    stage = 0
    stage_moves = stage_accepted = stage_uphill = 0

    def _emit_stage(last_move: int) -> None:
        obs.emit(
            "sa.stage",
            move=last_move,
            stage=stage,
            temperature=params.temperature(stage * params.moves_per_cooldown),
            moves=stage_moves,
            accepted=stage_accepted,
            uphill=stage_uphill,
            best_energy=best_energy,
            current_energy=current_energy,
            memo_hit_ratio=memo.hit_ratio,
            evaluations=memo.evaluations,
        )

    move = 0
    moves_done = 0
    for move in range(params.total_moves):
        if max_evaluations is not None and memo.evaluations >= max_evaluations:
            break
        new_stage = move // params.moves_per_cooldown
        if new_stage != stage:
            if obs.enabled:
                _emit_stage(move - 1)
            stage = new_stage
            stage_moves = stage_accepted = stage_uphill = 0
        site = state.random_move(gen)
        energy = walk.propose(site)
        delta = energy - current_energy
        stage_moves += 1
        moves_done += 1
        if delta <= 0 or gen.random() < math.exp(-delta / params.temperature(move)):
            current_energy = energy
            accepted += 1
            stage_accepted += 1
            if delta > 0:
                uphill += 1
                stage_uphill += 1
            if energy < best_energy:
                best_energy = energy
                best_placement = walk.placement
                if obs.enabled:
                    obs.emit("sa.best", move=move, energy=best_energy,
                             evaluations=memo.evaluations)
            if accepted % SELF_CHECK_EVERY == 0 and walk.drifted():
                # Energies priced since the last check are suspect:
                # re-price the current and best states from scratch.
                repaired = objective(walk.placement)
                best_energy = objective(best_placement)
                if obs.enabled:
                    obs.emit("sa.resync", move=move,
                             energy_before=current_energy,
                             energy_after=repaired,
                             evaluations=memo.evaluations)
                current_energy = repaired
                if repaired < best_energy:
                    best_energy, best_placement = repaired, walk.placement
        else:
            walk.reject(site)
        if move % trace_every == 0:
            trace.append((memo.evaluations, best_energy))
        if progress_every and obs.enabled and move % progress_every == 0:
            obs.emit("sa.progress", move=move,
                     current_energy=current_energy, best_energy=best_energy,
                     evaluations=memo.evaluations,
                     memo_hit_ratio=memo.hit_ratio)

    trace.append((memo.evaluations, best_energy))
    if obs.enabled:
        if stage_moves:
            _emit_stage(move)
        obs.emit("sa.end", move=move, best_energy=best_energy,
                 evaluations=memo.evaluations, accepted=accepted,
                 uphill=uphill, memo_hit_ratio=memo.hit_ratio,
                 wall_time_s=time.perf_counter() - start)
    if not obs.is_null:
        m = obs.metrics
        m.counter("sa.moves").inc(moves_done)
        m.counter("sa.accepted").inc(accepted)
        m.counter("sa.uphill").inc(uphill)
        m.counter("sa.evaluations").inc(memo.evaluations)
        m.counter("sa.memo_hits").inc(memo.hits)
        m.counter("sa.memo_misses").inc(memo.misses)
        m.gauge("sa.memo_hit_ratio").set(memo.hit_ratio)
        m.gauge("sa.best_energy").set(best_energy)
        # Wall-derived rate: excluded from the deterministic summary.
        m.meter("sa.move_rate").add(moves_done, time.perf_counter() - start)
        walk.report(m)
    return AnnealingResult(
        best_placement=best_placement,
        best_energy=best_energy,
        initial_energy=initial_energy,
        evaluations=memo.evaluations,
        accepted_moves=accepted,
        uphill_accepted=uphill,
        wall_time_s=time.perf_counter() - start,
        trace=trace,
    )
