"""Engine-walk annealing: byte-identical trajectories to full FW.

:func:`anneal` prices memo misses with the O(n^2) incremental engine
whenever that is bit-exact -- a ``RowObjective`` with integral hop
costs on any tier but the pure-Python oracle.  That choice changes how
each candidate is priced, not what the search does, so every observable
of the run (placements, energies, evaluation counts, traces, accept
statistics) must be bit-identical to the decode-and-FW walk, reached
here through a plain callable wrapping the objective, through
``impl="reference"``, or by pinning the whole process to the oracle
tier (the ``pin_tier`` fixture).
"""

import numpy as np
import pytest

import repro.core.annealing as annealing
from repro.api import SearchConfig
from repro.core.annealing import AnnealingParams, anneal
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective
from repro.core.optimizer import optimize, solve_row_problem
from repro.obs import Instrumentation, MemorySink
from repro.routing.incremental import IncrementalApspEngine
from repro.routing.shortest_path import HopCostModel

SMOKE = AnnealingParams(total_moves=600, moves_per_cooldown=150)


def full_fw(objective):
    """The same objective without its incremental evaluator: anneal
    then decodes and fully prices every candidate."""
    return lambda placement: objective(placement)


def run_pair(n, limit, seed, objective=None, max_evaluations=None, obs=None):
    """One anneal under each walk from identical starting points."""
    obj = objective or RowObjective()
    rng = np.random.default_rng(seed)
    start = ConnectionMatrix.random(n, limit, rng=rng)
    full = anneal(
        start.copy(), full_fw(obj), SMOKE, rng=np.random.default_rng(seed + 1),
        max_evaluations=max_evaluations,
    )
    engine = anneal(
        start.copy(), obj, SMOKE, rng=np.random.default_rng(seed + 1),
        max_evaluations=max_evaluations, obs=obs,
    )
    return full, engine


def assert_trajectory_identical(full, incr):
    assert incr.best_placement == full.best_placement
    assert incr.best_energy == full.best_energy
    assert incr.initial_energy == full.initial_energy
    assert incr.evaluations == full.evaluations
    assert incr.accepted_moves == full.accepted_moves
    assert incr.uphill_accepted == full.uphill_accepted
    assert incr.trace == full.trace


def engine_counters(obs):
    return obs.metrics.snapshot()["counters"]


class TestAnnealParity:
    @pytest.mark.parametrize("n,limit", [(6, 2), (8, 3), (8, 4), (16, 3)])
    def test_byte_identical_trajectory(self, n, limit):
        obs = Instrumentation(sinks=[MemorySink()])
        full, engine = run_pair(n, limit, seed=17 * n + limit, obs=obs)
        assert_trajectory_identical(full, engine)
        assert engine_counters(obs)["sa.eval.incremental"] > 0

    def test_parity_under_evaluation_cap(self):
        full, incr = run_pair(8, 3, seed=23, max_evaluations=150)
        assert_trajectory_identical(full, incr)
        assert full.evaluations <= 150

    def test_parity_with_weighted_objective(self):
        rng = np.random.default_rng(1)
        w = tuple(map(tuple, rng.random((8, 8)).tolist()))
        obs = Instrumentation(sinks=[MemorySink()])
        full, incr = run_pair(
            8, 3, seed=29, objective=RowObjective(weights=w), obs=obs
        )
        assert_trajectory_identical(full, incr)
        assert engine_counters(obs)["sa.eval.incremental"] > 0

    def test_parity_with_frequent_selfchecks(self, monkeypatch):
        # A self-check after every accepted move: the strongest drift
        # probe the annealer can run.
        monkeypatch.setattr(annealing, "SELF_CHECK_EVERY", 1)
        obs = Instrumentation(sinks=[MemorySink()])
        full, incr = run_pair(6, 3, seed=31, obs=obs)
        assert_trajectory_identical(full, incr)
        counters = engine_counters(obs)
        assert counters["sa.selfcheck"] == incr.accepted_moves
        assert counters.get("sa.resync", 0) == 0

    def test_parity_under_memo_overflow(self, monkeypatch):
        # A tiny memo clears wholesale many times per run; the engine
        # walk must re-price exactly the states the decode walk does.
        monkeypatch.setattr(
            annealing.MemoizedObjective.__init__, "__defaults__", (16,)
        )
        full, incr = run_pair(10, 4, seed=37)
        assert_trajectory_identical(full, incr)


class TestWalkSelection:
    """The engine walk runs exactly where it is bit-exact."""

    def run(self, objective, state=None):
        obs = Instrumentation(sinks=[MemorySink()])
        state = state or ConnectionMatrix.random(
            6, 3, rng=np.random.default_rng(0)
        )
        anneal(state, objective, SMOKE, rng=1, obs=obs)
        return engine_counters(obs)

    def test_default_objective_takes_engine_walk(self):
        assert "sa.eval.incremental" in self.run(RowObjective())

    @pytest.mark.parametrize("objective", [
        RowObjective(impl="reference"),
        RowObjective(cost=HopCostModel(router_delay=1.5)),
        full_fw(RowObjective()),
    ], ids=["reference-tier", "non-integral-costs", "plain-callable"])
    def test_decode_walk_where_engine_is_not_exact(self, objective):
        assert "sa.eval.incremental" not in self.run(objective)


class TestDriftRepair:
    def test_corrupted_engine_is_detected_and_repaired(self, monkeypatch):
        """Corrupt the engine once mid-walk: the next self-check must
        catch it, emit and count ``sa.resync``, and leave no energy
        priced from the corrupted state in the result -- neither the
        best nor the current energy, nor a memo entry the walk
        revisits after the repair (the 20-move window leaves it
        several to revisit)."""
        monkeypatch.setattr(annealing, "SELF_CHECK_EVERY", 20)
        original = IncrementalApspEngine.apply_link_changes
        calls = []

        def corrupting(self, changes):
            original(self, changes)
            calls.append(len(changes))
            if len(calls) == 40:
                # Distance 0 -> 1 sits left of every link boundary, so
                # no block rewrite ever repairs it; lowering it far
                # below any real distance makes every energy the engine
                # prices from here on a new best.  The running total
                # that prices those energies drops with it.
                self._S[0, 1] -= 100.0
                self._total -= 100.0

        monkeypatch.setattr(
            IncrementalApspEngine, "apply_link_changes", corrupting
        )
        sink = MemorySink()
        obs = Instrumentation(sinks=[sink])
        objective = RowObjective()
        start = ConnectionMatrix.random(8, 4, rng=np.random.default_rng(3))
        result = anneal(start, objective, SMOKE, rng=4, obs=obs)
        assert len(calls) > 40
        resyncs = sink.of_kind("sa.resync")
        assert resyncs
        assert engine_counters(obs)["sa.resync"] == len(resyncs)
        # The corrupted energies did become bests before the repair ...
        bests = [e.payload["energy"] for e in sink.of_kind("sa.best")]
        assert min(bests) < result.best_energy
        # ... yet what the run returns is a true full-FW price.
        assert result.best_energy == objective(result.best_placement)


class TestObservability:
    def test_incremental_metrics_reported(self, monkeypatch):
        monkeypatch.setattr(annealing, "SELF_CHECK_EVERY", 50)
        obs = Instrumentation(sinks=[MemorySink()])
        start = ConnectionMatrix.random(8, 3, rng=np.random.default_rng(2))
        anneal(start, RowObjective(), SMOKE, rng=3, obs=obs)
        counters = engine_counters(obs)
        assert counters["sa.eval.incremental"] > 0
        assert counters["sa.eval.full"] >= 1  # the initial build
        assert counters["sa.selfcheck"] >= 1
        assert counters.get("sa.resync", 0) == 0  # integral costs: no drift
        total = counters["sa.eval.incremental"] + counters["sa.eval.full"]
        assert total > counters["sa.eval.full"]

    def test_full_mode_reports_no_incremental_counters(self):
        obs = Instrumentation(sinks=[MemorySink()])
        start = ConnectionMatrix.random(6, 2, rng=np.random.default_rng(4))
        anneal(start, full_fw(RowObjective()), SMOKE, rng=5, obs=obs)
        counters = engine_counters(obs)
        assert "sa.eval.incremental" not in counters


class TestEndToEnd:
    """Engine walk (default) against the oracle tier's FW walk."""

    def test_optimize_sweep_parity(self, pin_tier):
        incr = optimize(8, params=SMOKE, config=SearchConfig(seed=41)).sweep
        pin_tier("reference")
        base = optimize(8, params=SMOKE, config=SearchConfig(seed=41)).sweep
        assert base.best.link_limit == incr.best.link_limit
        for c, sol in base.solutions.items():
            assert incr.solutions[c].placement == sol.placement
            assert incr.solutions[c].energy == sol.energy
            assert incr.solutions[c].evaluations == sol.evaluations
            if sol.annealing is not None:
                assert incr.solutions[c].annealing.trace == sol.annealing.trace

    def test_solve_row_problem_parity(self, pin_tier):
        incr = solve_row_problem(8, 4, params=SMOKE, config=SearchConfig(seed=43))
        pin_tier("reference")
        base = solve_row_problem(8, 4, params=SMOKE, config=SearchConfig(seed=43))
        assert incr.placement == base.placement
        assert incr.energy == base.energy
        assert incr.evaluations == base.evaluations

    def test_parallel_restarts_parity(self, pin_tier):
        cfg = SearchConfig(seed=47, restarts=2, jobs=2)
        incr = optimize(6, params=SMOKE, config=cfg).sweep
        pin_tier("reference")
        base = optimize(6, params=SMOKE, config=cfg).sweep
        for c, sol in base.solutions.items():
            assert incr.solutions[c].placement == sol.placement
        assert base.restart_energies == incr.restart_energies
