"""Cross-space reduction parity and move-kernel properties.

The correctness spine of the mesh-level search spaces
(:mod:`repro.core.search_space`): every replicated-row embedding must
price **bit-identically** (energy and distance matrix) to the 1D
:class:`~repro.core.latency.RowObjective` path, so the existing golden
row values are free oracles for the new spaces; and the SA move kernels
must never leave the feasible set, fold symmetries involutively, and
key their memo entries injectively across spaces.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SearchConfig, place_express_links
from repro.core.annealing import MemoizedObjective, anneal
from repro.core.branch_bound import exhaustive_matrix_search
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective, row_head_latency_matrix
from repro.core.optimizer import SweepResult, optimize, solve_row_problem
from repro.core.search_space import (
    Grid2DChords,
    HeteroMatrix,
    MeshObjective,
    exhaustive_grid2d_search,
    exhaustive_hetero_search,
    exhaustive_replicated_search,
    grid2d_head_distances,
    mesh_head_distance_stack,
)
from repro.topology.grid import Grid2DPlacement, HeteroPlacement
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError, InvalidPlacementError

PARITY_CASES = [(n, c) for n in (4, 6, 8) for c in (2, 3, 4)]


def row_placement_strategy(n: int, c: int):
    """Feasible-at-C row placements via the connection-matrix decode."""
    rows, layers = ConnectionMatrix.shape(n, c)
    size = rows * layers
    return st.lists(st.booleans(), min_size=size, max_size=size).map(
        lambda bits: ConnectionMatrix(
            n, c, np.asarray(bits, dtype=bool).reshape(rows, layers)
        ).decode()
    )


def hetero_strategy(n: int, c: int):
    """Feasible hetero designs: n independent per-row draws."""
    return st.lists(
        row_placement_strategy(n, c), min_size=n, max_size=n
    ).map(lambda rows: HeteroPlacement(n=n, rows=tuple(rows)))


def shared_weights(n: int) -> np.ndarray:
    """A deterministic non-uniform (n, n) traffic matrix."""
    return (np.arange(n * n, dtype=float).reshape(n, n) % 7) + 1.0


class TestReductionParityEnergy:
    """Satellite 1: replicated embeddings price bit-identically to 1D."""

    @pytest.mark.parametrize("n,c", PARITY_CASES)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_uniform_energy_bit_identical(self, n, c, data):
        p = data.draw(row_placement_strategy(n, c))
        e_row = RowObjective()(p)
        mesh = MeshObjective()
        assert mesh(HeteroPlacement.replicate(p)) == e_row
        assert mesh(Grid2DPlacement.replicate(p)) == e_row

    @pytest.mark.parametrize("n,c", PARITY_CASES)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_weighted_energy_bit_identical(self, n, c, data):
        p = data.draw(row_placement_strategy(n, c))
        w = shared_weights(n)
        e_row = RowObjective(weights=tuple(map(tuple, w.tolist())))(p)
        mesh = MeshObjective(weights=w.tolist())
        assert mesh(HeteroPlacement.replicate(p)) == e_row
        assert mesh(Grid2DPlacement.replicate(p)) == e_row

    @pytest.mark.parametrize("n,c", PARITY_CASES)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_batched_equals_scalar(self, n, c, data):
        designs = [data.draw(hetero_strategy(n, c)) for _ in range(3)]
        designs.append(HeteroPlacement.mesh(n))
        designs.append(
            Grid2DPlacement(n=n, rows=designs[0].rows)
        )
        mesh = MeshObjective()
        batch = mesh.evaluate_many(designs)
        for d, e in zip(designs, batch):
            assert mesh(d) == e

    def test_non_power_of_two_rows_exact(self):
        # A plain mean of 6 identical floats is NOT bit-exact; the
        # group combine must be.  This is the n = 6 regression that
        # motivated the single-group early return.
        p = RowPlacement(6, frozenset({(0, 3), (1, 3), (3, 5)}))
        e_row = RowObjective()(p)
        naive = float(np.mean([e_row] * 6))
        assert MeshObjective()(HeteroPlacement.replicate(p)) == e_row
        # (the naive mean happens to differ from e_row for some values;
        # either way the contract is equality with e_row, not with it)
        del naive


class TestReductionParityDistances:
    """Satellite 1 (distance half): per-row matrices are bitwise 1D."""

    @pytest.mark.parametrize("n,c", [(4, 2), (6, 3), (8, 4)])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_hetero_stack_rows_bitwise(self, n, c, data):
        d = data.draw(hetero_strategy(n, c))
        stack = mesh_head_distance_stack(d)
        for r, row in enumerate(d.rows):
            assert np.array_equal(stack[r], row_head_latency_matrix(row))

    @pytest.mark.parametrize("n,c", [(4, 2), (6, 3)])
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_grid2d_full_matrix_blocks_bitwise(self, n, c, data):
        # The (n^2, n^2) stack is block-diagonal in X, so each same-row
        # block of the full FW solve must be bitwise the 1D solve, and
        # the full-mesh mean must decompose as E_x + plain column mean.
        rows = [data.draw(row_placement_strategy(n, c)) for _ in range(n)]
        d = Grid2DPlacement(n=n, rows=tuple(rows))
        full = grid2d_head_distances(d)
        dy = row_head_latency_matrix(RowPlacement.mesh(n))
        for r, row in enumerate(rows):
            block = full[r * n:(r + 1) * n, r * n:(r + 1) * n]
            assert np.array_equal(block, row_head_latency_matrix(row))
        expected_mean = MeshObjective()(d) + dy.mean()
        assert full.mean() == pytest.approx(expected_mean, rel=1e-12)

    def test_cross_row_entry_is_x_plus_y(self):
        n = 4
        p = RowPlacement(n, frozenset({(0, 2)}))
        d = Grid2DPlacement.replicate(p)
        full = grid2d_head_distances(d)
        dx = row_head_latency_matrix(p)
        dy = row_head_latency_matrix(RowPlacement.mesh(n))
        for r1 in range(n):
            for c1 in range(n):
                for r2 in range(n):
                    for c2 in range(n):
                        assert full[r1 * n + c1, r2 * n + c2] == (
                            dx[c1, c2] + dy[r1, r2]
                        )


class TestMoveKernelFeasibility:
    """Satellite 2: SA moves can never leave the feasible set."""

    @pytest.mark.parametrize("n,c", [(4, 2), (6, 2), (6, 3), (8, 4)])
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_hetero_random_walk_stays_feasible(self, n, c, seed):
        gen = np.random.default_rng(seed)
        state = HeteroMatrix.random(n, c, gen)
        for _ in range(30):
            state.flip(*state.random_move(gen))
        state.decode().validate(c)

    @pytest.mark.parametrize("n,c", [(4, 2), (6, 2), (6, 3), (8, 4)])
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=15, deadline=None)
    def test_grid2d_random_walk_stays_feasible(self, n, c, seed):
        gen = np.random.default_rng(seed)
        state = Grid2DChords.random(n, c, gen)
        for _ in range(30):
            state.flip(*state.random_move(gen))
        decoded = state.decode()
        decoded.validate(c)
        # Bookkeeping totals match the decoded design's express counts.
        locals_per_cut = n
        assert state.express_totals() == tuple(
            t - locals_per_cut for t in decoded.cross_section_totals()
        )

    def test_grid2d_gated_add_is_noop(self):
        # Fill cut budgets completely, then verify an infeasible add
        # changes nothing (the no-op contract the annealer relies on).
        n, c = 4, 2
        state = Grid2DChords(n, c)
        budget = state.express_budget
        added = 0
        for site in state.sites:
            before = len(state.chords)
            state.flip(*site)
            added += len(state.chords) - before
        # Budget must actually bind somewhere for the test to bite.
        assert max(state.express_totals()) == budget
        full = state.chords
        for site in state.sites:
            if site not in full:
                state.flip(*site)  # every remaining add must be gated
                assert state.chords == full
        state.decode().validate(c)

    def test_grid2d_flip_is_involution_when_ungated(self):
        state = Grid2DChords(4, 2)
        site = state.sites[0]
        state.flip(*site)
        with_chord = state.chords
        state.flip(*site)
        assert state.chords == ()
        state.flip(*site)
        assert state.chords == with_chord

    def test_hetero_flip_is_involution(self):
        state = HeteroMatrix.zeros(6, 3)
        site = (2, 1, 0)
        before = state.bits.copy()
        state.flip(*site)
        assert not np.array_equal(state.bits, before)
        state.flip(*site)
        assert np.array_equal(state.bits, before)

    def test_infeasible_initial_chords_rejected(self):
        with pytest.raises(InvalidPlacementError):
            Grid2DChords(4, 1, [(0, 0, 2)])  # C=1: zero express budget

    def test_empty_spaces_short_circuit(self):
        # C = 1 leaves no connection points in either space, so the
        # annealer's empty-space early return applies.
        assert Grid2DChords(6, 1).num_connection_points == 0
        assert HeteroMatrix.zeros(2, 4).num_connection_points == 0
        sa = anneal(Grid2DChords(6, 1), MeshObjective(), rng=0)
        assert sa.best_placement == Grid2DPlacement.mesh(6)


class TestCanonicalFolds:
    """Satellite 2: folds are involutions, keys injective across spaces."""

    @pytest.mark.parametrize("n,c", [(4, 2), (6, 3), (8, 4)])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_vertical_mirror_fold_involution(self, n, c, data):
        d = data.draw(hetero_strategy(n, c))
        folded = d.mirror_fold_rows()
        refolded = HeteroPlacement(n=n, rows=folded).mirror_fold_rows()
        assert refolded == folded
        assert d.vertical_mirror().canonical_bytes() == d.canonical_bytes()

    @pytest.mark.parametrize("n,c", [(4, 2), (6, 3), (8, 4)])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_keys_injective_across_spaces(self, n, c, data):
        p = data.draw(row_placement_strategy(n, c))
        row_key = p.canonical_bytes()
        het_key = HeteroPlacement.replicate(p).canonical_bytes()
        g2_key = Grid2DPlacement.replicate(p).canonical_bytes()
        # Row keys are packed uint16s (even length); mesh keys carry a
        # one-byte tag (odd length): collision is impossible.
        assert len(row_key) % 2 == 0
        assert len(het_key) % 2 == 1
        assert len(g2_key) % 2 == 1
        assert het_key != row_key
        assert g2_key != row_key
        assert het_key != g2_key  # distinct space tags
        assert het_key[:1] == b"H" and g2_key[:1] == b"G"

    def test_distinct_designs_distinct_keys(self):
        n = 4
        a = RowPlacement(n, frozenset({(0, 2)}))
        b = RowPlacement(n, frozenset({(1, 3)}))
        d1 = HeteroPlacement(n=n, rows=(a, b, a, a))
        d2 = HeteroPlacement(n=n, rows=(b, a, a, a))
        assert d1.canonical_bytes() != d2.canonical_bytes()
        # ... but a design and its vertical mirror share one key.
        d3 = HeteroPlacement(n=n, rows=(a, a, b, a))
        assert d3.canonical_bytes() == d3.vertical_mirror().canonical_bytes()

    def test_shared_memo_never_crosses_spaces(self):
        p = RowPlacement(4, frozenset({(0, 2)}))
        memo = MemoizedObjective(MeshObjective())
        e1 = memo(HeteroPlacement.replicate(p))
        e2 = memo(Grid2DPlacement.replicate(p))
        assert e1 == e2          # same rows, same energy
        assert memo.misses == 2  # ...but two distinct cache keys
        assert memo(HeteroPlacement.replicate(p)) == e1
        assert memo.hits == 1


class TestAnnealingIntegration:
    """The generic site protocol drives both kernels through the annealer."""

    @pytest.mark.parametrize("space,cls", [
        ("hetero", HeteroMatrix), ("grid2d", Grid2DChords),
    ])
    def test_anneal_returns_feasible_best(self, space, cls):
        n, c = 6, 2
        sa = anneal(
            cls.random(n, c, np.random.default_rng(5)),
            MeshObjective(), rng=7, max_evaluations=150,
        )
        sa.best_placement.validate(c)
        assert sa.best_energy == MeshObjective()(sa.best_placement)


class TestExhaustiveSearches:
    def test_hetero_equals_row_bitwise_shared_weights(self):
        # Separability: with shared weights the hetero optimum is the
        # replicated row optimum, bit for bit.
        for n, c in [(4, 2), (5, 2), (6, 3)]:
            row = exhaustive_matrix_search(n, c, RowObjective())
            het = exhaustive_hetero_search(n, c)
            assert het.energy == row.energy
            assert het.placement.all_rows_equal

    def test_hetero_strict_win_needs_per_row_weights(self):
        # Conflicting per-row demands no single C=2 row can serve:
        # row 0 wants the (0,3) chord, row 1 wants (0,2); rows 2-3 are
        # uniform.  Heterogeneity wins strictly over any replication.
        n = 4
        w = np.zeros((n, n, n))
        w[0][0, 3] = 1.0
        w[1][0, 2] = 1.0
        w[1][1, 3] = 1.0
        w[2] = 1.0
        w[3] = 1.0
        objective = MeshObjective(weights=w.tolist())
        het = exhaustive_hetero_search(n, 2, objective)
        rep = exhaustive_replicated_search(n, 2, objective)
        assert het.energy == 5.25
        assert rep.energy == 5.625
        assert het.energy < rep.energy
        assert not het.placement.all_rows_equal

    def test_grid2d_rejects_per_row_weights(self):
        w = np.ones((4, 4, 4))
        with pytest.raises(ConfigurationError):
            exhaustive_grid2d_search(4, 2, MeshObjective(weights=w.tolist()))

    def test_grid2d_rejects_large_n(self):
        with pytest.raises(ConfigurationError):
            exhaustive_grid2d_search(7, 2)

    def test_grid2d_winner_is_pool_feasible_not_row_feasible(self):
        # The n=6 C=3 strict winner uses rows whose private cross
        # section exceeds C -- only the pooled budget admits it.
        result = exhaustive_grid2d_search(6, 3)
        placement = result.placement
        placement.validate(3)
        assert not all(row.satisfies_limit(3) for row in placement.rows)
        assert not HeteroPlacement(
            n=6, rows=placement.rows
        ).satisfies_limit(3)


class TestSolveAndOptimize:
    def test_exact_method_routes_to_exhaustive(self):
        s = solve_row_problem(
            5, 2, method="exact", config=SearchConfig(space="hetero")
        )
        row = exhaustive_matrix_search(5, 2, RowObjective())
        assert s.energy == row.energy
        assert s.solution.exact is not None

    @pytest.mark.parametrize("space", ["hetero", "grid2d"])
    @pytest.mark.parametrize("method", ["dc_sa", "only_sa"])
    def test_sa_methods_feasible(self, space, method):
        cfg = SearchConfig(seed=3, max_evaluations=120, space=space)
        s = solve_row_problem(6, 2, method=method, config=cfg)
        s.placement.validate(2)
        assert s.space == space

    def test_dc_sa_never_worse_than_its_seed(self):
        # The replicated D&C seed competes with the SA winner exactly
        # as the row path's seed does.
        from repro.core.divide_conquer import initial_solution

        seed_solution = initial_solution(6, 3, RowObjective())
        cfg = SearchConfig(seed=9, max_evaluations=100, space="hetero")
        s = solve_row_problem(6, 3, method="dc_sa", config=cfg)
        assert s.energy <= MeshObjective()(
            HeteroPlacement.replicate(seed_solution.placement)
        )

    @pytest.mark.parametrize("space", ["hetero", "grid2d"])
    def test_jobs_never_change_mesh_results(self, space):
        # Mesh spaces run on the same (C, restart) runner as the row:
        # restarts/jobs apply, and jobs is a pure wall-clock knob.
        def run(entry, *args, restarts, jobs):
            cfg = SearchConfig(seed=4, restarts=restarts, jobs=jobs,
                               space=space, max_evaluations=80)
            data = entry(*args, config=cfg).to_json()
            del data["wall_time_s"], data["config"]["jobs"]
            return json.dumps(data, sort_keys=True)

        for restarts in (1, 3):
            for entry, args in ((optimize, (5,)), (solve_row_problem, (5, 2))):
                assert (run(entry, *args, restarts=restarts, jobs=1)
                        == run(entry, *args, restarts=restarts, jobs=2))
        solve = [
            solve_row_problem(5, 2, method="only_sa", config=SearchConfig(
                seed=4, restarts=3, jobs=jobs, max_evaluations=80,
                space=space))
            for jobs in (1, 2)
        ]
        assert solve[0].placement == solve[1].placement
        assert solve[0].energy == solve[1].energy
        solve[0].placement.validate(2)

    def test_optimize_routes_by_config_space(self):
        cfg = SearchConfig(seed=1, max_evaluations=60, space="hetero")
        res = optimize(4, config=cfg)
        assert res.space == "hetero"
        sweep = res.sweep
        assert isinstance(sweep, SweepResult)
        assert sweep.space == "hetero"
        assert set(sweep.points) == {1, 2, 4}
        # C = 1 short-circuits to the plain mesh in every space.
        assert sweep.points[1].placement == HeteroPlacement.mesh(4)
        best = sweep.best
        assert best.total_latency == min(
            p.total_latency for p in sweep.points.values()
        )
        assert sweep.latency_curve()[0][0] == 1

    def test_solve_row_problem_routes_by_config_space(self):
        cfg = SearchConfig(seed=1, space="grid2d", max_evaluations=60)
        s = solve_row_problem(4, 2, method="only_sa", config=cfg)
        assert s.space == "grid2d"
        s.placement.validate(2)

    def test_design_point_head_is_twice_energy(self):
        sweep = optimize(
            4, method="only_sa",
            config=SearchConfig(seed=2, max_evaluations=50, space="grid2d"),
        ).sweep
        for point in sweep.points.values():
            energy = MeshObjective()(point.placement)
            assert point.latency.head == 2.0 * energy
            assert point.total_latency == (
                point.latency.head + point.latency.serialization
            )

    def test_mesh_space_refuses_a_row_objective(self):
        # The mesh kernels read a MeshObjective's rows; any other
        # objective is a ConfigurationError before a task runs.
        with pytest.raises(ConfigurationError, match="MeshObjective"):
            solve_row_problem(4, 2, objective=RowObjective(),
                              config=SearchConfig(space="hetero"))

    def test_mesh_topology_bridge(self):
        # Winners flow into the simulator via the existing
        # express-topology path: same rows per dimension.
        s = solve_row_problem(
            4, 2, method="only_sa",
            config=SearchConfig(seed=6, max_evaluations=40, space="hetero"),
        )
        topo = s.placement.mesh_topology()
        assert topo.n == 4
        assert tuple(topo.row_placements) == s.placement.rows
        assert tuple(topo.col_placements) == s.placement.rows


class TestSpaceTableImport:
    def test_import_repro_does_not_load_the_mesh_spaces(self):
        # The space table loads with the first search, not with the
        # package: a fresh interpreter, so this module's imports cannot
        # mask an eager import.
        import repro

        root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "import repro\n"
             "import repro.cli\n"
             "bad = [m for m in ('repro.core.search_space', "
             "'repro.topology.grid') if m in sys.modules]\n"
             "assert not bad, bad\n"
             "print('clean')\n"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=root),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["clean"]


class TestSearchConfigSpace:
    def test_unknown_space_rejected(self):
        with pytest.raises(ConfigurationError):
            SearchConfig(space="torus")

    def test_place_express_links_supports_mesh_spaces(self):
        # The facade used to reject non-row spaces; the unified result
        # type made the guard obsolete -- every space returns the same
        # PlacementResult shape now.
        res = place_express_links(
            4, config=SearchConfig(space="hetero", seed=1, max_evaluations=40)
        )
        assert res.space == "hetero"
        assert res.link_limit in (1, 2, 4)
        assert res.express_links == res.placement.express_links
