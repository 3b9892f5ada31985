"""The public facade: SearchConfig, results, retired keywords."""

import dataclasses
import inspect
import json

import pytest

from repro import (
    EvalResult,
    PlacementResult,
    SearchConfig,
    evaluate_placement,
    optimize,
    place_express_links,
    solve_row_problem,
)
from repro.core.annealing import AnnealingParams
from repro.core.pareto import pareto_front
from repro.harness.designs import EFFORTS
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError

SMOKE = AnnealingParams(total_moves=300, moves_per_cooldown=100)


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.seed is None
        assert cfg.restarts == 1 and cfg.jobs == 1
        # The kernel tier is the machine's, not a config field.
        assert "impl" not in {f.name for f in dataclasses.fields(cfg)}

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SearchConfig().seed = 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"restarts": 0},
            {"jobs": -1},
            {"max_evaluations": 0},
            {"seed": "x"},
            {"space": "torus"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SearchConfig(**kwargs)

    def test_with_updates_round_trip(self):
        cfg = SearchConfig(seed=7, restarts=3)
        upd = cfg.with_updates(jobs=2, max_evaluations=50)
        assert upd.seed == 7 and upd.restarts == 3
        assert upd.jobs == 2 and upd.max_evaluations == 50
        assert cfg.jobs == 1  # original untouched
        assert upd.with_updates(jobs=1, max_evaluations=None) == cfg

    def test_with_updates_revalidates(self):
        with pytest.raises(ConfigurationError):
            SearchConfig().with_updates(restarts=0)

    def test_from_cli_round_trip(self):
        ns = type("Args", (), {})()
        ns.seed = 2019
        ns.restarts = 4
        ns.jobs = 2
        # The trace, profile and ledger flags (and simulate's heartbeat
        # interval) stay on args: the CLI reads them there, and no
        # config field carries them.
        ns.metrics_every = 100
        ns.trace_out = "t.jsonl"
        ns.profile = True
        ns.ledger = ".repro/runs"
        cfg = SearchConfig.from_cli(ns)
        assert cfg == SearchConfig(seed=2019, restarts=4, jobs=2)

    def test_from_cli_missing_flags_default(self):
        ns = type("Args", (), {"seed": 5})()
        assert SearchConfig.from_cli(ns) == SearchConfig(seed=5)

    def test_unseeded_search_records_its_seed(self):
        # The drawn base seed lands in the document, which then replays.
        def document(result):
            return {k: v for k, v in result.to_json().items()
                    if k != "wall_time_s"}

        for search in (lambda cfg: optimize(6, params=EFFORTS["smoke"],
                                            config=cfg),
                       lambda cfg: solve_row_problem(6, 2, params=SMOKE,
                                                     config=cfg)):
            first = search(None)
            assert isinstance(first.config.seed, int)
            again = search(SearchConfig(seed=first.config.seed))
            assert document(again) == document(first)

    def test_impl_none_resolves_to_default(self):
        # Searches build their objectives with impl=None: the machine's
        # tier, whatever the config says.
        from repro.core.latency import RowObjective
        from repro.routing.impls import default_impl

        assert RowObjective().impl == RowObjective(impl=None).impl
        assert RowObjective().impl == default_impl()

    def test_impl_none_honors_environment(self, pin_tier):
        # impl=None follows the process tier -- the machine's, pinned
        # here the way a machine without a compiler pins NumPy -- and
        # prices the same on every tier.
        from repro.core.latency import RowObjective
        from repro.obs.ledger import environment_snapshot

        placement = RowPlacement(8, frozenset({(0, 4), (2, 7)}))
        priced = {}
        for tier in ("vectorized", "reference"):
            pin_tier(tier)
            assert RowObjective().impl == tier
            assert environment_snapshot()["kernel_tier"] == tier
            priced[tier] = evaluate_placement(placement, link_limit=4)
        assert priced["vectorized"] == priced["reference"]
        assert priced["reference"] == evaluate_placement(
            placement, link_limit=4, impl="reference"
        )

    def test_impl_unknown_env_value_raises(self, monkeypatch):
        # An unknown tier name still fails loudly wherever a tier can be
        # named; the retired environment variable is not one of them.
        from repro.core.latency import RowObjective

        monkeypatch.setenv("REPRO_IMPL", "turbo")
        placement = RowPlacement(8, frozenset({(0, 4)}))
        with pytest.raises(ConfigurationError, match="turbo"):
            evaluate_placement(placement, impl="turbo")
        with pytest.raises(ConfigurationError, match="turbo"):
            RowObjective(impl="turbo")
        with pytest.raises(ConfigurationError, match="impl"):
            SearchConfig.from_json({"impl": "turbo"})

    def test_impl_is_not_a_config_field(self, monkeypatch):
        # The tier is the machine's: no keyword, no JSON key, and the
        # retired environment variable changes nothing.
        with pytest.raises(TypeError, match="impl"):
            SearchConfig(impl="native")
        with pytest.raises(ConfigurationError, match="impl"):
            SearchConfig.from_json({"impl": "vectorized"})
        monkeypatch.setenv("REPRO_IMPL", "turbo")
        assert SearchConfig() == SearchConfig.from_json({})


class TestLegacyKwargsRejected:
    """The pre-redesign search keywords are gone: Python's own
    ``TypeError`` rejects them like any other unknown keyword."""

    def test_rng_keyword_is_a_plain_type_error(self):
        with pytest.raises(TypeError, match="rng"):
            optimize(6, params=SMOKE, rng=1)
        with pytest.raises(TypeError, match="rng"):
            solve_row_problem(6, 2, params=SMOKE, rng=1)

    def test_unknown_keyword_still_a_plain_type_error(self):
        with pytest.raises(TypeError, match="seeed") as exc:
            solve_row_problem(6, 2, params=SMOKE, seeed=1)
        assert "SearchConfig" not in str(exc.value)  # typos look like typos


class TestPlaceExpressLinks:
    def test_returns_frozen_result(self):
        res = place_express_links(6, config=SearchConfig(seed=3), params=SMOKE)
        assert isinstance(res, PlacementResult)
        assert res.n == 6 and res.method == "dc_sa"
        assert res.express_links == tuple(sorted(res.placement.express_links))
        assert res.total_latency == pytest.approx(
            res.head_latency + res.serialization_latency
        )
        assert res.evaluations > 0 and res.wall_time_s >= 0
        assert dict(res.latency_curve)[res.link_limit] == res.total_latency
        assert res.config == SearchConfig(seed=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.energy = 0.0

    def test_matches_raw_optimize(self):
        res = place_express_links(6, config=SearchConfig(seed=9), params=SMOKE)
        other = optimize(6, params=SMOKE, config=SearchConfig(seed=9))
        assert isinstance(other, PlacementResult)
        assert res.placement == other.placement
        assert res.link_limit == other.link_limit
        assert res.energy == other.energy
        assert res.sweep is not None and other.sweep is not None

    def test_incremental_config_same_design(self, pin_tier):
        """The default engine walk against the oracle tier's FW walk."""
        inc = place_express_links(6, config=SearchConfig(seed=5), params=SMOKE)
        pin_tier("reference")
        base = place_express_links(6, config=SearchConfig(seed=5), params=SMOKE)
        assert base.placement == inc.placement
        assert base.energy == inc.energy
        assert base.evaluations == inc.evaluations
        for c, sol in base.sweep.solutions.items():
            other = inc.sweep.solutions[c]
            assert other.placement == sol.placement
            assert other.energy == sol.energy
            if sol.annealing is not None:
                assert other.annealing.trace == sol.annealing.trace
                assert (other.annealing.accepted_moves
                        == sol.annealing.accepted_moves)


class TestEvaluatePlacement:
    def test_row_only_no_limit(self):
        res = evaluate_placement(RowPlacement.mesh(6))
        assert isinstance(res, EvalResult)
        assert res.link_limit is None
        assert res.head_latency == 2.0 * res.row_head_latency
        assert res.serialization_latency is None
        assert res.total_latency is None
        assert res.flit_bits is None

    def test_full_breakdown_with_limit(self):
        placement = RowPlacement(6, frozenset({(1, 4)}))
        res = evaluate_placement(placement, link_limit=2)
        assert res.flit_bits is not None and res.flit_bits > 0
        assert res.total_latency == pytest.approx(
            res.head_latency + res.serialization_latency
        )
        assert res.worst_case_latency >= res.head_latency

    @pytest.mark.parametrize("link_limit", [None, 2])
    def test_weights_reach_head_and_total(self, link_limit):
        # All traffic on pair (0, 3), which the express link serves in
        # one 6-cycle hop: the 2D head latency is twice that, not the
        # unweighted 2 x 6.778.
        placement = RowPlacement(6, frozenset({(0, 3)}))
        weights = [[0.0] * 6 for _ in range(6)]
        weights[0][3] = 1.0
        res = evaluate_placement(placement, link_limit, weights=weights)
        assert res.row_head_latency == 6.0
        assert res.head_latency == 2 * res.row_head_latency == 12.0
        if link_limit is not None:
            assert res.total_latency == (
                res.head_latency + res.serialization_latency
            )
            # The worst case is over all pairs, whatever the traffic.
            assert res.worst_case_latency == evaluate_placement(
                placement, link_limit
            ).worst_case_latency

    def test_express_links_reduce_row_latency(self):
        mesh = evaluate_placement(RowPlacement.mesh(8))
        express = evaluate_placement(RowPlacement(8, frozenset({(1, 6)})))
        assert express.row_head_latency < mesh.row_head_latency


class TestSearchConfigObjectives:
    """The front-search axes and driver are :func:`pareto_front`'s own
    arguments; no SearchConfig field selects them."""

    def test_defaults_off(self):
        names = {f.name for f in dataclasses.fields(SearchConfig)}
        assert not names & {"objectives", "pareto"}
        params = inspect.signature(pareto_front).parameters
        assert params["objectives"].default == ("latency", "power")
        assert params["driver"].default == "epsilon"

    def test_list_coerced_to_tuple(self):
        front = pareto_front(6, 2, objectives=["latency", "power"],
                             params=SMOKE, config=SearchConfig(seed=1),
                             points=1)
        assert front.objectives == ("latency", "power")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"objectives": ("latency", "speed")},
            {"objectives": ("latency", "latency")},
            {"objectives": ("latency",), "driver": "weighted-sum"},
            {"objectives": ()},  # a driver without axes
            {"objectives": ("latency",),
             "config": SearchConfig(space="hetero")},
        ],
    )
    def test_validation(self, kwargs):
        # The axis/driver checks SearchConfig made are pareto_front's,
        # run before any search.
        with pytest.raises(ConfigurationError):
            pareto_front(8, 2, **kwargs)

    def test_json_round_trip(self):
        cfg = SearchConfig(seed=7, restarts=2, max_evaluations=50,
                           space="hetero")
        data = cfg.to_json()
        # jobs never changes a result, so a document does not record it.
        assert list(data) == ["seed", "restarts", "max_evaluations", "space"]
        assert SearchConfig.from_json(data) == cfg

    def test_from_cli_reads_pareto_flags(self, tmp_path, capsys):
        # --objectives / --driver reach pareto_front, not the config.
        from repro.cli import main

        ns = type("Args", (), {"seed": 1, "objectives": "latency,area",
                               "driver": "nsga2"})()
        assert SearchConfig.from_cli(ns) == SearchConfig(seed=1)
        out = tmp_path / "fronts.json"
        assert main(["pareto", "--n", "6", "--c", "2", "--effort", "smoke",
                     "--objectives", "latency,area", "--driver", "epsilon",
                     "--points", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        (scenario,) = json.loads(out.read_text())["scenarios"]
        assert scenario["front"]["objectives"] == ["latency", "area"]
        assert scenario["front"]["driver"] == "epsilon"
