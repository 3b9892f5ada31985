"""In-process endpoint tests: ``ServeApp.handle`` without a socket.

The app is transport-independent by design, so every route, rejection
path and counter is pinned here with ``asyncio.run`` driving the
coroutines directly -- the HTTP framing has its own suite.
"""

import asyncio
import json
import math
import os

import numpy as np
import pytest

from repro.api import SearchConfig, evaluate_placement
from repro.core.optimizer import optimize
from repro.harness.designs import EFFORTS
from repro.obs.ledger import RunLedger, optimize_params
from repro.serve.server import JSON, TEXT, ServeApp
from repro.serve.store import DesignStore
from repro.topology.row import RowPlacement
from repro.util.errors import ConfigurationError


@pytest.fixture
def app(tmp_path):
    application = ServeApp(
        DesignStore(str(tmp_path / "designs")),
        capacity=4,
        default_effort="smoke",
    )
    yield application
    application.executor.shutdown(wait=True)


async def _request(app, method, path, body=None):
    payload = b"" if body is None else json.dumps(body).encode()
    status, ctype, data, headers = await app.handle(method, path, payload)
    parsed = json.loads(data) if ctype == JSON else data.decode()
    return status, parsed, headers


def _counters(app):
    return app.metrics.snapshot()["counters"]


PLACE = {"n": 6, "effort": "smoke"}


class TestPlace:
    def test_miss_then_hit_identical(self, app):
        async def scenario():
            first = await _request(app, "POST", "/place", PLACE)
            second = await _request(app, "POST", "/place", PLACE)
            return first, second

        (s1, b1, _), (s2, b2, _) = asyncio.run(scenario())
        assert (s1, s2) == (200, 200)
        assert b1["cache"] == "miss"
        assert b2["cache"] == "hit"
        # The exact-hit contract: everything but the cache tag is
        # byte-identical, including the float-hex result payload.
        assert b1["result"] == b2["result"]
        assert b1["key"] == b2["key"]
        assert b1["result_digest"] == b2["result_digest"]
        assert len(app.store) == 1
        counters = _counters(app)
        assert counters["serve.cache.miss"] == 1
        assert counters["serve.cache.hit"] == 1

    def test_served_key_is_cli_run_id(self, app):
        status, body, _ = asyncio.run(
            _request(app, "POST", "/place", PLACE)
        )
        assert status == 200
        cfg = SearchConfig(seed=2019)
        params = optimize_params(6, "dc_sa", "smoke", cfg.space)
        assert body["key"] == app.store.key_for(
            "optimize", params, cfg, cfg.seed
        )

    def test_jobs_request_files_the_default_answer(self, app):
        # jobs is not part of the store key, so a jobs=2 request files
        # its design under the default request's key: it must be the
        # design the in-process default search returns.
        async def scenario():
            first = await _request(app, "POST", "/place", dict(
                PLACE, config={"seed": 7, "jobs": 2}))
            second = await _request(app, "POST", "/place", dict(
                PLACE, config={"seed": 7}))
            return first, second

        (s1, b1, _), (s2, b2, _) = asyncio.run(scenario())
        assert (s1, s2) == (200, 200)
        assert (b1["cache"], b2["cache"]) == ("miss", "hit")
        direct = optimize(
            6, params=EFFORTS["smoke"], config=SearchConfig(seed=7)
        ).to_json()
        served = dict(b2["result"])
        for data in (direct, served):
            del data["wall_time_s"], data["config"]["jobs"]
        assert served == direct

    def test_single_flight_computes_once(self, app):
        async def scenario():
            return await asyncio.gather(
                *(_request(app, "POST", "/place", PLACE) for _ in range(4))
            )

        responses = asyncio.run(scenario())
        assert [status for status, _, _ in responses] == [200] * 4
        bodies = [body for _, body, _ in responses]
        assert {body["key"] for body in bodies} == {bodies[0]["key"]}
        assert all(b["result"] == bodies[0]["result"] for b in bodies)
        assert sorted(b["cache"] for b in bodies) == [
            "coalesced", "coalesced", "coalesced", "miss"
        ]
        assert len(app.store) == 1
        counters = _counters(app)
        assert counters["serve.cache.miss"] == 1
        assert counters["serve.cache.coalesced"] == 3

    def test_cache_counters_account_for_every_request(self, app):
        async def scenario():
            await asyncio.gather(
                *(_request(app, "POST", "/place", PLACE) for _ in range(3))
            )
            await _request(app, "POST", "/place", PLACE)  # hit
            await _request(  # second identity: miss
                app, "POST", "/place", dict(PLACE, config={"seed": 7})
            )

        asyncio.run(scenario())
        counters = _counters(app)
        classified = sum(
            counters.get(f"serve.cache.{c}", 0)
            for c in ("hit", "miss", "coalesced")
        )
        assert classified == counters["serve.request.place"] == 5
        assert counters["serve.cache.miss"] == 2

    def test_entry_with_retired_config_fields_never_breaks_a_miss(self, app):
        """A store written before ``incremental``/``resync_every`` were
        retired: its entries' configs no longer parse.  Their keys
        digest the old fields, so no request hits them -- a fresh miss
        is served as usual."""
        cfg = SearchConfig(seed=2019)
        params = optimize_params(6, "dc_sa", "smoke", cfg.space)
        old_config = dict(cfg.to_json(), incremental=False,
                          resync_every=1_000)
        old_key = app.store.key_for("optimize", params, old_config, 2019)
        new_key = app.store.key_for("optimize", params, cfg, 2019)
        assert old_key != new_key
        # Rewrite a freshly served entry into the old layout.
        status, fresh, _ = asyncio.run(_request(app, "POST", "/place", PLACE))
        assert status == 200 and fresh["key"] == new_key
        entry = json.loads(open(app.store.entry_path(new_key)).read())
        entry["key"] = old_key
        entry["config"] = entry["result"]["config"] = old_config
        os.makedirs(os.path.dirname(app.store.entry_path(old_key)))
        with open(app.store.entry_path(old_key), "w") as fh:
            json.dump(entry, fh)
        os.remove(app.store.entry_path(new_key))

        status, body, _ = asyncio.run(_request(app, "POST", "/place", PLACE))
        assert status == 200
        assert body["cache"] == "miss"
        assert body["key"] == new_key
        assert body["result_digest"] == fresh["result_digest"]

    def test_unreadable_entry_is_recomputed_as_a_miss(self, app):
        """An entry written before ``chains`` was retired keeps its key
        (``chains`` was never part of the identity) but no longer
        parses: it is a counted miss, and the recompute replaces it."""
        status, fresh, _ = asyncio.run(_request(app, "POST", "/place", PLACE))
        assert status == 200
        key = fresh["key"]
        path = app.store.entry_path(key)
        entry = json.loads(open(path).read())
        entry["config"]["chains"] = entry["result"]["config"]["chains"] = 1
        with open(path, "w") as fh:
            json.dump(entry, fh)
        with pytest.raises(ConfigurationError, match="chains"):
            app.store.get(key)

        status, body, _ = asyncio.run(_request(app, "POST", "/place", PLACE))
        assert status == 200
        assert body["cache"] == "miss"
        assert body["key"] == key
        assert body["result_digest"] == fresh["result_digest"]
        assert app.store.get(key).result_digest == fresh["result_digest"]
        assert _counters(app)["serve.cache.corrupt"] == 1

    def test_entry_with_warm_from_is_recomputed_as_a_miss(self, app):
        """An entry whose search was seeded with another stored design
        (a non-null ``warm_from``) is not what ``repro optimize``
        computes for its key: it is a counted miss, and the recompute
        replaces it with the cold result."""
        status, fresh, _ = asyncio.run(_request(app, "POST", "/place", PLACE))
        assert status == 200
        key = fresh["key"]
        path = app.store.entry_path(key)
        with open(path) as fh:
            entry = json.load(fh)
        entry["warm_from"] = "0123456789abcdef"
        with open(path, "w") as fh:
            json.dump(entry, fh)
        with pytest.raises(ConfigurationError, match=key):
            app.store.get(key)

        status, body, _ = asyncio.run(_request(app, "POST", "/place", PLACE))
        assert status == 200
        assert body["cache"] == "miss"
        assert body["key"] == key
        assert body["result_digest"] == fresh["result_digest"]
        with open(path) as fh:
            assert "warm_from" not in json.load(fh)
        assert app.store.get(key).result_digest == fresh["result_digest"]
        counters = _counters(app)
        assert counters["serve.cache.corrupt"] == 1
        assert counters["serve.cache.miss"] == 2

    @pytest.mark.parametrize("field,value", [
        ("n", 9),
        ("method", {}),
        ("link_limit", -3),
        ("evaluations", [1]),
    ])
    def test_edited_result_scalar_is_recomputed(self, app, field, value):
        """An entry whose stored result carries a scalar no search
        could write -- here one edited by hand -- is not served: it is
        a counted miss, and the recompute replaces it."""
        status, fresh, _ = asyncio.run(_request(app, "POST", "/place", PLACE))
        assert status == 200
        key = fresh["key"]
        path = app.store.entry_path(key)
        entry = json.loads(open(path).read())
        entry["result"][field] = value
        with open(path, "w") as fh:
            json.dump(entry, fh)
        with pytest.raises(ConfigurationError, match=repr(field)):
            app.store.get(key)

        status, body, _ = asyncio.run(_request(app, "POST", "/place", PLACE))
        assert status == 200
        assert body["cache"] == "miss"
        assert body["key"] == key
        assert body["result_digest"] == fresh["result_digest"]
        assert app.store.get(key).result.to_json() == json.loads(
            open(path).read())["result"]
        assert _counters(app)["serve.cache.corrupt"] == 1

    @pytest.mark.parametrize("field,value", [
        ("seed", "abc"),
        ("seed", 1.5),
        ("seed", True),
        ("restarts", "2"),
        ("jobs", None),
        ("max_evaluations", "10"),
        ("max_evaluations", 0),
        # A shared generator cannot be split across (C, restart) tasks;
        # it is rejected where the config is built (it has no JSON form).
        pytest.param("seed", np.random.default_rng(3), id="seed-Generator"),
    ])
    def test_mistyped_config_field_400(self, app, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            SearchConfig(**{field: value})
        if isinstance(value, np.random.Generator):
            return
        status, parsed, _ = asyncio.run(
            _request(app, "POST", "/place", dict(PLACE, config={field: value}))
        )
        assert status == 400
        assert parsed["error"].startswith(f"{field} must be")
        assert _counters(app)["serve.errors.bad_request"] == 1

    def test_deadline_504_but_compute_continues(self, app):
        async def scenario():
            status, body, _ = await _request(
                app, "POST", "/place", dict(PLACE, deadline_s=1e-4)
            )
            # The shielded computation outlives the 504: wait for it,
            # then the design must be in the cache.
            await asyncio.gather(
                *list(app._inflight.values()), return_exceptions=True
            )
            return status, body

        status, body = asyncio.run(scenario())
        assert status == 504
        assert "continues" in body["error"]
        assert len(app.store) == 1
        assert _counters(app)["serve.rejected.deadline"] == 1

    def test_backpressure_429(self, tmp_path):
        app = ServeApp(DesignStore(str(tmp_path / "d")), capacity=0,
                       default_effort="smoke")
        try:
            status, body, headers = asyncio.run(
                _request(app, "POST", "/place", PLACE)
            )
        finally:
            app.executor.shutdown(wait=True)
        assert status == 429
        assert headers["Retry-After"] == "1"
        assert "capacity" in body["error"]

    def test_draining_503(self, app):
        app.draining = True
        status, body, headers = asyncio.run(
            _request(app, "POST", "/place", PLACE)
        )
        assert status == 503
        assert headers["Retry-After"] == "5"

    @pytest.mark.parametrize("body,fragment", [
        ({"effort": "smoke"}, "requires 'n'"),
        ({"n": 1}, "n must be an integer >= 2"),
        ({"n": "six"}, "n must be an integer >= 2"),
        ({"n": 6, "effort": "warp"}, "unknown effort"),
        ({"n": 6, "budget": 3}, "unknown /place field"),
        ({"n": 6, "link_limits": []}, "link_limits"),
        ({"n": 6, "link_limits": [0]}, "link_limits"),
        ({"n": 6, "deadline_s": -1}, "deadline_s"),
        ({"n": 6, "config": {"seeed": 1}}, "unknown SearchConfig field"),
        ({"n": 6, "config": {"incremental": True}},
         "unknown SearchConfig field"),
        ({"n": 6, "config": [1]}, "config must be a JSON object"),
        ({"n": 6, "config": {"objectives": 5}}, "objectives must be"),
        ({"n": 6, "config": {"impl": "native"}}, "'impl'"),
        ({"n": 6, "warm": "no"}, "unknown /place field(s) ['warm']"),
        ({"n": 6, "deadline_s": float("nan")}, "deadline_s must be positive"),
        ({"n": 6, "method": 5}, "unknown method"),
        ({"n": 6, "warm": False}, "unknown /place field(s) ['warm']"),
        ({"n": 6, "link_limits": [True]}, "link_limits must be"),
        ({"n": 6, "link_limits": [1.0]}, "link_limits must be"),
        ({"n": 6, "deadline_s": True}, "deadline_s must be a number"),
        ({"n": 6, "deadline_s": "7"}, "deadline_s must be a number"),
    ])
    def test_bad_requests_400(self, app, body, fragment):
        status, parsed, _ = asyncio.run(
            _request(app, "POST", "/place", dict(body, effort=body.get(
                "effort", "smoke")))
        )
        assert status == 400
        assert fragment in parsed["error"]
        assert _counters(app)["serve.errors.bad_request"] == 1

    def test_malformed_json_400(self, app):
        async def scenario():
            return await app.handle("POST", "/place", b"{nope")

        status, _, data, _ = asyncio.run(scenario())
        assert status == 400
        assert b"not valid JSON" in data


class TestEvaluate:
    def test_matches_unbatched_scalar(self, app):
        links = [[0, 3], [1, 4]]
        status, body, _ = asyncio.run(_request(
            app, "POST", "/evaluate",
            {"n": 6, "express_links": links, "link_limit": 4},
        ))
        assert status == 200
        expected = evaluate_placement(
            RowPlacement(6, frozenset({(0, 3), (1, 4)})), link_limit=4
        )
        assert body["result"] == expected.to_json()

    def test_placement_row_hex_input(self, app):
        placement = RowPlacement(6, frozenset({(0, 4)}))
        status, body, _ = asyncio.run(_request(
            app, "POST", "/evaluate",
            {"placement_row": placement.canonical_bytes().hex(),
             "link_limit": 2},
        ))
        assert status == 200
        assert body["placement_row"] == placement.canonical_bytes().hex()
        assert body["result"] == evaluate_placement(
            placement, link_limit=2
        ).to_json()

    def test_concurrent_requests_batch_once(self, app):
        placements = [
            RowPlacement(6, frozenset()),
            RowPlacement(6, frozenset({(0, 2)})),
            RowPlacement(6, frozenset({(0, 3)})),
            RowPlacement(6, frozenset({(1, 5)})),
            RowPlacement(6, frozenset({(2, 4), (0, 5)})),
        ]

        async def scenario():
            return await asyncio.gather(*(
                _request(app, "POST", "/evaluate", {
                    "n": 6,
                    "express_links": [list(l) for l in p.express_links],
                    "link_limit": 4,
                })
                for p in placements
            ))

        responses = asyncio.run(scenario())
        counters = _counters(app)
        assert counters["serve.evaluate.batches"] == 1
        assert counters["serve.evaluate.requests"] == 5
        for p, (status, body, _) in zip(placements, responses):
            assert status == 200
            assert body["result"] == evaluate_placement(
                p, link_limit=4
            ).to_json()

    def test_mixed_sizes_in_one_batch(self, app):
        async def scenario():
            return await asyncio.gather(
                _request(app, "POST", "/evaluate",
                         {"n": 4, "express_links": [[0, 2]]}),
                _request(app, "POST", "/evaluate",
                         {"n": 8, "express_links": [[0, 5]]}),
            )

        (s1, b1, _), (s2, b2, _) = asyncio.run(scenario())
        assert (s1, s2) == (200, 200)
        assert b1["result"] == evaluate_placement(
            RowPlacement(4, frozenset({(0, 2)}))
        ).to_json()
        assert b2["result"] == evaluate_placement(
            RowPlacement(8, frozenset({(0, 5)}))
        ).to_json()

    def test_weighted_evaluate(self, app):
        weights = [[1.0] * 6 for _ in range(6)]
        status, body, _ = asyncio.run(_request(
            app, "POST", "/evaluate",
            {"n": 6, "express_links": [[0, 3]], "weights": weights},
        ))
        assert status == 200
        assert body["result"] == evaluate_placement(
            RowPlacement(6, frozenset({(0, 3)})),
            weights=weights,
        ).to_json()

    def test_huge_finite_weights_still_price(self, app):
        # Just below the overflow bound the weighted mean is finite and
        # byte-identical to the library's.
        weights = [[1e300] * 4 for _ in range(4)]
        status, body, _ = asyncio.run(_request(
            app, "POST", "/evaluate",
            {"n": 4, "express_links": [[0, 2]], "link_limit": 2,
             "weights": weights},
        ))
        assert status == 200
        expected = evaluate_placement(
            RowPlacement(4, frozenset({(0, 2)})), 2, weights=weights
        )
        assert math.isfinite(expected.row_head_latency)
        assert body["result"] == expected.to_json()

    @pytest.mark.parametrize("body,fragment", [
        ({"link_limit": 2}, "requires 'placement_row'"),
        ({"n": 6, "express_links": "0,3"}, "express_links"),
        ({"n": 6, "link_limit": 0}, "link_limit"),
        ({"n": 6, "weights": [[1.0]]}, "weights must be 6x6"),
        ({"n": 6, "weights": [[0.0] * 6] * 6}, "positive sum"),
        ({"n": 6, "weights": "dense"}, "weights"),
        ({"n": 6, "unknown_knob": 1}, "unknown /evaluate field"),
        ({"n": 6, "express_links": [[0, "a"]]}, "express_links"),
        ({"n": 6, "express_links": [[0, 2, 3]]}, "express_links"),
        ({"n": 6, "express_links": [5]}, "express_links"),
        ({"placement_row": "zz"}, "placement_row"),
        ({"n": "4"}, "n must be an integer >= 2"),
        ({"n": 10**30}, "n must be an integer >= 2 and <= 1024"),
        ({"n": 6, "link_limit": True}, "link_limit must be an integer"),
        ({"n": 6, "weights": [[float("nan")] * 6] * 6}, "finite numbers >= 0"),
        ({"n": 6, "weights": [[1.0] * 6] * 5 + [[float("inf")] + [1.0] * 5]},
         "finite numbers >= 0"),
        ({"n": 6, "weights": [[-5, 1, 1, 1, 1, 1]] + [[1] * 6] * 5},
         "finite numbers >= 0"),
        ({"n": 6, "weights": [[True] * 6] * 6}, "finite numbers >= 0"),
        ({"n": 6, "weights": [["1"] * 6] * 6}, "finite numbers >= 0"),
        ({"n": 6, "weights": [[10 ** 400] * 6] * 6}, "finite numbers >= 0"),
        # Finite entries whose sum overflows, and a finite sum whose
        # weighted distance sum would (both were answered 200).
        ({"n": 4, "express_links": [[0, 2]], "link_limit": 2,
          "weights": [[1e308] * 4] * 4}, "weights"),
        ({"n": 4, "express_links": [[0, 2]], "link_limit": 2,
          "weights": [[1e307] * 4] * 4}, "weights"),
        ({"n": 4, "express_links": [[0, 2]], "link_limit": 2,
          "weights": [[5e306] * 4] * 4}, "weights"),
    ])
    def test_bad_requests_400(self, app, body, fragment):
        status, parsed, _ = asyncio.run(
            _request(app, "POST", "/evaluate", body)
        )
        assert status == 400
        assert fragment in parsed["error"]

    def test_limit_violation_400_without_failing_batchmates(self, app):
        crowded = RowPlacement(
            6, frozenset({(0, 2), (0, 3), (0, 4), (0, 5), (1, 3)})
        )

        async def scenario():
            return await asyncio.gather(
                _request(app, "POST", "/evaluate", {
                    "n": 6,
                    "express_links": [list(l) for l in crowded.express_links],
                    "link_limit": 1,
                }),
                _request(app, "POST", "/evaluate",
                         {"n": 6, "express_links": [[0, 3]],
                          "link_limit": 2}),
            )

        (s1, b1, _), (s2, b2, _) = asyncio.run(scenario())
        assert s1 == 400
        assert s2 == 200
        assert b2["result"] == evaluate_placement(
            RowPlacement(6, frozenset({(0, 3)})), link_limit=2
        ).to_json()

    def test_draining_503(self, app):
        app.draining = True
        status, _, headers = asyncio.run(_request(
            app, "POST", "/evaluate", {"n": 6, "express_links": []}
        ))
        assert status == 503
        assert headers["Retry-After"] == "5"


class TestCampaign:
    def test_small_grid(self, app):
        status, body, _ = asyncio.run(_request(app, "POST", "/campaign", {
            "n": 4,
            "schemes": ["mesh"],
            "patterns": ["uniform_random"],
            "rates": [0.05],
            "warmup": 20,
            "measure": 100,
        }))
        assert status == 200
        assert body["runs"] == 1
        (row,) = body["results"]
        assert row["scheme"] == "Mesh"  # the design's display name
        assert row["pattern"] == "uniform_random"
        assert row["packets"] > 0
        assert body["result_digest"]

    def test_unknown_field_400(self, app):
        status, body, _ = asyncio.run(_request(
            app, "POST", "/campaign", {"n": 4, "turbo": True}
        ))
        assert status == 400
        assert "unknown /campaign field" in body["error"]

    @pytest.mark.parametrize("field,value", [
        ("seeds", "abc"),
        ("seeds", 0),
        ("measure", "lots"),
        ("measure", 0),
        ("warmup", -1),
        ("seed", "x"),
        ("seed", -1),
        ("rates", ["x"]),
        ("rates", [0.0]),
        ("rates", [True]),
        ("rates", 1.0),
        ("n", "4"),
        ("n", 1),
        ("n", 1025),
        ("schemes", "mesh"),
        ("schemes", ["bogus"]),
        ("patterns", ["nope"]),
        ("patterns", []),
        ("effort", "turbo"),
        ("effort", ["smoke"]),
        ("jobs", 0),
        ("jobs", "2"),
    ])
    def test_malformed_field_400_before_any_work(self, app, monkeypatch,
                                                 field, value):
        import repro.serve.server as server

        def no_work(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("a malformed campaign reached the grid")

        monkeypatch.setattr(server, "_run_campaign_grid", no_work)
        status, body, _ = asyncio.run(_request(
            app, "POST", "/campaign",
            dict({"n": 4, "warmup": 20, "measure": 100}, **{field: value}),
        ))
        assert status == 400
        assert body["error"].startswith((f"{field} must be", f"unknown {field}"))
        assert _counters(app)["serve.errors.bad_request"] == 1


class TestNoFork:
    """``jobs`` in a request is validated but never forks the server."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        import repro.core.parallel as parallel

        def refuse(*args, **kwargs):
            raise AssertionError("a served request tried to start a pool")

        monkeypatch.setattr(parallel.mp, "get_context", refuse)

    def test_place_runs_in_process(self, app, no_pool):
        status, body, _ = asyncio.run(_request(app, "POST", "/place", dict(
            PLACE, config={"seed": 7, "restarts": 2, "jobs": 64},
        )))
        assert status == 200, body
        assert body["result"]["config"]["jobs"] == 1
        assert body["result"]["config"]["restarts"] == 2

    def test_campaign_runs_in_process(self, app, no_pool):
        status, body, _ = asyncio.run(_request(app, "POST", "/campaign", {
            "n": 4, "rates": [0.05, 0.1], "seeds": 2, "jobs": 64,
            "warmup": 20, "measure": 100,
        }))
        assert status == 200, body
        assert body["runs"] == 4


class TestRunsAndMetrics:
    def test_place_records_ledger_manifest(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs"))
        app = ServeApp(DesignStore(str(tmp_path / "designs")),
                       ledger=ledger, default_effort="smoke")
        try:
            async def scenario():
                _, placed, _ = await _request(app, "POST", "/place", PLACE)
                return placed, await _request(
                    app, "GET", f"/runs/{placed['key']}"
                )

            placed, (status, manifest, _) = asyncio.run(scenario())
        finally:
            app.executor.shutdown(wait=True)
        assert status == 200
        assert manifest["run_id"] == placed["key"]
        assert manifest["result_digest"] == placed["result_digest"]
        assert manifest["kind"] == "optimize"

    def test_unknown_run_404(self, tmp_path):
        app = ServeApp(DesignStore(str(tmp_path / "designs")),
                       ledger=RunLedger(str(tmp_path / "runs")))
        try:
            status, body, _ = asyncio.run(
                _request(app, "GET", "/runs/feedfacedeadbeef")
            )
        finally:
            app.executor.shutdown(wait=True)
        assert status == 404

    def test_runs_without_ledger_404(self, app):
        status, body, _ = asyncio.run(_request(app, "GET", "/runs/abc"))
        assert status == 404
        assert "ledger" in body["error"]

    def test_metrics_prometheus_text(self, app):
        async def scenario():
            await _request(app, "POST", "/place", PLACE)
            return await app.handle("GET", "/metrics")

        status, ctype, data, _ = asyncio.run(scenario())
        assert status == 200
        assert ctype == TEXT
        text = data.decode()
        assert 'repro_serve_cache_miss{service="repro-serve"} 1' in text
        assert 'repro_serve_request_place{service="repro-serve"} 1' in text

    def test_healthz(self, app):
        status, body, _ = asyncio.run(_request(app, "GET", "/healthz"))
        assert status == 200
        assert body == {"status": "ok", "inflight": 0, "cached_designs": 0}
        app.draining = True
        _, body, _ = asyncio.run(_request(app, "GET", "/healthz"))
        assert body["status"] == "draining"

    def test_unknown_route_404(self, app):
        status, body, _ = asyncio.run(_request(app, "GET", "/nope"))
        assert status == 404
        status, body, _ = asyncio.run(_request(app, "PUT", "/place", {}))
        assert status == 404


class TestShutdown:
    def test_shutdown_drains_inflight_work(self, app):
        async def scenario():
            place = asyncio.ensure_future(
                _request(app, "POST", "/place", PLACE)
            )
            await asyncio.sleep(0.05)  # let the compute start
            await app.shutdown()
            return await place

        status, body, _ = asyncio.run(scenario())
        assert status == 200
        assert len(app.store) == 1
        assert app.idle
