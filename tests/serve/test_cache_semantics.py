"""Cache-semantics contracts the serving layer is allowed to promise.

Three properties, each deterministic rather than statistical:

1. **Exact hit == cold CLI.**  A served ``/place`` and a direct
   :func:`repro.core.optimizer.optimize` call with the same identity
   key produce byte-identical result JSON, and the exact hit replays
   those bytes.
2. **A miss ignores the rest of the store.**  A miss computes what the
   CLI computes for its key even when the store already holds a design
   of the same size under another key.
3. **Single-flight.**  N identical concurrent requests run one search.
"""

import asyncio

import pytest

from repro.api import SearchConfig
from repro.core.optimizer import optimize
from repro.harness.designs import EFFORTS
from repro.obs.ledger import optimize_params, sweep_digest
from repro.serve.server import ServeApp
from repro.serve.store import DesignStore

SMOKE = EFFORTS["smoke"]


@pytest.fixture
def app(tmp_path):
    application = ServeApp(
        DesignStore(str(tmp_path / "designs")),
        default_effort="smoke",
    )
    yield application
    application.executor.shutdown(wait=True)


async def _place(app, **body):
    import json

    status, _, data, _ = await app.handle(
        "POST", "/place", json.dumps(body).encode()
    )
    assert status == 200, data
    return json.loads(data)


class TestExactHitIdentity:
    def test_served_cold_result_is_byte_identical_to_direct_optimize(
        self, app
    ):
        served = asyncio.run(_place(app, n=6, effort="smoke"))
        cfg = SearchConfig(seed=2019)
        direct = optimize(6, params=SMOKE, config=cfg)
        # Identity key agreement (store key == ledger run_id) ...
        params = optimize_params(6, "dc_sa", "smoke", cfg.space)
        assert served["key"] == app.store.key_for(
            "optimize", params, cfg, cfg.seed
        )
        # ... and full result agreement, wall time excepted (it is not
        # part of result equality, but it IS part of the JSON).
        assert served["result_digest"] == sweep_digest(direct.sweep)
        direct_json = direct.to_json()
        served_json = dict(served["result"])
        served_json.pop("wall_time_s")
        direct_json.pop("wall_time_s")
        assert served_json == direct_json

    def test_exact_hit_replays_stored_bytes(self, app):
        first = asyncio.run(_place(app, n=6, effort="smoke"))
        stored = open(app.store.entry_path(first["key"]), "rb").read()
        hit = asyncio.run(_place(app, n=6, effort="smoke"))
        assert hit["cache"] == "hit"
        assert hit["result"] == first["result"]
        # The hit did not rewrite (or even touch) the stored entry.
        assert open(app.store.entry_path(first["key"]), "rb").read() == stored

    def test_different_identity_different_entry(self, app):
        a = asyncio.run(_place(app, n=6, effort="smoke"))
        b = asyncio.run(_place(app, n=6, effort="smoke", config={"seed": 7}))
        assert a["key"] != b["key"]
        assert len(app.store) == 2


class TestMissIgnoresTheStore:
    def test_miss_beside_a_same_size_entry_is_the_cli_result(self, app):
        # The seed-2019 design is in the store when seed 18 misses; the
        # miss must not borrow from it (seeding the search with that
        # design answers C=4 here, where the CLI picks C=2).
        stored = asyncio.run(_place(app, n=6, effort="smoke"))
        served = asyncio.run(
            _place(app, n=6, effort="smoke", config={"seed": 18})
        )
        assert (stored["cache"], served["cache"]) == ("miss", "miss")
        direct = optimize(6, params=SMOKE, config=SearchConfig(seed=18))
        assert served["result_digest"] == sweep_digest(direct.sweep)
        direct_json = direct.to_json()
        served_json = dict(served["result"])
        served_json.pop("wall_time_s")
        direct_json.pop("wall_time_s")
        assert served_json == direct_json
        assert len(app.store) == 2


class TestSingleFlight:
    def test_identical_concurrent_requests_share_one_search(self, app):
        async def scenario():
            return await asyncio.gather(
                *(_place(app, n=6, effort="smoke") for _ in range(6))
            )

        bodies = asyncio.run(scenario())
        assert len({b["key"] for b in bodies}) == 1
        assert all(b["result"] == bodies[0]["result"] for b in bodies)
        counters = app.metrics.snapshot()["counters"]
        assert counters["serve.cache.miss"] == 1
        assert counters["serve.cache.coalesced"] == 5
        assert "serve.cache.hit" not in counters
        # One search ran: one wall-time sample was recorded.
        quantiles = app.metrics.snapshot()["quantiles"]
        assert quantiles["serve.place.wall_s"]["count"] == 1

    def test_distinct_identities_do_not_coalesce(self, app):
        async def scenario():
            return await asyncio.gather(
                _place(app, n=6, effort="smoke"),
                _place(app, n=6, effort="smoke", config={"seed": 1}),
            )

        a, b = asyncio.run(scenario())
        assert a["key"] != b["key"]
        counters = app.metrics.snapshot()["counters"]
        assert counters["serve.cache.miss"] == 2
        assert "serve.cache.coalesced" not in counters
