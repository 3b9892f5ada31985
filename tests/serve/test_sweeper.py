"""Background sweeper: idle-time cache pre-population."""

import asyncio
import json

import pytest

from repro.api import SearchConfig
from repro.core.latency import BandwidthConfig
from repro.obs.ledger import compute_run_id, optimize_params
from repro.serve.server import ServeApp
from repro.serve.store import DesignStore
from repro.serve.sweeper import Sweeper, sweep_grid


@pytest.fixture
def app(tmp_path):
    application = ServeApp(
        DesignStore(str(tmp_path / "designs")),
        default_effort="smoke",
    )
    yield application
    application.executor.shutdown(wait=True)


class TestSweepGrid:
    def test_full_sweep_first_then_per_limit(self):
        specs = sweep_grid([6], effort="smoke")
        assert specs[0]["link_limits"] is None
        limits = BandwidthConfig().valid_link_limits(6)
        assert [s["link_limits"] for s in specs[1:]] == [
            (c,) for c in limits
        ]

    def test_per_limit_disabled(self):
        specs = sweep_grid([6, 8], effort="smoke", per_limit=False)
        assert [s["n"] for s in specs] == [6, 8]
        assert all(s["link_limits"] is None for s in specs)

    def test_full_sweep_key_matches_plain_request_key(self, app):
        specs = sweep_grid([4], effort="smoke", per_limit=False)
        asyncio.run(Sweeper(app, specs, idle_poll_s=0.01).run())
        cfg = SearchConfig(seed=2019)
        params = optimize_params(4, "dc_sa", "smoke", cfg.space)
        assert app.store.keys() == [
            compute_run_id("optimize", params, cfg, cfg.seed)
        ]

    def test_per_limit_keys_never_collide_with_full_sweep(self, app):
        specs = sweep_grid([4], effort="smoke")
        populated = asyncio.run(Sweeper(app, specs, idle_poll_s=0.01).run())
        assert populated == len(specs) == len(app.store)


class TestSweeperRun:
    def test_populates_missing_points(self, app):
        specs = sweep_grid([4], effort="smoke", per_limit=False)
        sweeper = Sweeper(app, specs, idle_poll_s=0.01)
        populated = asyncio.run(sweeper.run())
        assert populated == 1
        assert len(app.store) == 1
        counters = app.metrics.snapshot()["counters"]
        assert counters["serve.sweeper.populated"] == 1
        # Sweeper computes bypass the request-cache classification.
        assert "serve.cache.miss" not in counters

    def test_skips_already_cached_points(self, app):
        specs = sweep_grid([4], effort="smoke", per_limit=False)
        asyncio.run(Sweeper(app, specs, idle_poll_s=0.01).run())
        again = Sweeper(app, specs, idle_poll_s=0.01)
        populated = asyncio.run(again.run())
        assert populated == 0
        assert again.skipped == 1

    def test_prepopulated_point_is_an_exact_hit(self, app):
        specs = sweep_grid([4], effort="smoke", per_limit=False)
        asyncio.run(Sweeper(app, specs, idle_poll_s=0.01).run())

        async def place():
            status, _, data, _ = await app.handle(
                "POST", "/place",
                json.dumps({"n": 4, "effort": "smoke"}).encode(),
            )
            return status, json.loads(data)

        status, body = asyncio.run(place())
        assert status == 200
        assert body["cache"] == "hit"
        assert app.metrics.snapshot()["counters"]["serve.cache.hit"] == 1

    def test_draining_stops_the_walk(self, app):
        app.draining = True
        specs = sweep_grid([4, 6], effort="smoke", per_limit=False)
        sweeper = Sweeper(app, specs, idle_poll_s=0.01)
        assert asyncio.run(sweeper.run()) == 0
        assert len(app.store) == 0

    def test_yields_to_inflight_requests(self, app):
        # While a request occupies the app, the sweeper polls instead
        # of starting work; once idle it resumes and fills its point.
        specs = sweep_grid([4], effort="smoke", per_limit=False)
        sweeper = Sweeper(app, specs, idle_poll_s=0.01)

        async def scenario():
            request = asyncio.ensure_future(app.handle(
                "POST", "/place",
                json.dumps({"n": 6, "effort": "smoke"}).encode(),
            ))
            await asyncio.sleep(0.02)  # request is now in flight
            sweep = asyncio.ensure_future(sweeper.run())
            status, _, _, _ = await request
            populated = await sweep
            return status, populated

        status, populated = asyncio.run(scenario())
        assert status == 200
        assert populated == 1
        assert len(app.store) == 2  # the request's design + the sweep point
