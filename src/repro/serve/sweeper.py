"""Background sweeper: pre-populate the design cache during idle time.

A serving process spends most of its life waiting for requests.  The
sweeper turns that idle time into cache warmth: it walks a configured
``(n, C)`` grid in deterministic order and, whenever the app has no
request-driven work in flight, computes and stores the next missing
design through the exact same pipeline ``POST /place`` uses (same
identity key, same single-flight map, same ledger recording).  A later
request for any pre-populated point is then an exact cache hit.

The sweeper is strictly lower priority than real traffic: it checks
:attr:`~repro.serve.server.ServeApp.idle` before *every* grid point
and backs off while requests are active; it never counts against the
request capacity it yields to.  Cancelling the task (or app drain)
stops it between points; a point already being computed for a request
is awaited, not duplicated, via the single-flight map.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence

from repro.core.latency import BandwidthConfig
from repro.serve.server import ServeApp


def sweep_grid(
    sizes: Sequence[int],
    method: str = "dc_sa",
    effort: str = "paper",
    seed: Optional[int] = 2019,
    per_limit: bool = True,
) -> List[Dict]:
    """The ordered pre-population plan: one spec dict per grid point.

    For each mesh size the full sweep comes first -- its identity key
    matches a plain ``repro optimize -n <n>`` run, the most likely
    request -- followed (when ``per_limit``) by each single-``C``
    sub-sweep, whose identity records the non-default ``link_limits``
    so it can never collide with the full sweep's key.
    """
    bandwidth = BandwidthConfig()
    specs: List[Dict] = []
    for n in sizes:
        specs.append({"n": n, "method": method, "effort": effort,
                      "seed": seed, "link_limits": None})
        if per_limit:
            for c in bandwidth.valid_link_limits(n):
                specs.append({"n": n, "method": method, "effort": effort,
                              "seed": seed, "link_limits": (c,)})
    return specs


class Sweeper:
    """Walks a grid plan through the app's compute pipeline when idle."""

    def __init__(
        self,
        app: ServeApp,
        specs: Sequence[Dict],
        *,
        idle_poll_s: float = 0.25,
    ) -> None:
        self.app = app
        self.specs = list(specs)
        self.idle_poll_s = idle_poll_s
        self.populated = 0
        self.skipped = 0

    async def run(self) -> int:
        """Fill the grid; returns the number of entries populated.

        Returns early if the app starts draining.  Safe to cancel at
        any point boundary.
        """
        for spec in self.specs:
            while not self.app.idle:
                if self.app.draining:
                    return self.populated
                await asyncio.sleep(self.idle_poll_s)
            if self.app.draining:
                return self.populated
            body = {"n": spec["n"], "method": spec["method"],
                    "effort": spec["effort"], "config": {"seed": spec["seed"]}}
            if spec["link_limits"] is not None:
                body["link_limits"] = list(spec["link_limits"])
            key, plan = self.app._place_spec(body)
            if key in self.app.store:
                self.skipped += 1
                continue
            inflight = self.app._inflight.get(key)
            if inflight is not None:  # a request beat us to this point
                await asyncio.shield(inflight)
                self.skipped += 1
                continue
            task = asyncio.get_running_loop().create_task(
                self.app._compute_place(key, plan)
            )
            self.app._inflight[key] = task
            await asyncio.shield(task)
            self.populated += 1
            self.app.metrics.counter("serve.sweeper.populated").inc()
            # Yield the loop between points so queued requests run first.
            await asyncio.sleep(0)
        return self.populated
