"""Placement-as-a-service: async server and design cache.

The serving layer exposes the frozen public facade
(:class:`repro.SearchConfig` in, :class:`repro.PlacementResult` out)
over HTTP/JSON, backed by a content-addressed design cache keyed on
the run-ledger identity.  Stdlib-only: ``asyncio.start_server`` plus
``json``; no web framework.

>>> from repro.serve import ServeApp, DesignStore
>>> app = ServeApp(DesignStore("/tmp/designs"))
>>> # asyncio.run(app.handle("POST", "/place", b'{"n": 8}'))

See ``docs/serving.md`` for the endpoint reference and operational
semantics (cache classes, deadlines, backpressure, drain).
"""

from repro.serve.server import HttpServer, ServeApp
from repro.serve.store import STORE_ROOT, DesignStore, StoreEntry

__all__ = [
    "DesignStore",
    "HttpServer",
    "STORE_ROOT",
    "ServeApp",
    "StoreEntry",
]
