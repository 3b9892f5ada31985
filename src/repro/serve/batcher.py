"""``/evaluate`` pricing, run in the server's worker pool.

Each request is priced when it arrives: the handler hands its one
request to :func:`_price_batch` on the pool and awaits it, so a
response is :func:`repro.api.evaluate_placement`'s result for the
request, byte for byte.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.api import EvalResult, evaluate_placement


def _price_batch(requests: Sequence[tuple]) -> List[EvalResult]:
    """Price ``(placement, link_limit, weights)`` requests in order
    (worker thread; touches no asyncio state)."""
    return [evaluate_placement(p, limit, weights=w) for p, limit, w in requests]
