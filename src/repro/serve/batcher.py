"""Request batching: coalesce concurrent ``/evaluate`` calls.

Evaluation requests that are pending together are priced by a single
:meth:`~repro.core.latency.RowObjective.evaluate_many` call -- the
population Floyd-Warshall kernel -- instead of one O(n^3) solve each.
``evaluate_many`` is bit-identical to the scalar path by the
batched-population parity contract, and each request is finished
through :func:`repro.api.eval_result_from_row` (the exact tail of
:func:`repro.api.evaluate_placement`), so a batched response is
byte-identical to an unbatched one.

There is no timer: the first request to arrive starts a flush task,
which yields one event-loop turn (so requests already scheduled join)
and then prices everything pending in the worker pool.  Requests that
queue while a batch is being priced form the next batch, so batches
still grow whenever the pool is busy, and a lone request waits for
nothing.  Requests are grouped by ``(n, weights)`` inside one batch
since one kernel call prices one population shape.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.api import EvalResult, eval_result_from_row
from repro.core.latency import RowObjective
from repro.topology.row import RowPlacement


@dataclass
class _Pending:
    placement: RowPlacement
    link_limit: Optional[int]
    weights: Optional[Tuple[Tuple[float, ...], ...]]
    future: "asyncio.Future[EvalResult]"


class EvaluateBatcher:
    """Coalesces concurrent evaluation requests into population calls."""

    def __init__(self, registry: Any = None, executor: Any = None) -> None:
        self.registry = registry
        self.executor = executor
        self._pending: List[_Pending] = []
        self._flush_task: Optional[asyncio.Task] = None

    async def evaluate(
        self,
        placement: RowPlacement,
        link_limit: Optional[int] = None,
        weights: Optional[Tuple[Tuple[float, ...], ...]] = None,
    ) -> EvalResult:
        """Price one placement; joins the next batch to be priced."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[EvalResult]" = loop.create_future()
        self._pending.append(_Pending(placement, link_limit, weights, future))
        if self._flush_task is None or self._flush_task.done():
            self._flush_task = loop.create_task(self._flush())
        return await future

    async def drain(self) -> None:
        """Wait for the in-flight flush (graceful-shutdown support)."""
        while self._pending or (
            self._flush_task is not None and not self._flush_task.done()
        ):
            task = self._flush_task
            if task is not None:
                await asyncio.shield(task)
            else:  # pragma: no cover - pending with no armed task
                await asyncio.sleep(0)

    async def _flush(self) -> None:
        await asyncio.sleep(0)
        loop = asyncio.get_running_loop()
        while self._pending:
            batch, self._pending = self._pending, []
            if self.registry is not None:
                self.registry.counter("serve.evaluate.batches").inc()
                self.registry.counter("serve.evaluate.requests").inc(len(batch))
                self.registry.histogram(
                    "serve.evaluate.batch_size", (1, 2, 4, 8, 16, 32, 64)
                ).observe(len(batch))
            try:
                results = await loop.run_in_executor(
                    self.executor, _price_batch, batch
                )
            except Exception as exc:  # kernel-level failure: fail the batch
                results = [exc] * len(batch)
            for item, outcome in zip(batch, results):
                if item.future.done():  # request timed out mid-flight
                    continue
                if isinstance(outcome, Exception):
                    item.future.set_exception(outcome)
                else:
                    item.future.set_result(outcome)


def _price_batch(batch: List[_Pending]) -> List[Any]:
    """Price a whole batch (worker thread; touches no asyncio state).

    One ``evaluate_many`` kernel call per ``(n, weights)`` group, then
    the per-request Eq. 2 tail.  Per-item errors (e.g. a placement that
    violates its requested limit) are returned in place so one bad
    request cannot fail its batch-mates.
    """
    results: List[Any] = [None] * len(batch)
    groups: dict = {}
    for idx, item in enumerate(batch):
        groups.setdefault((item.placement.n, item.weights), []).append(idx)
    for (_, weights), indexes in groups.items():
        objective = RowObjective(weights=weights)
        rows = objective.evaluate_many(
            [batch[i].placement for i in indexes]
        )
        for i, row in zip(indexes, rows.tolist()):
            try:
                results[i] = eval_result_from_row(
                    batch[i].placement, row, batch[i].link_limit
                )
            except Exception as exc:
                results[i] = exc
    return results
