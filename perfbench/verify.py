"""Output checks, run outside every timed region.

Each ``check_*`` function takes a workload's exported outputs and
returns one :class:`Op` per attempted operation; an operation counts
toward ``ok_frac`` only when every check on it passed.  The checks
price results again through the public evaluator, so they need the
``repro`` package importable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: The exact optimum row energy of P(n, C) for exact20's sizes, as
#: float hex.  The exhaustive search does not depend on the seed.
PINNED_EXACT = {
    (20, 2): "0x1.09c28f5c28f5cp+4",  # 16.61
    (8, 2): "0x1.ec00000000000p+2",  # 7.6875 (tiny scale)
}


@dataclass
class Op:
    """One attempted operation and the checks it failed (if any)."""

    name: str
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)


def _placement(n: int, links):
    from repro.topology.row import RowPlacement

    return RowPlacement(n, frozenset(tuple(link) for link in links))


def check_optimize(out: Dict[str, Any]) -> List[Op]:
    """optimize16: the returned design is valid, re-prices bit for bit
    through the pure-Python reference evaluator, and beats the mesh."""
    from repro import evaluate_placement
    from repro.topology.row import RowPlacement

    op = Op("optimize")
    placement = _placement(out["n"], out["express_links"])
    limit = out["link_limit"]
    op.require(placement.satisfies_limit(limit),
               f"placement exceeds its link limit C={limit}")
    ref = evaluate_placement(placement, limit, impl="reference")
    op.require(ref.row_head_latency.hex() == out["energy"],
               f"energy {out['energy']} != reference {ref.row_head_latency.hex()}")
    op.require(ref.total_latency.hex() == out["total_latency"],
               f"total latency {out['total_latency']} != re-priced "
               f"{ref.total_latency.hex()}")
    mesh = evaluate_placement(RowPlacement.mesh(out["n"]), 1).total_latency
    op.require(float.fromhex(out["total_latency"]) < mesh,
               f"design does not beat the mesh ({mesh})")
    return [op]


def check_exact(out: Dict[str, Any]) -> List[Op]:
    """exact20: the optimum is valid, re-prices bit for bit through the
    reference evaluator, and equals its pinned value."""
    from repro import evaluate_placement

    op = Op("exact")
    placement = _placement(out["n"], out["express_links"])
    limit = out["link_limit"]
    op.require(placement.satisfies_limit(limit),
               f"placement exceeds its link limit C={limit}")
    ref = evaluate_placement(placement, impl="reference").row_head_latency.hex()
    op.require(ref == out["energy"],
               f"energy {out['energy']} != reference {ref}")
    pinned = PINNED_EXACT.get((out["n"], limit))
    op.require(pinned is not None and ref == pinned,
               f"optimum {ref} != pinned {pinned}")
    return [op]


def check_campaign(out: Dict[str, Any]) -> List[Op]:
    """campaign8: every job drained and lost no packet.

    A run stops once every packet created in the measurement window has
    completed, while background packets injected during that drain may
    still be in flight -- so ``packets_done <= packets_created``, with
    equality not required.
    """
    ops = []
    for job in out["jobs"]:
        op = Op("job " + "/".join(str(k) for k in job["key"]))
        op.require(job["drained"], "measured packets did not drain")
        op.require(0 < job["packets_done"] <= job["packets_created"],
                   f"packets done {job['packets_done']} vs created "
                   f"{job['packets_created']}")
        latency = float.fromhex(job["avg_network_latency"])
        op.require(math.isfinite(latency) and latency > 0,
                   f"average network latency {latency}")
        ops.append(op)
    return ops


def check_serve(out: Dict[str, Any]) -> List[Op]:
    """serve_mix: misses price correctly, hits replay their miss byte for
    byte, evaluations match the in-process evaluator, and the server's
    cache counters account for every ``/place`` request."""
    from repro import evaluate_placement
    from repro.api import PlacementResult

    ops: List[Op] = []
    stored: Dict[str, str] = {}
    for req in out["writes"]:
        op = Op("place " + _canonical(req["body"]))
        body = _response(req, op)
        if body is not None:
            op.require(body.get("cache") in ("miss", "warm", "coalesced"),
                       f"write served as {body.get('cache')!r}")
            result = PlacementResult.from_json(body["result"])
            op.require(result.placement.satisfies_limit(result.link_limit),
                       "placement exceeds its link limit")
            priced = evaluate_placement(result.placement, result.link_limit)
            op.require(priced.total_latency == result.total_latency,
                       "total latency does not re-price")
            stored[_canonical(req["body"])] = _canonical(body["result"])
        ops.append(op)
    for req in out["reads"]:
        op = Op(f"{req['kind']} " + _canonical(req["body"]))
        body = _response(req, op)
        if body is not None and req["kind"] == "hit":
            op.require(body.get("cache") == "hit",
                       f"read served as {body.get('cache')!r}")
            op.require(_canonical(body["result"]) == stored.get(_canonical(req["body"])),
                       "hit payload differs from the miss that stored it")
        elif body is not None:
            spec = req["body"]
            placement = _placement(spec["n"], spec["express_links"])
            expected = evaluate_placement(placement, spec["link_limit"]).to_json()
            op.require(body["result"] == expected,
                       "evaluation differs from evaluate_placement")
        ops.append(op)
    op = Op("metrics")
    counters = out.get("counters")
    if counters is None:
        op.problems.append("no /metrics scrape")
    else:
        places = len(out["writes"]) + sum(r["kind"] == "hit" for r in out["reads"])
        cached = sum(counters.get(f"serve.cache.{c}", 0)
                     for c in ("hit", "miss", "warm", "coalesced"))
        op.require(cached == places,
                   f"serve.cache.* counters sum to {cached}, {places} /place sent")
    ops.append(op)
    return ops


def _response(req: Dict[str, Any], op: Op) -> Optional[Dict[str, Any]]:
    if req.get("status") != 200:
        op.problems.append(f"HTTP status {req.get('status')}: {req.get('error')}")
        return None
    return json.loads(req["response"])


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True)


CHECKS = {
    "optimize16": check_optimize,
    "exact20": check_exact,
    "campaign8": check_campaign,
    "serve_mix": check_serve,
}
