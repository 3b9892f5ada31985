"""Metric definitions and the reduction of rounds into metrics.

``E2E`` are the end-to-end metrics of an untraced run and ``PER_LAYER``
those of a traced run; ``BENCHMARK.json`` lists the same names (the
benchmark's tests hold the two together).  Every metric is reported on
every workload: a layer a workload never enters reports zero calls and
zero seconds, which is that layer's predicted "no change".
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Sequence, Tuple

import tracing

E2E: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("latency_cycles", "cycles"),
)

#: Span name -> which of its calls / busy_s are reported.
_SPAN_METRICS = (
    ("core.optimizer.optimize", ("calls", "busy_s")),
    ("core.annealing.anneal", ("calls", "busy_s")),
    ("core.divide_conquer.initial_solution", ("calls", "busy_s")),
    ("core.connection_matrix.decode", ("calls", "busy_s")),
    ("topology.row.canonical_bytes", ("calls", "busy_s")),
    ("core.latency.row_objective", ("calls", "busy_s")),
    ("core.latency.evaluate_many", ("calls", "busy_s")),
    ("routing.shortest_path.weight_stack", ("busy_s",)),
    ("routing.shortest_path.weight_stack_population", ("busy_s",)),
    ("routing.shortest_path.batched_mean_distances", ("busy_s",)),
    ("routing.shortest_path.fw_batch", ("calls", "busy_s")),
    ("core.connection_matrix.iter_unique_placements", ("busy_s",)),
    ("core.branch_bound.exhaustive_matrix_search", ("busy_s",)),
    ("sim.engine.init", ("busy_s",)),
    ("sim.engine.run", ("busy_s",)),
    ("sim.network.deliver_active", ("busy_s",)),
    ("sim.network.tick_nis_active", ("busy_s",)),
    ("sim.network.allocate_active", ("busy_s",)),
    ("traffic.injection.packets_for_cycle", ("busy_s",)),
    ("serve.server.handle.place", ("calls", "busy_s")),
    ("serve.server.handle.evaluate", ("calls", "busy_s")),
    ("serve.store.get", ("calls", "busy_s")),
    ("serve.store.put", ("calls", "busy_s")),
    ("serve.store.nearest", ("calls", "busy_s")),
    ("obs.ledger.record", ("calls", "busy_s")),
    ("api.to_json", ("busy_s",)),
    ("api.from_json", ("busy_s",)),
)

#: Counters recorded by the wrappers' post-call hooks.
_COUNTS = (
    "core.annealing.moves",
    "core.annealing.evaluations",
    "core.latency.evaluate_many.placements",
    "routing.shortest_path.fw_batch.slices",
    "core.connection_matrix.iter_unique_placements.placements",
    "sim.engine.cycles",
    "sim.engine.cycles_skipped",
    "sim.engine.packets",
    "sim.network.flit_moves",
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((f"{layer}.self_s", "s") for layer in tracing.LAYERS)
    + tuple((f"{name}.{field}", "count" if field == "calls" else "s")
            for name, fields in _SPAN_METRICS for field in fields)
    + tuple((name, "count") for name in _COUNTS)
    + (
        ("core.annealing.memo_hit_ratio", "ratio"),
        ("core.annealing.accept_ratio", "ratio"),
        ("sim.engine.host_us_per_flit_move", "us"),
        ("serve.batcher.batch_width", "count"),
        ("serve.miss.samples", "count"),
        ("serve.miss.p50_ms", "ms"),
        ("serve.hit.samples", "count"),
        ("serve.hit.p50_ms", "ms"),
        ("serve.hit.p90_ms", "ms"),
        ("serve.hit.outside_handle_ms", "ms"),
        ("serve.evaluate.samples", "count"),
        ("serve.evaluate.p50_ms", "ms"),
        ("serve.evaluate.p90_ms", "ms"),
        ("serve.evaluate.wait_ms", "ms"),
        ("serve.write_phase_s", "s"),
        ("serve.read_phase_s", "s"),
        ("serve.cache.hit", "count"),
        ("serve.cache.miss", "count"),
        ("serve.cache.warm", "count"),
        ("serve.cache.coalesced", "count"),
        ("serve.rejected", "count"),
        ("serve.design_latency_cycles_mean", "cycles"),
        ("design_latency_cycles", "cycles"),
        ("sim_latency_cycles", "cycles"),
        ("host.probe_ms", "ms"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unattributed_frac", "ratio"),
    )
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; failed requests count as ``inf``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def client_latencies(round_: Dict[str, Any]) -> Dict[str, List[float]]:
    """serve_mix client latencies (seconds) by class.

    ``miss`` covers the writes that ran a solve (classes ``miss`` and
    ``warm``); a failed request counts in its intended class as ``inf``.
    """
    import json

    out: Dict[str, List[float]] = {"miss": [], "hit": [], "evaluate": []}
    for rec in round_["writes"]:
        cache = json.loads(rec["response"]).get("cache") if rec["status"] == 200 else "miss"
        if cache in ("miss", "warm"):
            out["miss"].append(rec["latency_s"])
    for rec in round_["reads"]:
        out[rec["kind"]].append(rec["latency_s"])
    return out


def quality(workload: str, outputs: Dict[str, Any]) -> Dict[str, float]:
    """The cycles a packet takes through the workload's designs:
    modelled (Eq. 2) for the search workloads, simulated for campaign8."""
    import json

    from repro import evaluate_placement
    from repro.topology.row import RowPlacement

    if workload == "optimize16":
        return {"design_latency_cycles": float.fromhex(outputs["total_latency"])}
    if workload == "exact20":
        placement = RowPlacement(outputs["n"], frozenset(
            tuple(link) for link in outputs["express_links"]))
        total = evaluate_placement(placement, outputs["link_limit"]).total_latency
        return {"design_latency_cycles": total}
    if workload == "campaign8":
        latencies = [float.fromhex(job["avg_network_latency"]) for job in outputs["jobs"]]
        return {"sim_latency_cycles": statistics.fmean(latencies)}
    totals = [
        float.fromhex(json.loads(rec["response"])["result"]["total_latency"])
        for rec in outputs["writes"] if rec["status"] == 200
    ]
    return {"serve.design_latency_cycles_mean": statistics.fmean(totals) if totals else math.inf}


def e2e_metrics(setups: List[float], walls: List[float], rss: List[float],
                ok: int, attempted: int, qualities: List[Dict[str, float]]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": ok / attempted,
        "latency_cycles": statistics.median(v for q in qualities for v in q.values()),
    }


def layer_metrics(workload: str, base_walls: List[float], traced_wall: float,
                  traced: Dict[str, Any], base_round: Dict[str, Any],
                  base_quality: Dict[str, float], probe_ms: float) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    Span-derived numbers come from the traced round; client latency
    percentiles and quality from the untraced round before it, so that
    no wrapper cost reaches them.  ``base_walls`` and ``traced_wall``
    are rescaled to the reference host speed.
    """
    agg = traced["trace"]
    names = agg["names"]
    counts = traced["counts"]
    m: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for layer, seconds in agg["layers"].items():
        m[f"{layer}.self_s"] = seconds
    for name, fields in _SPAN_METRICS:
        for field in fields:
            m[f"{name}.{field}"] = names.get(name, {}).get(field, 0)
    for name in _COUNTS:
        m[name] = counts.get(name, 0)
    m["core.annealing.memo_hit_ratio"] = _ratio(
        counts.get("core.annealing.memo_calls", 0) - counts.get("core.annealing.evaluations", 0),
        counts.get("core.annealing.memo_calls", 0))
    m["core.annealing.accept_ratio"] = _ratio(
        counts.get("core.annealing.accepted", 0), counts.get("core.annealing.moves", 0))
    m["sim.engine.host_us_per_flit_move"] = _ratio(
        1e6 * names.get("sim.engine.run", {}).get("busy_s", 0.0),
        counts.get("sim.network.flit_moves", 0))
    m["serve.batcher.batch_width"] = _ratio(
        counts.get("serve.batcher.requests", 0), counts.get("serve.batcher.batches", 0))
    m.update(base_quality)
    if workload == "serve_mix":
        m.update(_serve_layer_metrics(base_round, traced))
    m["host.probe_ms"] = probe_ms
    m["trace.overhead_frac"] = traced_wall / statistics.median(base_walls) - 1
    m["trace.unattributed_frac"] = 1 - agg["covered_s"] / agg["window_s"]
    return m


def serve_client_summary(round_: Dict[str, Any]) -> Dict[str, float]:
    """Client-side latency percentiles and phase times of a serve round."""
    lat = client_latencies(round_)
    m: Dict[str, float] = {}
    for cls in ("miss", "hit", "evaluate"):
        m[f"serve.{cls}.samples"] = len(lat[cls])
        m[f"serve.{cls}.p50_ms"] = 1e3 * statistics.median(lat[cls]) if lat[cls] else 0.0
        if cls != "miss":
            m[f"serve.{cls}.p90_ms"] = 1e3 * percentile(lat[cls], 0.9)
    m["serve.write_phase_s"] = round_["write_s"]
    m["serve.read_phase_s"] = round_["read_s"]
    return m


def _serve_layer_metrics(base: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    m = serve_client_summary(base)
    counters = traced.get("counters") or {}
    for cls in ("hit", "miss", "warm", "coalesced"):
        m[f"serve.cache.{cls}"] = counters.get(f"serve.cache.{cls}", 0)
    m["serve.rejected"] = sum(v for k, v in counters.items() if k.startswith("serve.rejected."))
    # Time outside the server's handler: HTTP, sockets and the client.
    traced_hits = client_latencies(traced)["hit"]
    handled = traced["handle_durations"].get("hit", [])
    if traced_hits and handled:
        m["serve.hit.outside_handle_ms"] = 1e3 * (
            statistics.median(traced_hits) - statistics.median(handled))
    # Time an /evaluate spent in its handler outside the pricing call:
    # the batch window, the executor hop and result assembly.
    names = traced["trace"]["names"]
    evaluations = names.get("serve.server.handle.evaluate", {})
    if evaluations.get("calls"):
        m["serve.evaluate.wait_ms"] = 1e3 * (
            evaluations["busy_s"]
            - names.get("serve.batcher.price_batch", {}).get("busy_s", 0.0)
        ) / evaluations["calls"]
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def top_self(agg: Dict[str, Any], limit: int = 8) -> List[Tuple[str, float]]:
    """Span names by self time, largest first."""
    ranked = sorted(((name, e["self_s"]) for name, e in agg["names"].items()),
                    key=lambda item: -item[1])
    return ranked[:limit]


def format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return f"{value:g}"
