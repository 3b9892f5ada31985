"""Run ledger: a content-addressed manifest for every run.

Every ``optimize`` / ``solve`` / ``simulate`` / campaign invocation can
record what it ran and what came out as a small JSON manifest under
``.repro/runs/<run_id>/manifest.json``.  The manifest answers, months
later, "which exact configuration produced this design?" and feeds the
roadmap's placement-as-a-service design cache: the ``run_id`` doubles
as the cache key.

Identity vs. outcome
--------------------
The ``run_id`` is a digest of the run's *identity* -- kind, problem
parameters, the result-shaping execution knobs and the seed -- so it is
computable **before** the run (it stamps the trace context via
``obs.set_context(run_id=...)``) and identical runs overwrite the same
manifest (idempotent, cache-friendly).  The wall-clock knob ``jobs``
and the observability knobs (``trace_out``, ``profile``,
``metrics_every``, ``ledger``) are excluded from the identity because
the engines guarantee they cannot change results.  The kernel tier is
no knob at all: it is the machine's, recorded in the manifest's
``environment`` block as ``kernel_tier``.

The *outcome* is recorded separately: a ``result_digest`` over the
canonical result bytes (placement bytes + ``float.hex`` energies, or
the simulator summary fields), the human-readable results summary, the
deterministic metrics slice
(:meth:`~repro.obs.metrics.MetricsRegistry.deterministic_summary`) and
the full metrics snapshot.  Re-running an identity and getting a
different ``result_digest`` is a determinism bug by definition --
``repro runs diff`` makes that a one-command check.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from typing import Any, Dict, List, Optional

from repro.util.errors import ConfigurationError

#: Default ledger root, relative to the working directory.
LEDGER_ROOT = os.path.join(".repro", "runs")

#: SearchConfig/SimConfig fields excluded from the run identity: pure
#: wall-clock knobs (results are bit-identical for every value) and
#: observability settings (never touch any RNG stream).
NON_IDENTITY_FIELDS = frozenset({
    "jobs", "trace_out", "metrics_every", "profile", "ledger",
})


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, stable floats."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=str
    )


def config_identity(config: Any) -> Dict:
    """A config's result-shaping fields as a plain dict.

    Accepts a dataclass (``SearchConfig`` / ``SimConfig``), a dict, or
    ``None``; drops :data:`NON_IDENTITY_FIELDS` either way.
    """
    if config is None:
        return {}
    data = asdict(config) if is_dataclass(config) else dict(config)
    return {k: v for k, v in data.items() if k not in NON_IDENTITY_FIELDS}


def write_atomic(path: str, text: str) -> None:
    """Publish ``text`` at ``path`` so readers see the old or new file whole.

    Every writer gets its own temp file next to ``path`` (``mkstemp``),
    so concurrent writers of one key never share -- or move away --
    each other's temp file; the data is fsynced before ``os.replace``
    publishes it, so a crash never leaves an empty or torn entry.
    Shared by the run ledger and the design store.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def compute_run_id(
    kind: str, params: Dict, config: Any = None, seed: Optional[int] = None
) -> str:
    """The content-addressed identity digest -- computable pre-run."""
    identity = {
        "kind": kind,
        "params": params,
        "config": config_identity(config),
        "seed": seed,
    }
    digest = hashlib.sha256(canonical_json(identity).encode("utf-8"))
    return digest.hexdigest()[:16]


def digest_parts(*parts: Any) -> str:
    """A digest over heterogeneous result parts (bytes or stringable).

    Callers pass exact representations -- ``RowPlacement.canonical_bytes``
    for placements, ``float.hex()`` for energies -- so the digest is a
    bit-level fingerprint, not a rounded summary.
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def optimize_params(
    n: int, method: str, effort: str, space: str = "row"
) -> Dict:
    """The identity params of an ``optimize`` run.

    The single definition shared by the CLI's ``--ledger`` recording
    and the serving layer's design store, so a served ``/place``
    request and ``repro optimize`` compute the *same* ``run_id`` for
    the same work -- the property the cache-hit byte-identity check in
    CI rests on.  ``space`` is recorded only for the mesh spaces: row
    identities keep their pre-space digests.
    """
    params = {"n": n, "method": method, "effort": effort}
    if space != "row":
        params["space"] = space
    return params


def solve_params(
    n: int, c: int, method: str, effort: str, space: str = "row"
) -> Dict:
    """The identity params of a single-``C`` ``solve`` run."""
    params = {"n": n, "c": c, "method": method, "effort": effort}
    if space != "row":
        params["space"] = space
    return params


def pareto_params(
    n: int,
    c: int,
    method: str,
    effort: str,
    driver: str,
    objectives,
    traffic: str = "uniform",
) -> Dict:
    """The identity params of a ``pareto`` front search.

    ``objectives`` is the ordered axis tuple and ``traffic`` names the
    gamma source (``"uniform"`` or a PARSEC workload), both part of the
    identity: the same ``(n, C, seed)`` under different axes or traffic
    is different work.
    """
    return {
        "n": n,
        "c": c,
        "method": method,
        "effort": effort,
        "driver": driver,
        "objectives": ",".join(objectives),
        "traffic": traffic,
    }


def sweep_digest(sweep) -> str:
    """Bit-level fingerprint of a sweep's placements and energies."""
    parts = []
    for c in sorted(sweep.solutions):
        sol = sweep.solutions[c]
        parts.append(sol.placement.canonical_bytes())
        parts.append(float(sol.energy).hex())
    return digest_parts(*parts)


def solution_digest(sol) -> str:
    """Fingerprint of one solution (any object with placement + energy)."""
    return digest_parts(
        sol.placement.canonical_bytes(), float(sol.energy).hex()
    )


def git_sha() -> Optional[str]:
    """The current commit, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def environment_snapshot() -> Dict:
    """Interpreter + numpy versions, the kernel tier and the commit."""
    from repro.routing.impls import default_impl

    try:
        import numpy as np

        numpy_version: Optional[str] = np.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "kernel_tier": default_impl(),
        "git_sha": git_sha(),
    }


@dataclass(frozen=True)
class RunRecord:
    """One run's manifest: identity, environment, outcome."""

    run_id: str
    kind: str
    params: Dict
    config: Dict
    seed: Optional[int]
    created_at: str
    environment: Dict
    wall_time_s: float
    result_digest: str
    results: Dict
    metrics_summary: Dict = field(default_factory=dict)
    metrics: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return asdict(self)


class RunLedger:
    """Reads and writes run manifests under one root directory."""

    def __init__(self, root: str = LEDGER_ROOT) -> None:
        self.root = root

    # -- identity ------------------------------------------------------
    def run_id_for(
        self, kind: str, params: Dict, config: Any = None,
        seed: Optional[int] = None,
    ) -> str:
        return compute_run_id(kind, params, config, seed)

    def manifest_path(self, run_id: str) -> str:
        return os.path.join(self.root, run_id, "manifest.json")

    # -- write ---------------------------------------------------------
    def record(
        self,
        kind: str,
        params: Dict,
        config: Any = None,
        seed: Optional[int] = None,
        wall_time_s: float = 0.0,
        results: Optional[Dict] = None,
        result_digest: str = "",
        metrics_summary: Optional[Dict] = None,
        metrics: Optional[Dict] = None,
        run_id: Optional[str] = None,
    ) -> RunRecord:
        """Write (or idempotently overwrite) one run's manifest."""
        run_id = run_id or self.run_id_for(kind, params, config, seed)
        record = RunRecord(
            run_id=run_id,
            kind=kind,
            params=params,
            config=(
                asdict(config) if is_dataclass(config) else dict(config or {})
            ),
            seed=seed,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            environment=environment_snapshot(),
            wall_time_s=round(float(wall_time_s), 6),
            result_digest=result_digest,
            results=results or {},
            metrics_summary=metrics_summary or {},
            metrics=metrics or {},
        )
        write_atomic(
            self.manifest_path(run_id),
            json.dumps(record.to_dict(), indent=2, sort_keys=True,
                       default=str) + "\n",
        )
        return record

    # -- read ----------------------------------------------------------
    def list(self) -> List[Dict]:
        """Every manifest under the root, most recent first."""
        if not os.path.isdir(self.root):
            return []
        manifests = []
        for entry in sorted(os.listdir(self.root)):
            path = self.manifest_path(entry)
            if os.path.isfile(path):
                with open(path, "r", encoding="utf-8") as fh:
                    manifests.append(json.load(fh))
        manifests.sort(key=lambda m: m.get("created_at", ""), reverse=True)
        return manifests

    def load(self, run_id: str) -> Dict:
        """Load one manifest; unique prefixes resolve like git hashes."""
        path = self.manifest_path(run_id)
        if not os.path.isfile(path):
            matches = [
                entry for entry in (
                    os.listdir(self.root) if os.path.isdir(self.root) else []
                )
                if entry.startswith(run_id)
                and os.path.isfile(self.manifest_path(entry))
            ]
            if len(matches) == 1:
                path = self.manifest_path(matches[0])
            elif len(matches) > 1:
                raise ConfigurationError(
                    f"run id prefix {run_id!r} is ambiguous: "
                    f"{sorted(matches)}"
                )
            else:
                raise ConfigurationError(
                    f"no run {run_id!r} under {self.root}"
                )
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)


def diff_manifests(a: Dict, b: Dict) -> List[str]:
    """Human-readable field-level differences between two manifests.

    Nested dicts (params, config, results, the deterministic metrics
    summary) are compared key by key; environment and timing fields are
    reported informationally since they legitimately vary between
    machines and reruns.
    """
    lines: List[str] = []

    def compare(label: str, va: Any, vb: Any) -> None:
        if isinstance(va, dict) and isinstance(vb, dict):
            for key in sorted(set(va) | set(vb)):
                compare(f"{label}.{key}", va.get(key), vb.get(key))
        elif va != vb:
            lines.append(f"  {label}: {va!r} != {vb!r}")

    for key in ("kind", "seed", "params", "config", "result_digest",
                "results", "metrics_summary"):
        compare(key, a.get(key), b.get(key))
    return lines


def render_runs_table(manifests: List[Dict]) -> str:
    """The ``repro runs list`` table."""
    if not manifests:
        return "no runs recorded"
    lines = [
        f"{'run_id':<18} {'kind':<10} {'created':<25} {'wall s':>8}  "
        f"{'digest':<18} params",
    ]
    for m in manifests:
        params = canonical_json(m.get("params", {}))
        if len(params) > 40:
            params = params[:37] + "..."
        lines.append(
            f"{m.get('run_id', '?'):<18} {m.get('kind', '?'):<10} "
            f"{m.get('created_at', '?'):<25} "
            f"{m.get('wall_time_s', 0.0):>8.2f}  "
            f"{m.get('result_digest', '-'):<18} {params}"
        )
    return "\n".join(lines)
