"""Content-addressed design store: the serving layer's persistent cache.

Every completed placement search is written to disk as one JSON entry
under ``<root>/<key>/result.json``, keyed by the same identity digest
the run ledger uses (:func:`repro.obs.ledger.compute_run_id` over
``(kind, params, config, seed)``).  The layout mirrors ``.repro/runs/``
on purpose: a store key *is* a ledger ``run_id``, so a served request
and a ``repro optimize --ledger`` invocation of the same work agree on
one name for it.

Exact hits (:meth:`DesignStore.get`) deserialize the stored
:class:`~repro.api.PlacementResult` bit-exactly (float-hex energies,
canonical placement bytes -- see :meth:`~repro.api.PlacementResult
.from_json`).  Every entry is what ``repro optimize`` computes for its
key: a store never feeds one design into the search of another, so the
key alone names the result.  An entry whose payload carries a non-null
``warm_from`` was written by an older server that seeded the search
with a neighbor design; :meth:`DesignStore.get` treats it as unreadable,
and the server recomputes it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.api import PlacementResult
from repro.obs.ledger import canonical_json, compute_run_id, write_atomic
from repro.util.errors import ConfigurationError

#: Default store root, a sibling of the run-ledger root.
STORE_ROOT = os.path.join(".repro", "designs")


@dataclass(frozen=True)
class StoreEntry:
    """One cached design: identity, provenance, and the result itself."""

    key: str
    kind: str
    params: Dict[str, Any]
    config: Dict[str, Any]
    seed: Optional[int]
    result_digest: str
    result: PlacementResult
    wall_time_s: float = 0.0
    payload: Dict[str, Any] = field(repr=False, compare=False,
                                    default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "kind": self.kind,
            "params": self.params,
            "config": self.config,
            "seed": self.seed,
            "result_digest": self.result_digest,
            "wall_time_s": round(float(self.wall_time_s), 6),
            "result": self.result.to_json(),
        }


class DesignStore:
    """Reads and writes cached :class:`~repro.api.PlacementResult` entries.

    Writes are atomic (:func:`~repro.obs.ledger.write_atomic`: a
    private fsynced temp file + ``os.replace``), so a concurrent reader
    never sees a torn entry and concurrent writers of one key never
    collide; identical keys overwrite
    idempotently, which is safe because the key already pins the full
    result-shaping identity.
    """

    def __init__(self, root: str = STORE_ROOT) -> None:
        self.root = root

    # -- identity ------------------------------------------------------
    def key_for(
        self, kind: str, params: Dict, config: Any = None,
        seed: Optional[int] = None,
    ) -> str:
        """The content-addressed key (== the ledger ``run_id``)."""
        return compute_run_id(kind, params, config, seed)

    def entry_path(self, key: str) -> str:
        return os.path.join(self.root, key, "result.json")

    # -- read ----------------------------------------------------------
    def get(self, key: str) -> Optional[StoreEntry]:
        """Load one entry, or ``None`` on a cache miss.

        An entry that exists but does not parse -- truncated, edited,
        written in a layout this version no longer reads, or seeded
        with a neighbor design (a non-null ``warm_from``) -- raises
        :class:`~repro.util.errors.ConfigurationError` naming the key.
        """
        path = self.entry_path(key)
        if not os.path.isfile(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return self._entry_from_payload(json.load(fh))
        except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"unreadable design-store entry {key}: {exc}"
            ) from None

    def _entry_from_payload(self, payload: Dict) -> StoreEntry:
        entry = StoreEntry(
            key=payload["key"],
            kind=payload["kind"],
            params=payload["params"],
            config=payload["config"],
            seed=payload["seed"],
            result_digest=payload["result_digest"],
            result=PlacementResult.from_json(payload["result"]),
            wall_time_s=payload.get("wall_time_s", 0.0),
            payload=payload,
        )
        if payload.get("warm_from") is not None:
            raise ConfigurationError(
                f"warm_from is {payload['warm_from']!r}: the entry was not "
                "computed cold"
            )
        return entry

    def keys(self) -> List[str]:
        """All stored keys, sorted (deterministic scan order)."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            entry for entry in os.listdir(self.root)
            if os.path.isfile(self.entry_path(entry))
        )

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return os.path.isfile(self.entry_path(key))

    # -- write ---------------------------------------------------------
    def put(
        self,
        kind: str,
        params: Dict,
        config: Any,
        seed: Optional[int],
        result: PlacementResult,
        result_digest: str,
        key: Optional[str] = None,
    ) -> StoreEntry:
        """Write one entry atomically and return it."""
        key = key or self.key_for(kind, params, config, seed)
        from dataclasses import asdict, is_dataclass

        entry = StoreEntry(
            key=key,
            kind=kind,
            params=dict(params),
            config=(
                asdict(config) if is_dataclass(config) else dict(config or {})
            ),
            seed=seed,
            result_digest=result_digest,
            result=result,
            wall_time_s=result.wall_time_s,
        )
        write_atomic(
            self.entry_path(key), canonical_json(entry.to_dict()) + "\n"
        )
        return entry

    # -- same-size lookup ----------------------------------------------
    def nearest(
        self,
        n: int,
        space: str = "row",
        exclude: Optional[str] = None,
    ) -> Optional[StoreEntry]:
        """A cached design for ``(n, space)``, or ``None``.

        Any row-space entry of the same size, regardless of budget,
        weights or config; entries are scanned in sorted-key order and
        the first match wins.  Nothing in the package calls this: the
        server no longer seeds a search with a stored design.  It stays
        only because the benchmark's traced run wraps
        ``DesignStore.nearest`` by name (``perfbench/tracing.py``), and
        goes once that target is dropped.
        """
        if space != "row":
            return None
        for key in self.keys():
            if key == exclude:
                continue
            try:
                entry = self.get(key)
            except (ConfigurationError, KeyError, ValueError):
                continue  # skip corrupt/foreign entries, never fail a solve
            if entry is None or entry.result.space != "row":
                continue
            if entry.result.n == n:
                return entry
        return None
