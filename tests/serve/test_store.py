"""Content-addressed design store: identity, round-trip, concurrency."""

import json
import multiprocessing as mp
import os
import queue

import pytest

from repro.api import PlacementResult, SearchConfig
from repro.core.optimizer import optimize
from repro.harness.designs import EFFORTS
from repro.obs.ledger import (
    RunLedger,
    compute_run_id,
    optimize_params,
    sweep_digest,
)
from repro.serve.store import DesignStore
from repro.util.errors import ConfigurationError

SMOKE = EFFORTS["smoke"]


@pytest.fixture
def store(tmp_path):
    return DesignStore(str(tmp_path / "designs"))


def _solve(n=6, seed=2019):
    cfg = SearchConfig(seed=seed)
    params = optimize_params(n, "dc_sa", "smoke", cfg.space)
    result = optimize(n, params=SMOKE, config=cfg)
    return params, cfg, result


class TestIdentity:
    def test_key_is_the_ledger_run_id(self, store):
        params, cfg, _ = _solve()
        key = store.key_for("optimize", params, cfg, cfg.seed)
        assert key == compute_run_id("optimize", params, cfg, cfg.seed)
        assert len(key) == 16

    def test_key_ignores_observability_knobs(self, store):
        params, cfg, _ = _solve()
        noisy = cfg.with_updates(trace_out="t.jsonl", metrics_every=5,
                                 profile=True, ledger="runs")
        assert (store.key_for("optimize", params, cfg, cfg.seed)
                == store.key_for("optimize", params, noisy, noisy.seed))

    def test_key_changes_with_seed_and_params(self, store):
        params, cfg, _ = _solve()
        other_cfg = cfg.with_updates(seed=7)
        assert (store.key_for("optimize", params, cfg, cfg.seed)
                != store.key_for("optimize", params, other_cfg, 7))
        other_params = dict(params, effort="paper")
        assert (store.key_for("optimize", params, cfg, cfg.seed)
                != store.key_for("optimize", other_params, cfg, cfg.seed))


class TestRoundTrip:
    def test_put_get_bit_exact(self, store):
        params, cfg, result = _solve()
        digest = sweep_digest(result.sweep)
        entry = store.put("optimize", params, cfg, cfg.seed, result, digest)
        loaded = store.get(entry.key)
        assert loaded is not None
        assert loaded.result == result
        assert loaded.result.to_json() == result.to_json()
        assert loaded.result_digest == digest
        with open(store.entry_path(entry.key)) as fh:
            assert "warm_from" not in json.load(fh)

    @pytest.mark.parametrize("warm_from,readable", [
        (None, True), ("0123456789abcdef", False),
    ])
    def test_warm_from_field(self, store, warm_from, readable):
        """An entry whose search was seeded with another design (a
        non-null ``warm_from``) is not the cold result its key names,
        so it does not read; a null one reads as before."""
        params, cfg, result = _solve()
        entry = store.put("optimize", params, cfg, cfg.seed, result,
                          sweep_digest(result.sweep))
        path = store.entry_path(entry.key)
        with open(path) as fh:
            payload = json.load(fh)
        payload["warm_from"] = warm_from
        with open(path, "w") as fh:
            json.dump(payload, fh)
        if readable:
            assert store.get(entry.key).result == result
        else:
            with pytest.raises(ConfigurationError, match=entry.key):
                store.get(entry.key)

    def test_miss_returns_none(self, store):
        assert store.get("0" * 16) is None
        assert "0" * 16 not in store
        assert len(store) == 0

    def test_overwrite_idempotent(self, store):
        params, cfg, result = _solve()
        digest = sweep_digest(result.sweep)
        store.put("optimize", params, cfg, cfg.seed, result, digest)
        before = open(store.entry_path(
            store.key_for("optimize", params, cfg, cfg.seed))).read()
        store.put("optimize", params, cfg, cfg.seed, result, digest)
        after = open(store.entry_path(
            store.key_for("optimize", params, cfg, cfg.seed))).read()
        assert before == after
        assert len(store) == 1

    def test_no_tmp_files_left_behind(self, store):
        params, cfg, result = _solve()
        store.put("optimize", params, cfg, cfg.seed, result,
                  sweep_digest(result.sweep))
        for dirpath, _, names in os.walk(store.root):
            assert not [f for f in names if f.endswith(".tmp")], dirpath

    def test_entry_payload_is_canonical_json(self, store):
        params, cfg, result = _solve()
        entry = store.put("optimize", params, cfg, cfg.seed, result,
                          sweep_digest(result.sweep))
        raw = open(store.entry_path(entry.key)).read()
        from repro.obs.ledger import canonical_json

        assert raw == canonical_json(json.loads(raw)) + "\n"


class TestNearest:
    def test_nearest_same_n_row_space(self, store):
        params, cfg, result = _solve(n=6)
        store.put("optimize", params, cfg, cfg.seed, result,
                  sweep_digest(result.sweep))
        hit = store.nearest(6, "row")
        assert hit is not None
        assert hit.result.n == 6

    def test_nearest_filters_by_n(self, store):
        params, cfg, result = _solve(n=6)
        store.put("optimize", params, cfg, cfg.seed, result,
                  sweep_digest(result.sweep))
        assert store.nearest(8, "row") is None

    def test_nearest_excludes_requested_key(self, store):
        params, cfg, result = _solve(n=6)
        entry = store.put("optimize", params, cfg, cfg.seed, result,
                          sweep_digest(result.sweep))
        assert store.nearest(6, "row", exclude=entry.key) is None

    def test_nearest_mesh_space_disabled(self, store):
        params, cfg, result = _solve(n=6)
        store.put("optimize", params, cfg, cfg.seed, result,
                  sweep_digest(result.sweep))
        assert store.nearest(6, "hetero") is None

    def test_nearest_deterministic_scan_order(self, store):
        for seed in (1, 2, 3):
            params, cfg, result = _solve(n=6, seed=seed)
            store.put("optimize", params, cfg, cfg.seed, result,
                      sweep_digest(result.sweep))
        first = store.nearest(6, "row")
        assert first is not None
        assert first.key == store.keys()[0]
        assert store.nearest(6, "row").key == first.key

    def test_nearest_skips_corrupt_entries(self, store):
        params, cfg, result = _solve(n=6)
        entry = store.put("optimize", params, cfg, cfg.seed, result,
                          sweep_digest(result.sweep))
        bad = os.path.join(store.root, "00corrupt0000000")
        os.makedirs(bad)
        with open(os.path.join(bad, "result.json"), "w") as fh:
            fh.write('{"not": "a store entry"}')
        hit = store.nearest(6, "row")
        assert hit is not None and hit.key == entry.key


def _hammer_one_key(writer, root, entry, rounds, barrier, out):
    """Worker: publish one key ``rounds`` times, report every failure,
    then ``None``.

    Runs in a spawned process, so it takes only picklable values and
    rebuilds the result from its JSON form.
    """
    result = PlacementResult.from_json(entry["result"])
    args = (entry["kind"], entry["params"], entry["config"], entry["seed"])
    barrier.wait(timeout=60)
    for _ in range(rounds):
        try:
            if writer == "store":
                DesignStore(root).put(*args, result, entry["result_digest"])
            else:
                RunLedger(root).record(
                    *args, results=entry["result"],
                    result_digest=entry["result_digest"],
                )
        except Exception as exc:  # reported to the parent, not swallowed
            out.put(repr(exc))
    out.put(None)


def _read_one_key(writer, root, entry, barrier, stop, out):
    """Worker: read the key the ``writer`` kind publishes until ``stop``
    is set (at least once), report every read that is missing, raises
    or differs from what was written, then the number of reads."""
    expected = PlacementResult.from_json(entry["result"])
    barrier.wait(timeout=60)
    reads = 0
    while reads == 0 or not stop.is_set():
        reads += 1
        try:
            if writer == "store":
                loaded = DesignStore(root).get(entry["key"])
                if loaded is None:
                    out.put(f"read {reads} found no entry")
                elif (loaded.result != expected
                      or loaded.result_digest != entry["result_digest"]):
                    out.put(f"read {reads} returned another result")
            else:
                manifest = RunLedger(root).load(entry["key"])
                if (manifest["result_digest"] != entry["result_digest"]
                        or manifest["results"] != entry["result"]):
                    out.put(f"read {reads} returned another manifest")
        except Exception as exc:  # reported to the parent, not swallowed
            out.put(f"read {reads} raised {exc!r}")
    out.put(reads)


class TestConcurrentWriters:
    """Writers of one key in separate processes must never collide:
    each publishes through a private temp file, and readers running
    beside them always see a whole entry."""

    WORKERS = 4
    READERS = 2
    ROUNDS = 150

    @pytest.mark.parametrize("writer", ["store", "ledger"])
    def test_one_key_many_processes(self, tmp_path, writer):
        params, cfg, result = _solve()
        root = str(tmp_path / writer)
        entry = DesignStore(root).put(
            "optimize", params, cfg, cfg.seed, result,
            sweep_digest(result.sweep),
        ).to_dict()
        if writer == "ledger":  # readers find a manifest from the start
            RunLedger(root).record(
                entry["kind"], entry["params"], entry["config"],
                entry["seed"], results=entry["result"],
                result_digest=entry["result_digest"],
            )
        ctx = mp.get_context("spawn")
        barrier = ctx.Barrier(self.WORKERS + self.READERS)
        stop = ctx.Event()
        out = ctx.Queue()
        procs = [
            ctx.Process(target=_hammer_one_key,
                        args=(writer, root, entry, self.ROUNDS, barrier, out))
            for _ in range(self.WORKERS)
        ] + [
            ctx.Process(target=_read_one_key,
                        args=(writer, root, entry, barrier, stop, out))
            for _ in range(self.READERS)
        ]
        for proc in procs:
            proc.start()
        # Readers stop once every writer is done, so each "done" before
        # that is a writer's ``None`` and each read count a reader's.
        errors, done, reads = [], 0, []
        try:
            while done < self.WORKERS or len(reads) < self.READERS:
                item = out.get(timeout=120)
                if item is None:
                    done += 1
                    if done == self.WORKERS:
                        stop.set()
                elif isinstance(item, int):
                    reads.append(item)
                else:
                    errors.append(item)
        except queue.Empty:
            pass
        stop.set()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
        assert done == self.WORKERS, "a writer did not finish"
        assert len(reads) == self.READERS, "a reader did not finish"
        assert not errors, f"{len(errors)} failed operations, e.g. {errors[0]}"
        if writer == "store":
            loaded = DesignStore(root).get(entry["key"])
            assert loaded.result == result
        else:
            (run_id,) = os.listdir(root)
            manifest = RunLedger(root).load(run_id)
            assert manifest["result_digest"] == entry["result_digest"]
        for dirpath, _, names in os.walk(root):
            assert not [f for f in names if f.endswith(".tmp")], dirpath
