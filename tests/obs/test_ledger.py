"""Run ledger: content-addressed manifests and the ``repro runs`` CLI."""

import json
import os

import pytest

from repro.api import SearchConfig
from repro.cli import main
from repro.obs.ledger import (
    RunLedger,
    compute_run_id,
    config_identity,
    diff_manifests,
    digest_parts,
    environment_snapshot,
    optimize_params,
    solve_params,
)
from repro.util.errors import ConfigurationError


class TestRunId:
    def test_computable_pre_run_and_stable(self):
        a = compute_run_id("solve", {"n": 6, "c": 3}, SearchConfig(seed=1), 1)
        b = compute_run_id("solve", {"n": 6, "c": 3}, SearchConfig(seed=1), 1)
        assert a == b
        assert len(a) == 16

    def test_sensitive_to_identity_fields(self):
        base = compute_run_id("solve", {"n": 6}, SearchConfig(seed=1), 1)
        assert compute_run_id("solve", {"n": 8}, SearchConfig(seed=1), 1) != base
        assert compute_run_id("solve", {"n": 6}, SearchConfig(seed=2), 2) != base
        assert compute_run_id("optimize", {"n": 6}, SearchConfig(seed=1), 1) != base

    def test_wall_clock_and_obs_knobs_excluded(self):
        # jobs and observability settings cannot change results, so
        # they must not change the identity either.
        base = SearchConfig(seed=1)
        for variant in (
            SearchConfig(seed=1, jobs=8),
            SearchConfig(seed=1, metrics_every=10),
            SearchConfig(seed=1, trace_out="t.jsonl", profile=True),
            SearchConfig(seed=1, ledger=".repro/runs"),
        ):
            assert (
                compute_run_id("solve", {"n": 6}, variant, 1)
                == compute_run_id("solve", {"n": 6}, base, 1)
            )
        assert "jobs" not in config_identity(base)
        assert "restarts" in config_identity(base)

    @pytest.mark.parametrize("kind,params,config,run_id", [
        ("optimize", optimize_params(6, "dc_sa", "smoke"),
         SearchConfig(seed=2019), "3ac2202c44bda8a0"),
        ("solve", solve_params(6, 3, "dc_sa", "smoke"),
         SearchConfig(seed=2019, restarts=2), "2fb8acffca4a8e9f"),
        ("optimize", optimize_params(6, "dc_sa", "smoke", "grid2d"),
         SearchConfig(seed=2019, space="grid2d"), "bab5e1cda5bcd5b9"),
    ], ids=["optimize", "solve-restarts", "optimize-grid2d"])
    def test_pinned_run_ids(self, kind, params, config, run_id):
        # Ledger entries and design-store keys written by earlier
        # versions stay addressable: retiring an execution knob must
        # not move an identity.
        assert compute_run_id(kind, params, config, config.seed) == run_id

    def test_impl_excluded_from_identity(self, pin_tier):
        # The kernel tier is the machine's, not a config field: the
        # same search owns the same run_id on every tier, and the
        # manifest's environment block records the tier that ran.
        assert "impl" not in config_identity(SearchConfig(seed=3))
        base = compute_run_id("optimize", {"n": 8}, SearchConfig(seed=3), 3)
        for tier in ("vectorized", "reference"):
            pin_tier(tier)
            assert compute_run_id(
                "optimize", {"n": 8}, SearchConfig(seed=3), 3
            ) == base
            assert environment_snapshot()["kernel_tier"] == tier

    def test_digest_parts_distinguishes_bytes(self):
        assert digest_parts(b"ab", b"c") != digest_parts(b"a", b"bc")


class TestRunLedger:
    def record_one(self, root, seed=1, digest="d1"):
        ledger = RunLedger(str(root))
        return ledger, ledger.record(
            kind="solve", params={"n": 6, "c": 3},
            config=SearchConfig(seed=seed), seed=seed,
            wall_time_s=0.5, results={"energy": 5.5},
            result_digest=digest,
            metrics_summary={"counters": {"sa.moves": 10}},
        )

    def test_record_and_load(self, tmp_path):
        ledger, record = self.record_one(tmp_path / "runs")
        loaded = ledger.load(record.run_id)
        assert loaded["run_id"] == record.run_id
        assert loaded["results"] == {"energy": 5.5}
        assert loaded["result_digest"] == "d1"
        assert loaded["environment"]["python"]
        assert loaded["config"]["seed"] == 1

    def test_idempotent_overwrite(self, tmp_path):
        ledger, first = self.record_one(tmp_path / "runs")
        _, second = self.record_one(tmp_path / "runs")
        assert first.run_id == second.run_id
        assert len(ledger.list()) == 1

    def test_prefix_resolution(self, tmp_path):
        ledger, record = self.record_one(tmp_path / "runs")
        assert ledger.load(record.run_id[:6])["run_id"] == record.run_id
        with pytest.raises(ConfigurationError):
            ledger.load("nope")

    def test_ambiguous_prefix_rejected(self, tmp_path):
        ledger, a = self.record_one(tmp_path / "runs", seed=1)
        _, b = self.record_one(tmp_path / "runs", seed=2)
        common = os.path.commonprefix([a.run_id, b.run_id])
        if common:  # digests share at least one leading char sometimes
            with pytest.raises(ConfigurationError):
                ledger.load(common)

    def test_list_empty_root(self, tmp_path):
        assert RunLedger(str(tmp_path / "missing")).list() == []

    def test_diff_manifests(self, tmp_path):
        _, a = self.record_one(tmp_path / "a", seed=1, digest="d1")
        _, b = self.record_one(tmp_path / "b", seed=2, digest="d2")
        lines = diff_manifests(a.to_dict(), b.to_dict())
        assert any("seed: 1 != 2" in line for line in lines)
        assert any("result_digest" in line for line in lines)
        assert diff_manifests(a.to_dict(), a.to_dict()) == []


class TestLedgerCli:
    """End-to-end: --ledger on a real run, then runs list/show/diff."""

    def run_solve(self, tmp_path, seed, extra=()):
        ledger_dir = str(tmp_path / "runs")
        assert main([
            "solve", "--n", "6", "--c", "3", "--effort", "smoke",
            "--seed", str(seed), "--ledger", ledger_dir, *extra,
        ]) == 0
        return ledger_dir

    def test_round_trip(self, tmp_path, capsys):
        ledger_dir = self.run_solve(tmp_path, 2019)
        out = capsys.readouterr().out
        assert "run recorded:" in out
        run_id = out.split("run recorded: ")[1].split()[0]

        assert main(["runs", "--ledger", ledger_dir, "list"]) == 0
        assert run_id in capsys.readouterr().out

        assert main(["runs", "--ledger", ledger_dir, "show", run_id]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["kind"] == "solve"
        assert manifest["result_digest"]
        assert manifest["metrics_summary"]["counters"]

    def test_diff_two_seeds(self, tmp_path, capsys):
        ledger_dir = self.run_solve(tmp_path, 1)
        self.run_solve(tmp_path, 2)
        capsys.readouterr()
        ids = sorted(os.listdir(os.path.join(ledger_dir)))
        assert len(ids) == 2
        assert main(["runs", "--ledger", ledger_dir, "diff", *ids]) == 0
        out = capsys.readouterr().out
        assert "seed" in out

    def test_jobs_do_not_change_run_id_or_digest(self, tmp_path, capsys):
        dir_1 = str(tmp_path / "j1")
        dir_4 = str(tmp_path / "j4")
        for d, jobs in ((dir_1, "1"), (dir_4, "4")):
            assert main([
                "solve", "--n", "6", "--c", "3", "--effort", "smoke",
                "--restarts", "2", "--jobs", jobs, "--ledger", d,
            ]) == 0
        capsys.readouterr()
        (id_1,) = os.listdir(dir_1)
        (id_4,) = os.listdir(dir_4)
        assert id_1 == id_4
        m1 = json.load(open(os.path.join(dir_1, id_1, "manifest.json")))
        m4 = json.load(open(os.path.join(dir_4, id_4, "manifest.json")))
        assert m1["result_digest"] == m4["result_digest"]
        assert m1["metrics_summary"] == m4["metrics_summary"]

    def test_run_id_stamped_on_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        self.run_solve(tmp_path, 2019, extra=["--trace-out", trace])
        out = capsys.readouterr().out
        run_id = out.split("run recorded: ")[1].split()[0]
        with open(trace) as fh:
            events = [json.loads(line) for line in fh]
        assert events
        assert all(e["payload"].get("run_id") == run_id for e in events)

    @pytest.mark.parametrize("argv,run_id,digest", [
        (["simulate", "--n", "4", "--scheme", "mesh"],
         "fddeab6e4a3e8a1b", "5590f24516ce549a"),
        (["simulate-sweep", "--n", "4", "--schemes", "mesh",
          "--patterns", "uniform_random", "--rates", "1.0"],
         "c92530c7d249216c", "3804cba5e8629b22"),
    ], ids=["simulate", "campaign"])
    def test_pinned_simulation_run_ids(self, tmp_path, capsys, argv, run_id, digest):
        # A simulation's identity is its workload, window and seed; the
        # simulator has one step engine, so no engine name enters it.
        # The digest pins the simulated results themselves.
        ledger_dir = str(tmp_path / "runs")
        assert main([
            *argv, "--warmup", "100", "--measure", "300", "--seed", "2019",
            "--ledger", ledger_dir,
        ]) == 0
        capsys.readouterr()
        assert os.listdir(ledger_dir) == [run_id]
        manifest = json.load(open(os.path.join(ledger_dir, run_id, "manifest.json")))
        assert "engine" not in manifest["params"]
        assert manifest["result_digest"] == digest

    def test_metrics_export_formats(self, tmp_path, capsys):
        ledger_dir = self.run_solve(tmp_path, 2019)
        capsys.readouterr()
        (run_id,) = os.listdir(ledger_dir)
        assert main([
            "metrics-export", run_id, "--ledger", ledger_dir,
        ]) == 0
        prom = capsys.readouterr().out
        assert "# TYPE repro_sa_moves counter" in prom
        assert f'run_id="{run_id}"' in prom
        out_path = str(tmp_path / "m.json")
        assert main([
            "metrics-export", run_id, "--ledger", ledger_dir,
            "--format", "json", "--out", out_path,
        ]) == 0
        data = json.load(open(out_path))
        assert data["counters"]["sa.moves"] > 0
