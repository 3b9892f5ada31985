"""CLI tests (python -m repro)."""

import os
import re

import pytest

from repro.cli import build_parser, main

SWEEP_GOLDEN = os.path.join(
    os.path.dirname(__file__), "sim", "simulate_sweep_golden.out"
)
GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")

#: Search commands whose output the pure-Python oracle tier printed,
#: with the wall-clock field stripped (``tests/goldens/``).
SEARCH_GOLDENS = {
    "optimize_n8_smoke_seed2019": [
        "optimize", "--n", "8", "--effort", "smoke", "--seed", "2019",
    ],
    "solve_n12_c2_exact": [
        "solve", "--n", "12", "--c", "2", "--method", "exact",
    ],
    # The one-layer enumeration at odd n (a self-mirrored middle bit)
    # and the multi-layer one.
    "solve_n13_c2_exact": [
        "solve", "--n", "13", "--c", "2", "--method", "exact",
    ],
    "solve_n9_c3_exact": [
        "solve", "--n", "9", "--c", "3", "--method", "exact",
    ],
    "solve_n8_c4_smoke_seed2019": [
        "solve", "--n", "8", "--c", "4", "--effort", "smoke", "--seed", "2019",
    ],
    # The mesh spaces: both sweeps, a random-start hetero chain and the
    # grid2d exhaustive search.
    "optimize_n6_smoke_seed2019_hetero": [
        "optimize", "--n", "6", "--effort", "smoke", "--seed", "2019",
        "--space", "hetero",
    ],
    "optimize_n6_smoke_seed2019_grid2d": [
        "optimize", "--n", "6", "--effort", "smoke", "--seed", "2019",
        "--space", "grid2d",
    ],
    "solve_n6_c3_only_sa_smoke_seed2019_hetero": [
        "solve", "--n", "6", "--c", "3", "--method", "only_sa",
        "--effort", "smoke", "--seed", "2019", "--space", "hetero",
    ],
    "solve_n6_c3_exact_grid2d": [
        "solve", "--n", "6", "--c", "3", "--method", "exact",
        "--space", "grid2d",
    ],
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("optimize", "solve", "simulate", "simulate-sweep", "inspect",
                    "experiments"):
            args = parser.parse_args(
                [cmd] if cmd == "experiments" else [cmd, "--seed", "1"]
            )
            assert args.command == cmd


class TestCommands:
    def test_experiments_lists_all(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "Table 2" in out

    def test_solve_exact_small(self, capsys):
        assert main(["solve", "--n", "4", "--c", "2", "--method", "exact"]) == 0
        out = capsys.readouterr().out
        assert "P~(4,2)" in out
        assert "express links" in out

    def test_optimize_smoke(self, capsys):
        assert main(["optimize", "--n", "4", "--effort", "smoke", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "design sweep" in out
        assert "best: C=" in out

    def test_inspect_smoke(self, capsys):
        assert main(["inspect", "--n", "6", "--c", "2", "--effort", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "connection matrix" in out
        assert "cross-section counts" in out

    def test_simulate_mesh(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--n", "4",
                    "--scheme", "mesh",
                    "--workload", "uniform_random",
                    "--rate", "0.03",
                    "--warmup", "100",
                    "--measure", "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "avg network latency" in out

    def test_analyze_mesh(self, capsys):
        assert main(["analyze", "--n", "4", "--scheme", "mesh"]) == 0
        out = capsys.readouterr().out
        assert "binding bound" in out

    def test_optimize_save(self, capsys, tmp_path):
        path = str(tmp_path / "sweep.json")
        assert (
            main(["optimize", "--n", "4", "--effort", "smoke", "--save", path]) == 0
        )
        from repro.io import load_sweep

        assert load_sweep(path).n == 4

    def test_simulate_sweep_jobs_invariance(self, capsys):
        argv = [
            "simulate-sweep",
            "--n", "4",
            "--schemes", "mesh",
            "--patterns", "uniform_random,transpose",
            "--rates", "1.0,2.0",
            "--warmup", "100",
            "--measure", "300",
        ]
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def table(text):
            return [ln for ln in text.splitlines() if "job(s)" not in ln]

        # The rendered table (everything but the jobs-count footer) is
        # byte-identical at every --jobs value.
        assert table(serial) == table(parallel)
        assert "Mesh" in serial and "transpose" in serial

    def test_simulate_sweep_matches_reference_golden(self, capsys):
        # The golden is this sweep's table as printed by the retired
        # poll-everything engine; the one step engine must match it.
        assert main([
            "simulate-sweep", "--n", "4", "--schemes", "mesh",
            "--patterns", "uniform_random,transpose", "--rates", "1.0,2.0",
            "--seed", "2019", "--warmup", "100", "--measure", "300",
        ]) == 0
        out = [ln for ln in capsys.readouterr().out.splitlines() if "job(s)" not in ln]
        with open(SWEEP_GOLDEN, encoding="utf-8") as fh:
            assert out == fh.read().splitlines()

    @pytest.mark.parametrize("tier", ["vectorized", "native"])
    @pytest.mark.parametrize("name", sorted(SEARCH_GOLDENS))
    def test_search_matches_oracle_golden(self, capsys, pin_tier, name, tier):
        # The goldens are these commands as printed on the oracle tier;
        # every fast tier must print the same lines but the wall time.
        pin_tier(tier)
        assert main(SEARCH_GOLDENS[name]) == 0
        out = [
            re.sub(r", wall time: [^ ]+$", "", ln)
            for ln in capsys.readouterr().out.splitlines()
        ]
        with open(os.path.join(GOLDENS, f"{name}.out"), encoding="utf-8") as fh:
            assert out == fh.read().splitlines()

    @pytest.mark.parametrize("schemes", ["bogus", "mesh,bogus"])
    def test_simulate_sweep_rejects_unknown_scheme(self, capsys, schemes):
        assert main([
            "simulate-sweep", "--n", "4", "--schemes", schemes,
            "--rates", "1.0", "--warmup", "10", "--measure", "30",
        ]) == 2
        captured = capsys.readouterr()
        assert "D&C_SA" not in captured.out
        assert captured.err == (
            "error: unknown scheme 'bogus'; expected one of mesh, hfb, dc_sa\n"
        )

    @pytest.mark.parametrize("argv", [
        ["optimize", "--n", "1", "--effort", "smoke"],
        ["solve", "--n", "1", "--c", "2", "--effort", "smoke"],
        ["simulate", "--n", "1", "--effort", "smoke"],
        ["simulate", "--n", "1", "--scheme", "mesh"],
        ["simulate-sweep", "--n", "1", "--schemes", "hfb"],
    ], ids=["optimize", "solve", "simulate", "simulate-mesh", "simulate-sweep"])
    def test_single_router_row_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: n must be >= 2, got 1\n"

    def test_simulate_parsec_workload(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--n", "4",
                    "--scheme", "hfb",
                    "--workload", "swaptions",
                    "--warmup", "100",
                    "--measure", "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "HFB" in out


class TestPareto:
    def test_pareto_smoke(self, capsys):
        assert main([
            "pareto", "--n", "6", "--c", "2", "--effort", "smoke",
            "--points", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "nondominated point(s)" in out
        assert "hypervolume" in out

    def test_pareto_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "fronts.json"
        assert main([
            "pareto", "--n", "6", "--c", "2,3", "--effort", "smoke",
            "--points", "1", "--out", str(out_file),
        ]) == 0
        import json as jsonlib

        payload = jsonlib.loads(out_file.read_text())
        assert payload["kind"] == "pareto_fronts"
        assert [s["c"] for s in payload["scenarios"]] == [2, 3]
        from repro.core.pareto import ParetoFront

        for scenario in payload["scenarios"]:
            front = ParetoFront.from_json(scenario["front"])
            assert front.points

    def test_pareto_rejects_unknown_traffic(self, capsys):
        assert main([
            "pareto", "--n", "6", "--traffic", "doom3", "--effort", "smoke",
        ]) == 2
        assert "unknown traffic" in capsys.readouterr().err

    def test_pareto_rejects_unknown_objective(self, capsys):
        assert main([
            "pareto", "--n", "6", "--objectives", "latency,speed",
            "--effort", "smoke",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_pareto_ledger_records_runs(self, tmp_path, capsys):
        assert main([
            "pareto", "--n", "6", "--c", "2", "--effort", "smoke",
            "--points", "1", "--ledger", str(tmp_path / "ledger"),
        ]) == 0
        assert "run recorded:" in capsys.readouterr().out


class TestDoctor:
    """``repro doctor``: one screen of environment + tier diagnostics."""

    def test_doctor_reports_versions_and_tiers(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "python" in out
        assert "numpy" in out
        assert "numba" not in out  # the numba backend is gone
        assert "cpus" in out
        for tier in ("vectorized", "reference", "native"):
            assert tier in out
        # The portable tiers are available everywhere; native reports
        # either its (one) backend or why it cannot load.
        assert out.count("available") >= 2
        assert ("backend: cext" in out) or ("unavailable" in out)

    def test_doctor_names_the_tier_and_reason(self, capsys):
        from repro.routing.impls import default_impl

        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_IMPL" not in out
        assert "cache " in out
        tier_line = [ln for ln in out.splitlines() if ln.startswith("tier ")]
        assert len(tier_line) == 1
        assert tier_line[0].split()[1] == default_impl()
        if default_impl() == "native":
            assert "compiled kernels loaded" in tier_line[0]
        else:
            assert "native unavailable" in tier_line[0]

    def test_doctor_reports_why_numpy_runs(self, capsys, monkeypatch):
        from repro.routing import impls, native

        monkeypatch.setattr(impls, "native_available", lambda: False)
        monkeypatch.setattr(native, "unavailable_reason",
                            lambda: "cext: no C compiler found (test)")
        monkeypatch.setitem(impls._tier, "name", None)
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert ("tier        vectorized  (native unavailable: cext: no C "
                "compiler found (test))") in out

    def test_doctor_registered_in_parser(self):
        args = build_parser().parse_args(["doctor"])
        assert args.command == "doctor"
