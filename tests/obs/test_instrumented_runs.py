"""End-to-end instrumentation: annealer, simulator, determinism, CLI.

The load-bearing guarantee is the last class: with no sink attached the
optimizer's RNG stream is untouched, so results are bit-identical to
the uninstrumented path for a fixed seed.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.annealing import AnnealingParams, MemoizedObjective, anneal
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.latency import RowObjective
from repro.core.optimizer import solve_row_problem
from repro.obs import Instrumentation, MemorySink, render_report
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.topology.mesh import MeshTopology
from repro.topology.row import RowPlacement
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.patterns import make_pattern

PARAMS = AnnealingParams(total_moves=300, moves_per_cooldown=100)


def run_sa(obs=None, seed=7):
    matrix = ConnectionMatrix.random(8, 3, np.random.default_rng(seed))
    return anneal(
        matrix,
        RowObjective(),
        params=PARAMS,
        rng=np.random.default_rng(seed + 1),
        obs=obs,
    )


def run_sim(obs=None, metrics_every=0, seed=3):
    cfg = SimConfig(
        flit_bits=128,
        warmup_cycles=100,
        measure_cycles=300,
        max_cycles=20_000,
        seed=seed,
    )
    traffic = SyntheticTraffic(make_pattern("uniform_random", 4), rate=0.02, rng=seed)
    sim = Simulator(
        MeshTopology.mesh(4), cfg, traffic, obs=obs, metrics_every=metrics_every
    )
    return sim.run()


class TestAnnealerEvents:
    def test_stage_transitions_captured_in_order(self):
        sink = MemorySink()
        obs = Instrumentation(sinks=[sink])
        run_sa(obs)
        stages = sink.of_kind("sa.stage")
        assert [e.payload["stage"] for e in stages] == [0, 1, 2]
        # Temperatures follow the Table 1 halving schedule.
        temps = [e.payload["temperature"] for e in stages]
        assert temps == pytest.approx([10.0, 5.0, 2.5])
        # Each stage accounts exactly its cooldown window.
        assert all(e.payload["moves"] == 100 for e in stages)
        assert all(0 <= e.payload["accepted"] <= 100 for e in stages)
        assert all(e.payload["uphill"] <= e.payload["accepted"] for e in stages)

    def test_event_stream_brackets_and_monotone_moves(self):
        sink = MemorySink()
        obs = Instrumentation(sinks=[sink])
        run_sa(obs)
        kinds = [e.kind for e in sink.events]
        assert kinds[0] == "sa.start"
        assert kinds[-1] == "sa.end"
        moves = [e.move for e in sink.events if e.move is not None]
        assert moves == sorted(moves)
        seqs = [e.seq for e in sink.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_best_energy_events_are_decreasing(self):
        sink = MemorySink()
        obs = Instrumentation(sinks=[sink])
        result = run_sa(obs)
        bests = [e.payload["energy"] for e in sink.of_kind("sa.best")]
        assert bests == sorted(bests, reverse=True)
        if bests:
            assert bests[-1] == pytest.approx(result.best_energy)

    def test_metrics_registry_totals_match_result(self):
        obs = Instrumentation(sinks=[MemorySink()])
        result = run_sa(obs)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["sa.moves"] == PARAMS.total_moves
        assert counters["sa.accepted"] == result.accepted_moves
        assert counters["sa.uphill"] == result.uphill_accepted
        assert counters["sa.evaluations"] == result.evaluations
        hits, misses = counters["sa.memo_hits"], counters["sa.memo_misses"]
        assert hits + misses == PARAMS.total_moves + 1  # + initial evaluation


class TestSimulatorEvents:
    def test_heartbeats_on_schedule_with_monotone_cycles(self):
        sink = MemorySink()
        obs = Instrumentation(sinks=[sink])
        result = run_sim(obs, metrics_every=50)
        beats = sink.of_kind("sim.heartbeat")
        assert beats, "expected periodic heartbeats"
        cycles = [e.cycle for e in beats]
        assert cycles == sorted(cycles)
        assert all(c % 50 == 0 for c in cycles)
        assert len(beats) == (result.cycles_run + 49) // 50
        for e in beats:
            assert e.payload["flits_in_flight"] >= 0
            assert e.payload["ni_backlog"] >= 0

    def test_link_utilization_and_end_event(self):
        sink = MemorySink()
        obs = Instrumentation(sinks=[sink])
        result = run_sim(obs, metrics_every=100)
        links = sink.of_kind("sim.link_util")
        assert links, "a loaded mesh must use some links"
        for e in links:
            p = e.payload
            assert p["flits"] >= 1
            assert p["utilization"] == pytest.approx(p["flits"] / result.cycles_run)
        end = sink.of_kind("sim.end")
        assert len(end) == 1
        assert end[0].payload["drained"] == result.drained

    def test_buffer_occupancy_histogram_populated(self):
        obs = Instrumentation(sinks=[MemorySink()])
        run_sim(obs, metrics_every=50)
        hist = obs.metrics.histograms["sim.buffer_occupancy"]
        assert hist.count > 0
        assert sum(hist.counts) == hist.count

    def test_no_heartbeats_without_sink(self):
        # metrics_every set but no sink: the guard keeps the loop clean.
        result = run_sim(obs=None, metrics_every=50)
        assert result.cycles_run > 0


class TestMemoCacheBound:
    def test_cache_clears_at_cap(self):
        calls = []

        def objective(p):
            calls.append(p)
            return float(len(p.express_links))

        memo = MemoizedObjective(objective, max_size=4)
        placements = [
            RowPlacement(8, frozenset({(0, i)})) for i in range(2, 8)
        ]
        for p in placements:
            memo(p)
        assert memo.overflows >= 1
        assert len(memo) <= 4
        assert memo.misses == len(placements)

    def test_hit_accounting(self):
        memo = MemoizedObjective(RowObjective())
        p = RowPlacement.mesh(6)
        memo(p)
        memo(p)
        memo(p)
        assert (memo.hits, memo.misses) == (2, 1)
        assert memo.hit_ratio == pytest.approx(2 / 3)

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            MemoizedObjective(RowObjective(), max_size=0)


class TestDeterminism:
    """Instrumentation must not perturb the RNG stream."""

    def test_sa_bit_identical_without_sink(self):
        baseline = run_sa(obs=None)
        observed = run_sa(obs=Instrumentation())  # no sink attached
        assert observed.best_energy == baseline.best_energy
        assert observed.best_placement == baseline.best_placement
        assert observed.trace == baseline.trace
        assert observed.accepted_moves == baseline.accepted_moves

    def test_sa_bit_identical_with_sink(self):
        baseline = run_sa(obs=None)
        observed = run_sa(obs=Instrumentation(sinks=[MemorySink()]))
        assert observed.best_energy == baseline.best_energy
        assert observed.best_placement == baseline.best_placement
        assert observed.trace == baseline.trace

    def test_solve_row_problem_bit_identical_with_profiling(self):
        from repro.api import SearchConfig

        a = solve_row_problem(8, 3, params=PARAMS, config=SearchConfig(seed=11))
        b = solve_row_problem(
            8, 3, params=PARAMS, config=SearchConfig(seed=11),
            obs=Instrumentation(sinks=[MemorySink()], profile=True),
        )
        assert a.energy == b.energy
        assert a.placement == b.placement
        assert a.evaluations == b.evaluations

    def test_simulator_bit_identical_with_sink(self):
        a = run_sim(obs=None)
        b = run_sim(
            obs=Instrumentation(sinks=[MemorySink()]), metrics_every=25
        )
        assert a.summary.avg_network_latency == b.summary.avg_network_latency
        assert a.cycles_run == b.cycles_run
        assert a.activity == b.activity


class TestParallelDeterminism:
    """The jobs knob must not leak into traces, metrics, or results.

    Same seed + same ``jobs`` => identical event sequence per worker
    and identical merged metrics totals; a different ``jobs`` value =>
    still the identical best solution and identical counter totals
    (the per-task work is the same set, merged in the same task order).
    """

    PARAMS = AnnealingParams(total_moves=200, moves_per_cooldown=100)

    def run_parallel(self, jobs, sink=None):
        from repro.api import SearchConfig
        from repro.core.optimizer import optimize

        obs = Instrumentation(sinks=[sink] if sink is not None else [])
        sweep = optimize(
            6, params=self.PARAMS, obs=obs,
            config=SearchConfig(seed=2019, restarts=2, jobs=jobs),
        ).sweep
        return sweep, obs

    @staticmethod
    def event_signature(events):
        """Events minus nondeterministic wall-clock fields."""
        out = []
        for e in events:
            payload = {k: v for k, v in e.payload.items()
                       if k not in ("wall_time_s", "elapsed_s")}
            out.append((e.kind, e.move, e.cycle, payload))
        return out

    def test_same_seed_same_jobs_identical_trace_per_worker(self):
        sink_a, sink_b = MemorySink(), MemorySink()
        self.run_parallel(2, sink_a)
        self.run_parallel(2, sink_b)
        sig_a = self.event_signature(sink_a.events)
        sig_b = self.event_signature(sink_b.events)
        assert sig_a == sig_b
        # Per-worker subsequences match too (worker tag is in payload).
        workers = {p.get("worker") for _, _, _, p in sig_a} - {None}
        assert workers, "replayed events must carry worker tags"
        for w in workers:
            a = [s for s in sig_a if s[3].get("worker") == w]
            b = [s for s in sig_b if s[3].get("worker") == w]
            assert a == b and a

    def test_same_seed_same_jobs_identical_merged_metrics(self):
        _, obs_a = self.run_parallel(2, MemorySink())
        _, obs_b = self.run_parallel(2, MemorySink())
        snap_a, snap_b = obs_a.metrics.snapshot(), obs_b.metrics.snapshot()
        # Rate meters are wall-derived and legitimately vary between
        # reruns; everything else must be bit-identical.
        snap_a.pop("meters", None)
        snap_b.pop("meters", None)
        assert snap_a == snap_b
        assert (obs_a.metrics.deterministic_summary()
                == obs_b.metrics.deterministic_summary())

    def test_different_jobs_identical_best_and_counter_totals(self):
        sweep_1, obs_1 = self.run_parallel(1, MemorySink())
        sweep_3, obs_3 = self.run_parallel(3, MemorySink())
        assert sweep_1.best == sweep_3.best
        assert sweep_1.restart_energies == sweep_3.restart_energies
        snap_1, snap_3 = obs_1.metrics.snapshot(), obs_3.metrics.snapshot()
        assert snap_1["counters"] == snap_3["counters"]
        assert snap_1["histograms"] == snap_3["histograms"]

    def test_merge_accumulates_counters_and_histograms(self):
        from repro.obs import MetricsRegistry

        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(2)
        b.counter("x").inc(3)
        a.histogram("h", (1.0, 2.0)).observe(0.5)
        b.histogram("h", (1.0, 2.0)).observe(5.0)
        a.merge(b.snapshot())
        assert a.counters["x"].value == 5
        assert a.histograms["h"].count == 2
        assert a.histograms["h"].counts == [1, 0, 1]
        bad = MetricsRegistry()
        bad.histogram("h", (9.0,)).observe(1.0)
        with pytest.raises(ValueError):
            a.merge(bad.snapshot())

    def test_cli_trace_round_trip_with_jobs(self, tmp_path, capsys):
        trace = str(tmp_path / "par.jsonl")
        assert main([
            "optimize", "--n", "6", "--effort", "smoke",
            "--restarts", "2", "--jobs", "2", "--trace-out", trace,
        ]) == 0
        capsys.readouterr()
        with open(trace) as fh:
            events = [json.loads(line) for line in fh]
        assert [e["seq"] for e in events] == list(range(len(events)))
        kinds = {e["kind"] for e in events}
        assert {"parallel.start", "parallel.end", "sa.start", "sa.end"} <= kinds
        workers = {e["payload"].get("worker") for e in events
                   if "worker" in e["payload"]}
        assert len(workers) >= 2
        assert main(["trace-report", trace]) == 0
        report = capsys.readouterr().out
        assert "SA stages:" in report


    def test_cli_profile_lists_same_spans_at_every_jobs(self, capsys):
        # Worker tasks ship their span aggregates home, so --profile
        # names the same spans with the same call counts at any --jobs.
        def profile(jobs):
            assert main([
                "optimize", "--n", "6", "--effort", "smoke",
                "--jobs", str(jobs), "--profile",
            ]) == 0
            out = capsys.readouterr().out
            table = out.split("profile (by cumulative time):")[1]
            rows = table.split("metrics:")[0].strip().splitlines()[1:]
            return sorted((row.split()[0], int(row.split()[1])) for row in rows)

        serial = profile(1)
        assert {"parallel.sweep", "solve.anneal"} <= {name for name, _ in serial}
        assert profile(2) == serial


class TestTraceReportCli:
    def test_round_trip_solve(self, tmp_path, capsys):
        trace = str(tmp_path / "run.jsonl")
        assert main([
            "solve", "--n", "6", "--c", "2", "--effort", "smoke",
            "--trace-out", trace, "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "profile (by cumulative time):" in out
        assert "metrics:" in out
        # Every line parses as one event object.
        with open(trace) as fh:
            events = [json.loads(line) for line in fh]
        assert all("kind" in e and "seq" in e for e in events)
        assert [e["seq"] for e in events] == list(range(len(events)))

        assert main(["trace-report", trace]) == 0
        report = capsys.readouterr().out
        assert "SA stages:" in report
        assert "spans by cumulative time" in report

    def test_round_trip_simulate(self, tmp_path, capsys):
        trace = str(tmp_path / "sim.jsonl")
        assert main([
            "simulate", "--n", "4", "--scheme", "mesh",
            "--warmup", "100", "--measure", "300",
            "--metrics-every", "100", "--trace-out", trace,
        ]) == 0
        capsys.readouterr()
        assert main(["trace-report", trace, "--top", "3"]) == 0
        report = capsys.readouterr().out
        assert "Simulator heartbeats:" in report
        assert "Link utilization" in report

    def test_render_report_handles_empty_trace(self):
        assert "0 events" in render_report([])

    def test_worker_views_on_empty_trace(self):
        assert "Per-worker" not in render_report(
            [], by_worker=True, by_task=True
        )

    def test_malformed_trace_rejected(self, tmp_path):
        from repro.obs import load_events
        from repro.util.errors import ConfigurationError

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "ok", "seq": 0}\nnot json\n')
        with pytest.raises(ConfigurationError):
            load_events(str(bad))


@pytest.fixture(scope="module")
def merged_trace(tmp_path_factory):
    """One ``--jobs 2`` optimizer trace shared by the view tests."""
    trace = str(tmp_path_factory.mktemp("trace") / "merged.jsonl")
    assert main([
        "optimize", "--n", "6", "--effort", "smoke",
        "--restarts", "2", "--jobs", "2", "--trace-out", trace,
    ]) == 0
    from repro.obs import load_events

    return trace, load_events(trace)


class TestTraceReportWorkerViews:
    """The correlation views on a merged multi-worker trace.

    The replay path re-stamps seq/wall_time on the parent bus, so the
    first corruption mode to guard against is interleaving: events from
    different workers mixed into one attribution, or counted twice.
    """

    def test_cli_renders_all_view_sections(self, merged_trace, capsys):
        trace, _ = merged_trace
        assert main([
            "trace-report", trace, "--by-worker", "--by-task",
        ]) == 0
        report = capsys.readouterr().out
        assert "Per-worker timeline:" in report
        assert "Critical path (worker " in report
        assert "Per-task breakdown:" in report
        assert "best_energy=" in report

    def test_by_worker_partitions_events_exactly(self, merged_trace):
        from collections import Counter

        from repro.obs.trace_report import summarize_by_worker

        _, events = merged_trace
        expected = Counter(
            e["payload"].get("worker", "main") for e in events
        )
        assert len(expected) >= 3  # >= 2 workers plus the parent
        lines = summarize_by_worker(events)
        table = {}
        for line in lines[2:]:
            worker, n_events = line.split()[:2]
            table[worker] = int(n_events)
        assert table == {str(w): n for w, n in expected.items()}
        # A partition: per-worker counts sum back to the whole trace.
        assert sum(table.values()) == len(events)

    def test_worker_rows_sorted_numeric_first(self, merged_trace):
        from repro.obs.trace_report import summarize_by_worker

        _, events = merged_trace
        workers = [line.split()[0] for line in
                   summarize_by_worker(events)[2:]]
        indices = [w for w in workers if w != "main"]
        assert indices == sorted(indices, key=int)
        assert workers[-1] == "main"

    def test_by_task_covers_every_stamped_task(self, merged_trace):
        from repro.obs.trace_report import _task_of, summarize_by_task

        _, events = merged_trace
        expected = {
            t for t in (_task_of(e) for e in events) if t is not None
        }
        assert expected, "worker events must carry task stamps"
        lines = summarize_by_task(events)
        rendered = {line.strip().split(")")[0] + ")"
                    for line in lines[2:]}
        assert rendered == {
            "(" + ", ".join(map(str, t)) + ")" for t in expected
        }

    def test_critical_path_elapsed_never_increases(self, merged_trace):
        from repro.obs.trace_report import summarize_critical_path

        _, events = merged_trace
        lines = summarize_critical_path(events)
        assert lines and lines[0].startswith("Critical path")
        elapsed = [float(line.split()[-3].rstrip("s"))
                   for line in lines[1:]]
        assert elapsed == sorted(elapsed, reverse=True)

    def test_serial_trace_span_ids_stay_unique(self, tmp_path, capsys):
        # Inline tasks record into private recorders and replay
        # unstamped; their span ids move into ranges reserved from the
        # parent recorder, so one "main" span tree stays unambiguous.
        trace = str(tmp_path / "serial.jsonl")
        assert main([
            "optimize", "--n", "6", "--effort", "smoke", "--restarts", "2",
            "--trace-out", trace,
        ]) == 0
        capsys.readouterr()
        from repro.obs import load_events

        spans = [e["payload"] for e in load_events(trace) if e["kind"] == "span"]
        assert all("worker" not in s for s in spans)
        ids = [s["span_id"] for s in spans]
        assert len(ids) == len(set(ids)) > 1
        assert {s["parent_span_id"] for s in spans if "parent_span_id" in s} <= set(ids)

    def test_single_worker_trace_degrades_to_one_row(self, tmp_path, capsys):
        trace = str(tmp_path / "solo.jsonl")
        assert main([
            "solve", "--n", "6", "--c", "2", "--effort", "smoke",
            "--trace-out", trace,
        ]) == 0
        capsys.readouterr()
        assert main(["trace-report", trace, "--by-worker"]) == 0
        report = capsys.readouterr().out
        section = report.split("Per-worker timeline:")[1].split("\n\n")[0]
        rows = [line for line in section.splitlines()[2:] if line.strip()]
        assert len(rows) == 1 and rows[0].split()[0] == "main"
