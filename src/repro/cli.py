"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's flow without writing Python:

* ``optimize`` -- sweep C and print the design table for one mesh size,
* ``solve``    -- solve a single ``P~(n, C)`` instance,
* ``pareto``   -- search the multi-objective Pareto front
  (latency / power / area / channel load) per traffic scenario and C,
  via an epsilon-constraint sweep or an NSGA-II population loop,
* ``simulate`` -- run the cycle-accurate simulator on a chosen scheme,
* ``simulate-sweep`` -- run a scheme x pattern x rate campaign grid,
  fanned over ``--jobs`` worker processes (identical tables for every
  jobs value at a fixed seed),
* ``inspect``  -- show a placement's structure, matrix and audits,
* ``serve``    -- run the placement service: an HTTP/JSON server with a
  content-addressed design cache (every entry is what ``optimize``
  prints for its key), request batching and an idle-time cache sweeper,
* ``experiments`` -- list the paper-figure regenerators,
* ``trace-report`` -- summarize a JSONL trace written by ``--trace-out``
  (``--by-worker`` / ``--by-task`` add the correlation views),
* ``runs`` -- list / show / diff the run-ledger manifests written by
  ``--ledger``,
* ``metrics-export`` -- render a recorded run's metrics as Prometheus
  text or JSON,
* ``bench-report`` -- compare two ``benchmarks/results`` directories
  and fail on perf regressions.

Search flags (``optimize`` / ``solve``): ``--restarts N`` runs ``N``
independent SA chains per ``C`` from derived seeds and keeps the best;
``--jobs K`` fans the chains out over ``K`` worker processes.  Output
is byte-identical for every ``--jobs`` value at a fixed seed.
``--space hetero|grid2d`` searches the mesh-level spaces (per-row
placements / pooled-budget 2D chords) instead of the paper's
replicated row, with the same ``--restarts`` / ``--jobs`` knobs.

Observability flags (``optimize`` / ``solve`` / ``simulate``):
``--trace-out PATH`` streams structured events as JSON Lines,
``--metrics-every N`` sets the periodic sample interval (simulator
heartbeats, SA progress events), ``--profile`` prints the span profile
and metrics summary after the run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import List, Optional

from repro.api import SEARCH_SPACES, SearchConfig
from repro.core.connection_matrix import ConnectionMatrix
from repro.core.optimizer import optimize, solve_row_problem
from repro.harness.designs import EFFORTS, hfb_design, mesh_design
from repro.harness.tables import pct_change, render_table
from repro.obs import Instrumentation, JsonlSink, report_file
from repro.obs.ledger import (
    LEDGER_ROOT,
    RunLedger,
    diff_manifests,
    optimize_params,
    render_runs_table,
    solution_digest,
    solve_params,
    sweep_digest,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Simulator
from repro.topology.validate import audit_row
from repro.util.errors import ConfigurationError
from repro.traffic.injection import SyntheticTraffic
from repro.traffic.parsec import PARSEC_NAMES, parsec_traffic
from repro.traffic.patterns import PATTERNS, make_pattern


def _add_run_flags(
    p: argparse.ArgumentParser, *, obs: bool = True, search: bool = False,
) -> None:
    """The one shared option group for run/search/observability flags.

    Every subcommand builds its common surface here -- ``optimize`` /
    ``solve`` / ``simulate`` cannot drift apart in flag names, defaults
    or help text.  ``search=True`` adds the flags that feed
    :meth:`repro.api.SearchConfig.from_cli`; ``obs=False`` trims the
    group to seed + effort for commands that never trace.
    """
    g = p.add_argument_group("run options")
    g.add_argument("--seed", type=int, default=2019)
    g.add_argument(
        "--effort", choices=sorted(EFFORTS), default="paper", help="annealing budget"
    )
    if search:
        g.add_argument(
            "--jobs", type=int, default=1, metavar="K",
            help="worker processes for the search (results are identical "
            "for every value; default 1 = in-process)",
        )
        g.add_argument(
            "--restarts", type=int, default=1, metavar="N",
            help="independent SA chains per C (derived seeds; best chain wins)",
        )
        g.add_argument(
            "--space", choices=SEARCH_SPACES, default="row",
            help="placement search space: the paper's replicated row, "
            "heterogeneous per-row placements, or pooled-budget 2D chords",
        )
    if obs:
        g.add_argument(
            "--trace-out", metavar="PATH", default=None,
            help="write structured events to PATH as JSON Lines",
        )
        g.add_argument(
            "--metrics-every", type=int, default=500, metavar="N",
            help="periodic sample interval (simulator cycles / SA moves)",
        )
        g.add_argument(
            "--profile", action="store_true",
            help="time spans and print the profile + metrics summary",
        )
        g.add_argument(
            "--ledger", metavar="DIR", nargs="?", const=LEDGER_ROOT,
            default=None,
            help="record the run as a content-addressed manifest under DIR "
            f"(default {LEDGER_ROOT}; query with 'repro runs')",
        )


def _make_obs(args: argparse.Namespace) -> Optional[Instrumentation]:
    """Build the run's instrumentation from CLI flags (None if unused).

    ``--ledger`` alone creates a sink-less bundle: no events are built
    (``enabled`` stays False, results stay bit-identical) but the
    metrics registry fills so the manifest can record the run summary.
    """
    ledger = getattr(args, "ledger", None)
    if not (args.trace_out or args.profile or ledger):
        return None
    sinks = []
    if args.trace_out:
        try:  # fail fast, before the run, if the path is unwritable
            open(args.trace_out, "w", encoding="utf-8").close()
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace_out}: {exc}",
                  file=sys.stderr)
            raise SystemExit(2) from exc
        sinks.append(JsonlSink(args.trace_out))
    return Instrumentation(sinks=sinks, profile=args.profile)


@contextmanager
def _obs_session(args: argparse.Namespace):
    """The run's instrumentation with guaranteed sink teardown.

    Sinks flush and close even when the command raises, so a JSONL
    trace written up to a crash stays readable by ``repro
    trace-report``; the exception still propagates.
    """
    obs = _make_obs(args)
    try:
        yield obs
    finally:
        if obs is not None:
            obs.close()


def _finish_obs(obs: Optional[Instrumentation], args: argparse.Namespace) -> None:
    """Print requested end-of-run summaries (teardown is _obs_session's)."""
    if obs is None:
        return
    obs.close()
    if args.profile:
        print()
        print(obs.profile_table())
        print(obs.metrics_summary())
    if args.trace_out:
        print(f"\ntrace written to {args.trace_out} "
              f"(summarize with: repro trace-report {args.trace_out})")


def _ledger_for(args: argparse.Namespace) -> Optional[RunLedger]:
    path = getattr(args, "ledger", None)
    return RunLedger(path) if path else None


def _record_run(
    ledger: Optional[RunLedger],
    obs: Optional[Instrumentation],
    run_id: Optional[str],
    kind: str,
    params: dict,
    config,
    seed,
    wall_time_s: float,
    results: dict,
    result_digest: str,
) -> None:
    """Write the manifest and tell the user where it went."""
    if ledger is None:
        return
    metrics_summary: dict = {}
    metrics: dict = {}
    if obs is not None:
        metrics_summary = obs.metrics.deterministic_summary()
        metrics = obs.metrics.snapshot()
    record = ledger.record(
        kind=kind, params=params, config=config, seed=seed,
        wall_time_s=wall_time_s, results=results,
        result_digest=result_digest, metrics_summary=metrics_summary,
        metrics=metrics, run_id=run_id,
    )
    print(f"\nrun recorded: {record.run_id} "
          f"({ledger.manifest_path(record.run_id)})")


def _run_result_digest(*runs) -> str:
    """Fingerprint of simulator run results (exact float hex)."""
    from repro.obs.ledger import digest_parts

    parts = []
    for run in runs:
        s = run.summary
        parts.extend([
            run.cycles_run, s.packets,
            float(s.avg_network_latency).hex(),
            float(s.avg_head_latency).hex(),
            float(s.avg_serialization_latency).hex(),
        ])
    return digest_parts(*parts)


def _cmd_optimize(args: argparse.Namespace) -> int:
    with _obs_session(args) as obs:
        cfg = SearchConfig.from_cli(args)
        mesh_space = cfg.space != "row"
        ledger = _ledger_for(args)
        ledger_params = optimize_params(
            args.n, args.method, args.effort, cfg.space
        )
        run_id = None
        if ledger is not None:
            run_id = ledger.run_id_for(
                "optimize", ledger_params, cfg, cfg.seed
            )
            if obs is not None:
                obs.set_context(run_id=run_id)
        start = time.perf_counter()
        res = optimize(
            args.n, method=args.method, params=EFFORTS[args.effort],
            obs=obs, config=cfg,
        )
        sweep = res.sweep
        wall = time.perf_counter() - start
        if args.save:
            with open(args.save, "w", encoding="utf-8") as fh:
                json.dump(res.to_json(), fh, indent=2)
            print(f"result saved to {args.save}")
        rows = [
            [c, point.flit_bits, point.latency.head, point.latency.serialization,
             point.total_latency, len(point.placement.express_links)]
            for c, point in sorted(sweep.points.items())
        ]
        label = f"{args.method}, space={cfg.space}" if mesh_space else args.method
        print(
            render_table(
                f"{args.n}x{args.n} design sweep ({label})",
                ["C", "flit bits", "L_D", "L_S", "total", "express links"],
                rows,
            )
        )
        best = sweep.best
        mesh = mesh_design(args.n)
        print(f"\nbest: C={best.link_limit}, flit={best.flit_bits}b, "
              f"total={best.total_latency:.2f} cycles "
              f"(-{pct_change(best.total_latency, mesh.point.total_latency):.1f}% vs mesh)")
        print(f"{'chords' if mesh_space else 'row placement'}: "
              f"{list(res.express_links)}")
        if cfg.restarts > 1:
            spread = sweep.restart_energies[best.link_limit]
            print(f"search: {cfg.restarts} restart(s) x {len(sweep.points)} "
                  f"limits; best-C restart energies: "
                  f"{[round(e, 4) for e in spread]}")
        _record_run(
            ledger, obs, run_id, "optimize", ledger_params, cfg, cfg.seed,
            wall,
            results={
                "best_link_limit": best.link_limit,
                "best_flit_bits": best.flit_bits,
                "best_total_latency": best.total_latency,
                "express_links": len(best.placement.express_links),
            },
            result_digest=sweep_digest(sweep),
        )
        _finish_obs(obs, args)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    with _obs_session(args) as obs:
        cfg = SearchConfig.from_cli(args)
        mesh_space = cfg.space != "row"
        ledger = _ledger_for(args)
        ledger_params = solve_params(
            args.n, args.c, args.method, args.effort, cfg.space
        )
        run_id = None
        if ledger is not None:
            run_id = ledger.run_id_for("solve", ledger_params, cfg, cfg.seed)
            if obs is not None:
                obs.set_context(run_id=run_id)
        start = time.perf_counter()
        sol = solve_row_problem(
            args.n,
            args.c,
            method=args.method,
            params=EFFORTS[args.effort],
            obs=obs,
            config=cfg,
        )
        wall = time.perf_counter() - start
        tag = f"{args.method}, space={cfg.space}" if mesh_space else args.method
        print(f"P~({args.n},{args.c}) [{tag}]")
        # The energy line is format-identical across spaces on purpose:
        # CI diffs it between `--space row` and `--space hetero` exact
        # solves as an end-to-end reduction-parity check.
        print(f"  mean row head latency: {sol.energy:.4f} cycles (2D: {2 * sol.energy:.4f})")
        print(f"  express {'chords' if mesh_space else 'links'}: "
              f"{list(sol.express_links)}")
        print(f"  evaluations: {sol.evaluations}, wall time: {sol.wall_time_s:.2f}s")
        if cfg.restarts > 1:
            energies = sol.restart_energies[0][1]
            print(f"  restarts: {[round(e, 4) for e in energies]}")
        _record_run(
            ledger, obs, run_id, "solve", ledger_params, cfg, cfg.seed, wall,
            results={
                "energy": sol.energy,
                "express_links": len(sol.express_links),
                "evaluations": sol.evaluations,
            },
            result_digest=solution_digest(sol),
        )
        _finish_obs(obs, args)
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from repro.core.pareto import pareto_front
    from repro.obs.ledger import digest_parts, pareto_params
    from repro.traffic.parsec import PARSEC_WORKLOADS, workload_gamma

    # SearchConfig.from_cli reads args.objectives / args.pareto
    # verbatim: turn the CSV flag into the axis tuple and alias the
    # driver flag before the config is built (validation happens there).
    args.objectives = tuple(
        s.strip() for s in args.objectives.split(",") if s.strip()
    )
    args.pareto = args.driver
    try:
        limits = tuple(int(s) for s in str(args.c).split(",") if s.strip())
    except ValueError:
        print(f"error: bad --c list {args.c!r}", file=sys.stderr)
        return 2
    traffics = tuple(
        s.strip() for s in args.traffic.split(",") if s.strip()
    ) or ("uniform",)
    for name in traffics:
        if name != "uniform" and name not in PARSEC_WORKLOADS:
            print(
                f"error: unknown traffic {name!r}; expected 'uniform' or "
                f"one of {PARSEC_NAMES}",
                file=sys.stderr,
            )
            return 2
    with _obs_session(args) as obs:
        try:
            cfg = SearchConfig.from_cli(args)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        ledger = _ledger_for(args)
        scenarios = []
        for traffic in traffics:
            gamma = (
                None if traffic == "uniform"
                else workload_gamma(PARSEC_WORKLOADS[traffic], args.n)
            )
            for c in limits:
                ledger_params = pareto_params(
                    args.n, c, args.method, args.effort, args.driver,
                    cfg.objectives, traffic,
                )
                run_id = None
                if ledger is not None:
                    run_id = ledger.run_id_for(
                        "pareto", ledger_params, cfg, cfg.seed
                    )
                    if obs is not None:
                        obs.set_context(run_id=run_id)
                start = time.perf_counter()
                front = pareto_front(
                    args.n, c,
                    gamma=gamma,
                    method=args.method,
                    params=EFFORTS[args.effort],
                    config=cfg,
                    points=args.points,
                    population=args.population,
                    generations=args.generations,
                    obs=obs,
                )
                wall = time.perf_counter() - start
                front_json = front.to_json()
                hv = front.hypervolume()
                scenarios.append(
                    {"traffic": traffic, "c": c, "front": front_json}
                )
                rows = [
                    [i]
                    + [f"{v:.4f}" for v in point.values]
                    + [sorted(point.placement.express_links)]
                    for i, point in enumerate(front.points)
                ]
                print(
                    render_table(
                        f"{args.n}x{args.n} C={c} Pareto front "
                        f"({args.driver}, {traffic})",
                        ["#", *front.objectives, "express links"],
                        rows,
                    )
                )
                print(f"  {len(front.points)} nondominated point(s) from "
                      f"{front.evaluations} priced design(s); "
                      f"hypervolume {hv:.6g}")
                _record_run(
                    ledger, obs, run_id, "pareto", ledger_params, cfg,
                    cfg.seed, wall,
                    results={
                        "front_size": len(front.points),
                        "evaluations": front.evaluations,
                        "hypervolume": hv,
                    },
                    result_digest=digest_parts(
                        json.dumps(front_json, sort_keys=True)
                    ),
                )
        if args.out:
            payload = {
                "schema": 1,
                "kind": "pareto_fronts",
                "n": args.n,
                "driver": args.driver,
                "objectives": list(cfg.objectives),
                "scenarios": scenarios,
            }
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"\nfronts written to {args.out}")
        _finish_obs(obs, args)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    with _obs_session(args) as obs:
        design = _design_for(args.scheme, args.n, args.seed, args.effort)
        cfg = SimConfig(
            flit_bits=design.point.flit_bits,
            warmup_cycles=args.warmup,
            measure_cycles=args.measure,
            max_cycles=max(50_000, 20 * (args.warmup + args.measure)),
            seed=args.seed,
        )
        ledger = _ledger_for(args)
        ledger_params = {
            "n": args.n, "scheme": args.scheme, "workload": args.workload,
            "rate": args.rate, "effort": args.effort,
        }
        run_id = None
        if ledger is not None:
            run_id = ledger.run_id_for(
                "simulate", ledger_params, cfg, args.seed
            )
            if obs is not None:
                obs.set_context(run_id=run_id)
        if args.workload in PARSEC_NAMES:
            traffic = parsec_traffic(args.workload, args.n, rng=args.seed)
        else:
            traffic = SyntheticTraffic(
                make_pattern(args.workload, args.n),
                rate=args.rate,
                rng=args.seed,
            )
        start = time.perf_counter()
        result = Simulator(
            design.topology, cfg, traffic, obs=obs, metrics_every=args.metrics_every,
        ).run()
        wall = time.perf_counter() - start
        s = result.summary
        print(f"{design.name} on {args.n}x{args.n}, workload={args.workload}")
        print(f"  packets measured: {s.packets} (drained: {result.drained})")
        print(f"  avg network latency: {s.avg_network_latency:.2f} cycles")
        print(f"  avg head latency:    {s.avg_head_latency:.2f} cycles")
        print(f"  avg serialization:   {s.avg_serialization_latency:.2f} cycles")
        print(f"  throughput:          {s.throughput_packets_per_cycle:.3f} packets/cycle")
        _record_run(
            ledger, obs, run_id, "simulate", ledger_params, cfg, args.seed,
            wall,
            results={
                "packets": s.packets,
                "drained": result.drained,
                "cycles_run": result.cycles_run,
                "avg_network_latency": s.avg_network_latency,
                "throughput_packets_per_cycle": s.throughput_packets_per_cycle,
            },
            result_digest=_run_result_digest(result),
        )
        _finish_obs(obs, args)
    return 0


SCHEMES = ("mesh", "hfb", "dc_sa")


def _design_for(scheme: str, n: int, seed: int, effort: str):
    if scheme not in SCHEMES:
        raise ConfigurationError(
            f"unknown scheme {scheme!r}; expected one of {', '.join(SCHEMES)}"
        )
    if n < 2:
        raise ConfigurationError(f"n must be >= 2, got {n}")
    if scheme == "mesh":
        return mesh_design(n)
    if scheme == "hfb":
        return hfb_design(n)
    from repro.harness.designs import dc_sa_design

    return dc_sa_design(n, seed=seed, effort=effort)


def _cmd_simulate_sweep(args: argparse.Namespace) -> int:
    from repro.sim.campaign import campaign_grid, run_campaign

    with _obs_session(args) as obs:
        designs = [
            _design_for(s.strip(), args.n, args.seed, args.effort)
            for s in args.schemes.split(",") if s.strip()
        ]
        patterns = [p.strip() for p in args.patterns.split(",") if p.strip()]
        try:
            rates = [float(r) for r in args.rates.split(",") if r.strip()]
        except ValueError as exc:
            print(f"error: bad --rates value: {exc}", file=sys.stderr)
            return 2
        ledger = _ledger_for(args)
        ledger_params = {
            "n": args.n, "schemes": args.schemes, "patterns": args.patterns,
            "rates": args.rates, "seeds": args.seeds, "warmup": args.warmup,
            "measure": args.measure, "effort": args.effort,
        }
        run_id = None
        if ledger is not None:
            run_id = ledger.run_id_for(
                "campaign", ledger_params, None, args.seed
            )
            if obs is not None:
                obs.set_context(run_id=run_id)
        grid = campaign_grid(
            designs, patterns, rates, base_seed=args.seed,
            seeds_per_point=args.seeds, warmup=args.warmup, measure=args.measure,
        )
        start = time.perf_counter()
        campaign = run_campaign(grid, jobs=args.jobs, obs=obs)
        wall = time.perf_counter() - start
        rows = []
        for job, res in zip(campaign.jobs, campaign.results):
            scheme, pattern, rate, seed_i = job.key
            s = res.run.summary
            rows.append([
                scheme, pattern, rate, seed_i, s.packets,
                s.avg_network_latency, s.throughput_packets_per_cycle,
                res.run.cycles_run, "yes" if res.run.drained else "NO",
            ])
        print(render_table(
            f"Simulation campaign: {args.n}x{args.n}, "
            f"{len(designs)} scheme(s) x {len(patterns)} pattern(s) x "
            f"{len(rates)} rate(s) x {args.seeds} seed(s)",
            ["scheme", "pattern", "rate", "seed", "packets", "latency",
             "thr (pkt/cyc)", "cycles", "drained"],
            rows,
            digits=6,
        ))
        print(f"\n{len(grid)} runs on {args.jobs} job(s) "
              "(results identical for every --jobs value)")
        _record_run(
            ledger, obs, run_id, "campaign", ledger_params, None, args.seed,
            wall,
            results={
                "runs": len(grid),
                "drained": all(r.run.drained for r in campaign.results),
            },
            result_digest=_run_result_digest(
                *(r.run for r in campaign.results)
            ),
        )
        _finish_obs(obs, args)
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    try:
        print(report_file(
            args.trace, k=args.top,
            by_worker=args.by_worker, by_task=args.by_task,
        ))
    except (OSError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger or LEDGER_ROOT)
    try:
        if args.runs_action == "list":
            print(render_runs_table(ledger.list()))
        elif args.runs_action == "show":
            print(json.dumps(ledger.load(args.run_id), indent=2,
                             sort_keys=True))
        else:  # diff
            a, b = ledger.load(args.run_a), ledger.load(args.run_b)
            lines = diff_manifests(a, b)
            if lines:
                print(f"{a['run_id']} vs {b['run_id']}:")
                print("\n".join(lines))
                if any(line.startswith("  result_digest") for line in lines):
                    same = diff_manifests(
                        {k: a.get(k) for k in ("kind", "seed", "params",
                                               "config")},
                        {k: b.get(k) for k in ("kind", "seed", "params",
                                               "config")},
                    )
                    if not same:
                        print("\nWARNING: identical identities produced "
                              "different result digests -- determinism bug")
                        return 1
            else:
                print(f"{a['run_id']} and {b['run_id']} are identical in "
                      "identity and outcome")
    except (OSError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_metrics_export(args: argparse.Namespace) -> int:
    from repro.obs.metrics import render_prometheus

    ledger = RunLedger(args.ledger or LEDGER_ROOT)
    try:
        manifest = ledger.load(args.run_id)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    snapshot = manifest.get("metrics") or {}
    if args.format == "json":
        text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    else:
        text = render_prometheus(
            snapshot, labels={"run_id": manifest["run_id"],
                              "kind": manifest.get("kind", "?")},
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"metrics written to {args.out} ({args.format})")
    else:
        print(text, end="")
    return 0


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.obs.regress import (
        compare_dirs,
        render_bench_report,
        report_to_dict,
    )

    try:
        comps, unpaired = compare_dirs(
            args.baseline, args.candidate, threshold=args.threshold
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_bench_report(
        comps, unpaired, args.threshold, args.baseline, args.candidate
    ))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(comps, unpaired, args.threshold), fh,
                      indent=2)
            fh.write("\n")
        print(f"\nreport written to {args.json}")
    return 1 if any(c.regressed for c in comps) else 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    sol = solve_row_problem(
        args.n, args.c, method=args.method, params=EFFORTS[args.effort],
        config=SearchConfig(seed=args.seed),
    )
    report = audit_row(sol.placement, args.c)
    print(f"P~({args.n},{args.c}) [{args.method}]: {sorted(sol.placement.express_links)}")
    print(f"cross-section counts: {report['cross_section_counts']}")
    print(f"utilization: {report['utilization'] * 100:.0f}%, "
          f"wire length: {report['total_wire_length']} units")
    print("connection matrix:")
    print(ConnectionMatrix.from_placement(sol.placement, args.c))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.channel_load import channel_loads, load_balance_stats
    from repro.routing.tables import RoutingTables

    design = _design_for(args.scheme, args.n, args.seed, args.effort)
    tables = RoutingTables.build(design.topology)
    report = channel_loads(tables, flit_bits=design.point.flit_bits)
    stats = load_balance_stats(report)
    print(f"{design.name} on {args.n}x{args.n} "
          f"(C={design.point.link_limit}, flit={design.point.flit_bits}b), "
          f"uniform traffic, paper packet mix:")
    print(f"  channel saturation bound:  {report.channel_bound:.2f} packets/cycle")
    print(f"  NI injection bound:        {report.injection_bound:.2f} packets/cycle")
    print(f"  binding bound:             {report.saturation_packets_per_cycle:.2f} packets/cycle")
    print(f"  busiest channel:           {report.bottleneck}")
    print(f"  load imbalance (max/mean): {stats['imbalance']:.2f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serve import (
        DesignStore,
        HttpServer,
        ServeApp,
        Sweeper,
        sweep_grid,
    )

    sizes = []
    if args.sweep:
        try:
            sizes = [int(s) for s in args.sweep.split(",") if s.strip()]
        except ValueError as exc:
            print(f"error: bad --sweep value: {exc}", file=sys.stderr)
            return 2
    store = DesignStore(args.store) if args.store else DesignStore()
    ledger = RunLedger(args.ledger) if args.ledger else None
    app = ServeApp(
        store,
        ledger=ledger,
        capacity=args.capacity,
        queue_limit=args.queue_limit,
        default_deadline_s=args.deadline,
        default_effort=args.effort,
        default_seed=args.seed,
    )

    async def _run() -> None:
        server = HttpServer(app, args.host, args.port)
        await server.start()
        # SIGINT and SIGTERM both end the serve loop, and the finally
        # block drains.  The loop's handler replaces the SIGINT
        # disposition too, so a server whose SIGINT started ignored (a
        # background job of a non-interactive shell) still stops on it.
        # Installed before the banner: a signal sent on seeing it drains.
        loop = asyncio.get_running_loop()
        serving = loop.create_task(server.serve_forever())
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, serving.cancel)
        host, port = server.address
        print(
            f"repro serve listening on http://{host}:{port} "
            f"(store: {store.root}, {len(store)} cached design(s))",
            flush=True,
        )
        sweep_task = None
        if args.sweep:
            sweeper = Sweeper(app, sweep_grid(
                sizes, effort=args.effort, seed=args.seed,
            ))
            sweep_task = loop.create_task(sweeper.run())
            print(f"sweeper pre-populating {len(sweeper.specs)} grid "
                  f"point(s) for n in {sizes} during idle time", flush=True)
        try:
            await serving
        except asyncio.CancelledError:
            pass
        finally:
            if sweep_task is not None:
                sweep_task.cancel()
            await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # before the handlers were installed
        pass
    print("\nserver stopped")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    print("Paper-figure regenerators (run with pytest <file> --benchmark-only):")
    experiments = [
        ("Figure 2", "benchmarks/bench_fig2_connection_matrix.py"),
        ("Figure 5", "benchmarks/bench_fig5_latency_vs_c.py"),
        ("Figure 6", "benchmarks/bench_fig6_parsec_latency.py"),
        ("Figure 7", "benchmarks/bench_fig7_runtime.py"),
        ("Figure 8", "benchmarks/bench_fig8_synthetic.py"),
        ("Figure 9", "benchmarks/bench_fig9_power.py"),
        ("Figure 10", "benchmarks/bench_fig10_static_breakdown.py"),
        ("Figure 11", "benchmarks/bench_fig11_bandwidth.py"),
        ("Figure 12", "benchmarks/bench_fig12_optimal.py"),
        ("Table 2", "benchmarks/bench_table2_worst_case.py"),
        ("Section 5.6.4", "benchmarks/bench_sec564_app_aware.py"),
        ("Section 4.5.2", "benchmarks/bench_area_overhead.py"),
        ("Ablation 4.4.2", "benchmarks/bench_ablation_candidate_generator.py"),
        ("Ablation 4.2", "benchmarks/bench_ablation_routing_modes.py"),
        ("Model validation", "benchmarks/bench_validation_model_vs_sim.py"),
        ("Throughput bounds", "benchmarks/bench_analysis_channel_load.py"),
        ("Seed robustness", "benchmarks/bench_robustness_seeds.py"),
        ("Fixed baselines", "benchmarks/bench_extension_fixed_baselines.py"),
    ]
    for name, path in experiments:
        print(f"  {name:<18} {path}")
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    """Environment report: versions, kernel tiers, the tier that runs, cores.

    The support-bundle line for serve deployments: one command that
    says which interpreter/array stack a box runs, whether the native
    tier loads (and where its build cache lives), and which tier every
    search, routing table and evaluation on this machine runs -- with
    the reason when it is not the compiled one.
    """
    import os
    import platform

    import numpy as np

    from repro.routing import _native_cext, native
    from repro.routing.impls import IMPLEMENTATIONS, available_impls, default_impl

    print(f"python      {platform.python_version()}  ({sys.executable})")
    print(f"platform    {platform.platform()}")
    print(f"numpy       {np.__version__}")
    tiers = available_impls()
    reason = native.unavailable_reason()
    for impl in IMPLEMENTATIONS:
        status = "available" if impl in tiers else "unavailable"
        if impl == "native":
            if impl in tiers:
                status = f"available (backend: {native.backend_name()})"
            elif reason:
                status = f"unavailable ({reason})"
        print(f"impl        {impl:<11} {status}")
    print(f"cache       {os.path.abspath(_native_cext.cache_dir())}")
    tier = default_impl()
    why = "compiled kernels loaded" if tier == "native" else (
        f"native unavailable: {reason}"
    )
    print(f"tier        {tier}  ({why})")
    print(f"cpus        {os.cpu_count()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Express Link Placement for NoC-Based Many-Core Platforms "
        "(ICPP 2019) -- reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="sweep C and pick the best design")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--method", choices=("dc_sa", "only_sa"), default="dc_sa")
    p.add_argument(
        "--save", metavar="FILE",
        help="write the result as JSON (the document /place serves; "
        "read it back with PlacementResult.from_json)",
    )
    _add_run_flags(p, search=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "analyze", help="channel-load throughput bounds for a scheme"
    )
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--scheme", choices=SCHEMES, default="dc_sa")
    _add_run_flags(p, obs=False)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("solve", help="solve one P~(n, C) instance")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--c", type=int, default=4)
    p.add_argument("--method", choices=("dc_sa", "only_sa", "exact"), default="dc_sa")
    _add_run_flags(p, search=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "pareto",
        help="multi-objective front search over latency/power/area/load",
    )
    p.add_argument("--n", type=int, default=8)
    p.add_argument(
        "--c", default="2,3,4", metavar="LIST",
        help="comma-separated cross-section limits (default 2,3,4)",
    )
    p.add_argument(
        "--traffic", default="uniform", metavar="LIST",
        help="comma-separated traffic scenarios: 'uniform' or PARSEC "
        "workload names (one front per scenario x C)",
    )
    p.add_argument(
        "--objectives", default="latency,power", metavar="LIST",
        help="comma-separated objective axes "
        "(latency, power, area, channel_load)",
    )
    p.add_argument(
        "--driver", choices=("epsilon", "nsga2"), default="epsilon",
        help="front-search driver: epsilon-constraint sweep of scalar "
        "solves, or an NSGA-II population loop",
    )
    p.add_argument("--method", choices=("dc_sa", "only_sa", "exact"),
                   default="dc_sa")
    p.add_argument(
        "--points", type=int, default=5, metavar="K",
        help="epsilon levels per secondary axis (epsilon driver)",
    )
    p.add_argument(
        "--population", type=int, default=16, metavar="P",
        help="NSGA population size",
    )
    p.add_argument(
        "--generations", type=int, default=8, metavar="G",
        help="NSGA generations",
    )
    p.add_argument("--out", metavar="FILE",
                   help="write all fronts as one JSON document")
    _add_run_flags(p, search=True)
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("simulate", help="cycle-accurate simulation of a scheme")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--scheme", choices=SCHEMES, default="dc_sa")
    p.add_argument(
        "--workload",
        default="uniform_random",
        help=f"synthetic pattern ({', '.join(sorted(PATTERNS))}) or PARSEC "
        f"name ({', '.join(PARSEC_NAMES)})",
    )
    p.add_argument("--rate", type=float, default=0.02, help="packets/node/cycle")
    p.add_argument("--warmup", type=int, default=500)
    p.add_argument("--measure", type=int, default=2_000)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "simulate-sweep",
        help="run a scheme x pattern x rate x seed campaign grid",
    )
    p.add_argument("--n", type=int, default=8)
    p.add_argument(
        "--schemes", default="mesh",
        help="comma-separated schemes (mesh, hfb, dc_sa)",
    )
    p.add_argument(
        "--patterns", default="uniform_random",
        help=f"comma-separated patterns ({', '.join(sorted(PATTERNS))})",
    )
    p.add_argument(
        "--rates", default="1.0,2.0,4.0",
        help="comma-separated aggregate rates (packets/cycle network-wide)",
    )
    p.add_argument(
        "--seeds", type=int, default=1, metavar="S",
        help="independent traffic seeds per grid point (derived streams)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="K",
        help="worker processes for the campaign (results are identical "
        "for every value; default 1 = in-process)",
    )
    p.add_argument("--warmup", type=int, default=300)
    p.add_argument("--measure", type=int, default=1_000)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_simulate_sweep)

    p = sub.add_parser("inspect", help="show a placement's structure")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--c", type=int, default=4)
    p.add_argument("--method", choices=("dc_sa", "only_sa", "exact"), default="dc_sa")
    _add_run_flags(p, obs=False)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser(
        "serve",
        help="run the placement service (HTTP/JSON, content-addressed "
        "design cache)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="listen port (0 picks a free port)")
    p.add_argument(
        "--store", metavar="DIR", default=None,
        help="design-cache root (default .repro/designs)",
    )
    p.add_argument(
        "--capacity", type=int, default=4, metavar="K",
        help="max concurrent searches before 429 backpressure",
    )
    p.add_argument(
        "--queue-limit", type=int, default=256, metavar="K",
        help="max queued /evaluate requests before 429",
    )
    p.add_argument(
        "--deadline", type=float, default=60.0, metavar="S",
        help="default per-request deadline in seconds (overridable per "
        "request via deadline_s)",
    )
    p.add_argument(
        "--sweep", metavar="N,N,...", default=None,
        help="pre-populate the design cache for these mesh sizes during "
        "idle time (background sweeper)",
    )
    _add_run_flags(p, obs=False)
    g = p.add_argument_group("service observability")
    g.add_argument(
        "--ledger", metavar="DIR", nargs="?", const=LEDGER_ROOT,
        default=None,
        help="record every served computation as a run manifest under DIR "
        f"(default {LEDGER_ROOT}; exposed at GET /runs/<id>)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("experiments", help="list paper-figure regenerators")
    p.set_defaults(func=_cmd_experiments)

    p = sub.add_parser(
        "doctor",
        help="report python/numpy versions, kernel tiers, cpu count",
    )
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser(
        "trace-report", help="summarize a JSONL trace written by --trace-out"
    )
    p.add_argument("trace", help="path to a JSONL trace file")
    p.add_argument(
        "--top", type=int, default=5, metavar="K",
        help="entries per ranked section (spans, link utilization)",
    )
    p.add_argument(
        "--by-worker", action="store_true",
        help="add the per-worker timeline and critical-path sections "
        "(merged --jobs K traces)",
    )
    p.add_argument(
        "--by-task", action="store_true",
        help="add the per-task breakdown keyed by stamped grid coordinates",
    )
    p.set_defaults(func=_cmd_trace_report)

    p = sub.add_parser(
        "runs", help="query the run ledger written by --ledger"
    )
    p.add_argument(
        "--ledger", metavar="DIR", default=None,
        help=f"ledger root (default {LEDGER_ROOT})",
    )
    runs_sub = p.add_subparsers(dest="runs_action", required=True)
    rp = runs_sub.add_parser("list", help="list recorded runs")
    rp.set_defaults(func=_cmd_runs)
    rp = runs_sub.add_parser("show", help="print one run's manifest as JSON")
    rp.add_argument("run_id", help="run id (unique prefixes resolve)")
    rp.set_defaults(func=_cmd_runs)
    rp = runs_sub.add_parser(
        "diff", help="field-level diff of two run manifests"
    )
    rp.add_argument("run_a")
    rp.add_argument("run_b")
    rp.set_defaults(func=_cmd_runs)

    p = sub.add_parser(
        "metrics-export",
        help="render a recorded run's metrics (prometheus textfile or JSON)",
    )
    p.add_argument("run_id", help="run id from the ledger (prefix ok)")
    p.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
    )
    p.add_argument(
        "--ledger", metavar="DIR", default=None,
        help=f"ledger root (default {LEDGER_ROOT})",
    )
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write to PATH instead of stdout")
    p.set_defaults(func=_cmd_metrics_export)

    p = sub.add_parser(
        "bench-report",
        help="compare two benchmark results directories; fail on regressions",
    )
    p.add_argument("baseline", help="baseline results dir (JSON twins)")
    p.add_argument("candidate", help="candidate results dir (JSON twins)")
    p.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRAC",
        help="relative noise threshold (default 0.25 = 25%%)",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the comparison as a JSON artifact",
    )
    p.set_defaults(func=_cmd_bench_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        # Misconfiguration (invalid fields or knob combos) is a user
        # error, not a crash: one line
        # on stderr, exit 2, matching the pareto command's convention.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
