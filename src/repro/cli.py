"""Command-line interface: run any registered experiment or a one-off demo.

Usage (``python -m repro ...``)::

    python -m repro list
    python -m repro run EXP-THM45
    python -m repro run EXP-F1_3 --radii 1 2 3
    python -m repro thresholds --radii 1 2 4 8
    python -m repro demo --protocol bv-two-hop --r 2 --t 4 \
        --strategy fabricator --map
    python -m repro sweep byzantine --r 1 --trials 16 --workers 4
    python -m repro trace byzantine --r 2 --t 2 --seed 7 --jsonl run.jsonl
    python -m repro lint src/repro --format json

All output is plain text tables (see
:mod:`repro.experiments.report`); exit status is zero unless the run
errored.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.thresholds import threshold_table
from repro.experiments.registry import REGISTRY, all_experiments, get_experiment
from repro.experiments.report import format_table
from repro.experiments.scenarios import byzantine_broadcast_scenario
from repro.faults.byzantine import BYZANTINE_STRATEGIES
from repro.grid.factory import TOPOLOGY_KINDS
from repro.protocols.registry import protocol_names
from repro.viz.ascii_art import render_commit_wave

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import ResultCache


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [
        {
            "id": e.exp_id,
            "paper": e.paper_ref,
            "description": e.description,
        }
        for e in all_experiments()
    ]
    print(format_table(rows, title="registered experiments"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        exp = get_experiment(args.exp_id)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    kwargs = {}
    if args.radii:
        kwargs["radii"] = tuple(args.radii)
    rows = exp.run(**kwargs)
    print(format_table(rows, title=f"{exp.exp_id}: {exp.description}"))
    return 0


def _cmd_thresholds(args: argparse.Namespace) -> int:
    rows = threshold_table(args.radii or [1, 2, 3, 4, 5])
    print(format_table(rows, title="all bounds per radius"))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    scenario = byzantine_broadcast_scenario(
        r=args.r,
        t=args.t,
        protocol=args.protocol,
        strategy=args.strategy,
        placement=args.placement,
        seed=args.seed,
    )
    scenario.validate()
    outcome = scenario.run()
    if args.map:
        print(
            render_commit_wave(
                scenario.topology,
                outcome.result.committed(),
                outcome.value,
                faulty=scenario.faulty_nodes,
            )
        )
        print()
    print(format_table([dict(outcome.summary())], title="outcome"))
    return 0 if outcome.safe else 1


def _result_cache(args: argparse.Namespace) -> Optional["ResultCache"]:
    """The work-unit cache that ``--no-cache`` / ``--cache-dir`` select:
    ``None`` when bypassed, else a :class:`~repro.exec.ResultCache` at
    ``--cache-dir`` or the default root."""
    if args.no_cache:
        return None
    from repro.exec import ResultCache, default_cache_dir

    return ResultCache(args.cache_dir or default_cache_dir())


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.analysis.sweep import sharpness_run, sharpness_table
    from repro.core.thresholds import (
        byzantine_linf_max_t,
        crash_linf_max_t,
        koo_impossibility_bound,
        crash_linf_threshold,
    )
    from repro.errors import ConfigurationError
    from repro.exec import SweepExecutor

    if args.resume and args.no_cache:
        print(
            "repro sweep: --resume needs the cache; drop --no-cache",
            file=sys.stderr,
        )
        return 2
    executor = SweepExecutor(workers=args.workers, cache=_result_cache(args))

    if args.budgets:
        budgets = list(args.budgets)
    elif args.kind == "byzantine":
        budgets = list(range(0, koo_impossibility_bound(args.r) + 2))
    else:
        budgets = list(range(0, crash_linf_threshold(args.r) + 2))
    protocol = args.protocol or (
        "bv-two-hop" if args.kind == "byzantine" else "crash-flood"
    )
    threshold = (
        byzantine_linf_max_t(args.r)
        if args.kind == "byzantine"
        else crash_linf_max_t(args.r)
    )

    try:
        table = sharpness_table(
            args.kind,
            args.r,
            budgets,
            trials=args.trials,
            protocol=protocol,
            strategy=args.strategy,
            engine=args.engine,
            metric=args.metric,
            topology=args.topology,
        )
        if args.resume:
            specs = [unit.spec for unit in table.expand()]
            done, total = executor.checkpointed(specs, root_seed=args.seed)
            print(f"resume: {done}/{total} work units already checkpointed")
        run = sharpness_run(table, seed=args.seed, executor=executor)
    except ConfigurationError as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 2

    rows = []
    for pt in run.points:
        entry = pt.row()
        if args.metric == "linf" and args.topology == "torus":
            entry["regime"] = (
                "guaranteed" if pt.t <= threshold else "beyond threshold"
            )
        else:
            # the exact thresholds are L-infinity torus results; other
            # axis levels have no proven guarantee line to annotate
            entry["regime"] = "empirical"
        rows.append(entry)
    stats = run.stats.as_dict()
    print(
        format_table(
            rows,
            title=f"sweep: {args.kind} r={args.r} trials={args.trials} "
            f"seed={args.seed} ({protocol}, {args.metric}/{args.topology})",
        )
    )
    print()
    print(format_table([stats], title="execution stats"))
    if args.json:
        report = {
            "kind": args.kind,
            "r": args.r,
            "protocol": protocol,
            "strategy": args.strategy if args.kind == "byzantine" else None,
            "metric": args.metric,
            "topology": args.topology,
            "trials": args.trials,
            "seed": args.seed,
            "budgets": budgets,
            "points": rows,
            "stats": stats,
        }
        pathlib.Path(args.json).write_text(
            json.dumps(report, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    return 0


def _cmd_runtable(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.errors import ConfigurationError
    from repro.exec import SweepExecutor, execute_runtable, load_runtable

    try:
        table = load_runtable(args.table)
        units = table.expand()
    except (ConfigurationError, OSError) as exc:
        print(f"repro runtable: {exc}", file=sys.stderr)
        return 2

    if args.expand_only:
        expansion = {
            "schema": table.as_dict()["schema"],
            "table": table.as_dict(),
            "runs": [u.as_dict() for u in units],
        }
        rendered = json.dumps(expansion, indent=2, sort_keys=True) + "\n"
        if args.json:
            pathlib.Path(args.json).write_text(rendered)
            print(f"wrote {args.json} ({len(units)} run(s))")
        else:
            print(rendered, end="")
        return 0

    try:
        executor = SweepExecutor(workers=args.workers, cache=_result_cache(args))
        result = execute_runtable(table, executor=executor, root_seed=args.seed)
    except ConfigurationError as exc:
        print(f"repro runtable: {exc}", file=sys.stderr)
        return 2

    report = result.report()
    rows = [
        dict({"run_id": run["run_id"]}, **run["summary"])
        for run in report["runs"]
    ]
    print(
        format_table(
            rows,
            title=f"runtable: {table.name} ({table.num_runs()} run(s) x "
            f"{table.repetitions} trial(s), seed={args.seed})",
        )
    )
    print()
    print(format_table([report["stats"]], title="execution stats"))
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(report, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.scenarios import crash_broadcast_scenario
    from repro.experiments.report import latency_rows, wavefront_rows
    from repro.obs import (
        JsonlRecorder,
        PhaseProfiler,
        RunMetrics,
        metrics_summary,
    )

    if args.engine == "fastpath" and (
        args.jsonl or args.deliveries or args.profile
    ):
        print(
            "repro trace: --jsonl / --deliveries / --profile need the "
            "per-event reference engine; drop --engine fastpath",
            file=sys.stderr,
        )
        return 2
    if args.kind == "byzantine":
        scenario = byzantine_broadcast_scenario(
            r=args.r,
            t=args.t,
            protocol=args.protocol or "bv-two-hop",
            strategy=args.strategy,
            placement=args.placement,
            seed=args.seed,
            engine=args.engine,
        )
    else:
        scenario = crash_broadcast_scenario(
            r=args.r,
            t=args.t,
            placement=args.placement,
            seed=args.seed,
            protocol=args.protocol or "crash-flood",
            engine=args.engine,
        )
    metrics = RunMetrics(source=scenario.source)
    recorder = None
    if args.engine != "fastpath":
        # the fastpath backend keeps no per-event stream to record
        recorder = JsonlRecorder(record_deliveries=args.deliveries)
    profiler = PhaseProfiler() if args.profile else None
    observers = (metrics, recorder) if recorder is not None else (metrics,)
    outcome = scenario.run(observers=observers, profiler=profiler)
    summary = metrics_summary(metrics)
    if args.jsonl:
        count = recorder.dump(args.jsonl)
        print(f"wrote {count} events to {args.jsonl}")
    if args.summary:
        import pathlib

        pathlib.Path(args.summary).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.summary}")
    print(format_table([dict(outcome.summary())], title="outcome"))
    print()
    print(
        format_table(
            wavefront_rows(summary),
            title=f"wave front from source {scenario.source} "
            f"(commits={summary['commits']}, crashes={summary['crashes']})",
        )
    )
    print()
    print(format_table(latency_rows(summary), title="commit latency"))
    if profiler is not None:
        print()
        print(format_table(profiler.rows(), title="engine phase profile"))
    return 0 if outcome.safe else 1


def _cmd_adversary(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from repro.adversary import SearchConfig, certify_result, run_search
    from repro.errors import ConfigurationError

    try:
        config = SearchConfig(
            kind=args.kind,
            r=args.r,
            t=args.t,
            protocol=args.protocol or "",
            byz_strategy=args.byz_strategy,
            torus_side=args.side,
            max_rounds=args.max_rounds,
            seed=args.seed,
            eval_budget=args.budget,
        )
        result = run_search(
            config,
            strategy=args.strategy,
            workers=args.workers,
            cache=_result_cache(args),
            engine=args.engine,
        )
    except ConfigurationError as exc:
        print(f"repro adversary: {exc}", file=sys.stderr)
        return 2
    summary = {
        "kind": args.kind,
        "strategy": args.strategy,
        "t": args.t,
        "r": args.r,
        "defeated": result.defeated,
        "evaluations": result.evaluations,
        "best_value": round(result.best_score.value, 2),
        "faults": len(result.best_faults),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
    }
    print(format_table([summary], title="adversary search"))
    report = result.as_dict()
    if result.defeated:
        cert = certify_result(result)
        report["certificate"] = cert.as_dict()
        print()
        print(
            format_table(
                [
                    {
                        "worst_nbd": cert.worst_nbd,
                        "budget_t": config.t,
                        "defeated": cert.defeated,
                        "trace_events": cert.trace_events,
                        "trace_sha256": cert.trace_sha256[:16],
                    }
                ],
                title="certificate (re-validated + replayed)",
            )
        )
        if args.trace:
            cert.write_trace(args.trace)
            print(f"wrote {cert.trace_events} events to {args.trace}")
    if args.json:
        pathlib.Path(args.json).write_text(
            json.dumps(report, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from repro.lint import (
        all_rules,
        format_json,
        format_sarif,
        format_text,
        lint_paths,
        write_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            tag = " [deep]" if rule.deep else ""
            print(f"{rule.rule_id:24s} {rule.description}{tag}")
        return 0
    if args.write_baseline and not args.baseline:
        print(
            "repro lint: --write-baseline requires --baseline PATH",
            file=sys.stderr,
        )
        return 2
    if args.paths:
        paths = list(args.paths)
    else:
        # default: the installed repro package itself
        import repro

        paths = [os.path.dirname(os.path.abspath(repro.__file__))]
    rule_ids = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )
    try:
        report = lint_paths(
            paths,
            rule_ids,
            deep=args.deep,
            # when (re)writing, a missing baseline is fine (first run);
            # when gating, a missing baseline is a usage error
            baseline_path=args.baseline
            if args.baseline
            and (not args.write_baseline or os.path.exists(args.baseline))
            else None,
        )
    except (FileNotFoundError, KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro lint: {message}", file=sys.stderr)
        return 2
    if args.write_baseline:
        count = write_baseline(args.baseline, report)
        print(
            f"wrote {args.baseline}: {count} baselined finding(s) "
            f"({len(report.findings)} newly accepted)"
        )
        return 0
    if args.sarif:
        pathlib.Path(args.sarif).write_text(format_sarif(report) + "\n")
    if args.format == "json":
        rendered = format_json(report)
    elif args.format == "sarif":
        rendered = format_sarif(report)
    else:
        rendered = format_text(report)
    print(rendered)
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'On Reliable Broadcast in a Radio "
        "Network' (Bhandari & Vaidya, PODC 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment by id")
    p_run.add_argument("exp_id", help=f"one of {sorted(REGISTRY)}")
    p_run.add_argument(
        "--radii", nargs="+", type=int, help="override the radius sweep"
    )
    p_run.set_defaults(func=_cmd_run)

    p_thr = sub.add_parser("thresholds", help="print the bound table")
    p_thr.add_argument("--radii", nargs="+", type=int)
    p_thr.set_defaults(func=_cmd_thresholds)

    p_demo = sub.add_parser("demo", help="run a single broadcast scenario")
    p_demo.add_argument(
        "--protocol", default="bv-two-hop", choices=sorted(protocol_names())
    )
    p_demo.add_argument("--r", type=int, default=2)
    p_demo.add_argument("--t", type=int, default=4)
    p_demo.add_argument(
        "--strategy",
        default="fabricator",
        choices=sorted(BYZANTINE_STRATEGIES),
    )
    p_demo.add_argument(
        "--placement", default="strip", choices=["strip", "random"]
    )
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.add_argument(
        "--map", action="store_true", help="print the commit-wave map"
    )
    p_demo.set_defaults(func=_cmd_demo)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a threshold-sharpness sweep (parallel + cached)",
        description="Fan randomized sharpness trials over a worker pool "
        "with deterministic per-trial seeding and on-disk work-unit "
        "caching (see docs/EXECUTION.md). Aggregates are byte-identical "
        "for any --workers value; rerunning an identical sweep is pure "
        "cache hits.",
    )
    p_sweep.add_argument(
        "kind", choices=["byzantine", "crash"], help="fault model to sweep"
    )
    p_sweep.add_argument("--r", type=int, default=1, help="radius")
    p_sweep.add_argument(
        "--budgets",
        nargs="+",
        type=int,
        help="fault budgets t to sweep (default: 0..impossibility+1)",
    )
    p_sweep.add_argument(
        "--trials", type=int, default=8, help="random placements per budget"
    )
    p_sweep.add_argument("--seed", type=int, default=0, help="root seed")
    p_sweep.add_argument(
        "--protocol",
        choices=sorted(protocol_names()),
        help="protocol (default: bv-two-hop / crash-flood by kind)",
    )
    p_sweep.add_argument(
        "--strategy",
        default="fabricator",
        choices=sorted(BYZANTINE_STRATEGIES),
        help="Byzantine strategy (ignored for crash sweeps)",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=1, help="worker processes"
    )
    p_sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the work-unit cache entirely (no reads, no writes)",
    )
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="report how many work units a prior (possibly interrupted) "
        "run already checkpointed, then continue from them",
    )
    p_sweep.add_argument(
        "--cache-dir",
        help="cache root (default: $REPRO_CACHE_DIR or "
        "benchmarks/results/cache)",
    )
    p_sweep.add_argument(
        "--json", help="also write a JSON report (points + stats) here"
    )
    p_sweep.add_argument(
        "--engine",
        choices=["reference", "fastpath"],
        default="reference",
        help="simulation backend (fastpath: vectorized crash-flood/"
        "bv-two-hop/cpa, fixed-strategy Byzantine on cpa; identical "
        "results and cache keys, see docs/ENGINES.md)",
    )
    p_sweep.add_argument(
        "--metric",
        choices=["linf", "l1", "l2"],
        default="linf",
        help="distance metric axis (default: the paper's L-infinity)",
    )
    p_sweep.add_argument(
        "--topology",
        choices=list(TOPOLOGY_KINDS),
        default="torus",
        help="topology axis (see docs/TOPOLOGIES.md)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rt = sub.add_parser(
        "runtable",
        help="expand and execute a declarative run table",
        description="Read a JSON run table (factors x levels x "
        "repetitions, see docs/TOPOLOGIES.md), expand it to the cartesian "
        "product of scenario work units, and execute them through the "
        "parallel cached sweep layer. Expansion is deterministic and "
        "duplicate-free; rerunning an identical table against a warm "
        "cache is 100% cache hits.",
    )
    p_rt.add_argument("table", help="path to the run-table JSON file")
    p_rt.add_argument(
        "--expand-only",
        action="store_true",
        help="print the expanded run units (no simulation)",
    )
    p_rt.add_argument("--seed", type=int, default=0, help="root seed")
    p_rt.add_argument(
        "--workers", type=int, default=1, help="worker processes"
    )
    p_rt.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the work-unit cache entirely (no reads, no writes)",
    )
    p_rt.add_argument(
        "--cache-dir",
        help="cache root (default: $REPRO_CACHE_DIR or "
        "benchmarks/results/cache)",
    )
    p_rt.add_argument(
        "--json",
        help="write the JSON report (table + per-run rows + stats) here",
    )
    p_rt.set_defaults(func=_cmd_runtable)

    p_trace = sub.add_parser(
        "trace",
        help="replay one scenario with observability attached",
        description="Run a single fixed-seed scenario with the repro.obs "
        "instrumentation: dump the deterministic JSONL event stream "
        "(byte-identical across runs for the same seed), write the "
        "schema-versioned metrics summary, and print wave-front / "
        "commit-latency tables (see docs/OBSERVABILITY.md).",
    )
    p_trace.add_argument(
        "kind", choices=["byzantine", "crash"], help="scenario family"
    )
    p_trace.add_argument("--r", type=int, default=2, help="radius")
    p_trace.add_argument("--t", type=int, default=2, help="fault budget")
    p_trace.add_argument("--seed", type=int, default=0, help="scenario seed")
    p_trace.add_argument(
        "--protocol",
        choices=sorted(protocol_names()),
        help="protocol (default: bv-two-hop / crash-flood by kind)",
    )
    p_trace.add_argument(
        "--strategy",
        default="fabricator",
        choices=sorted(BYZANTINE_STRATEGIES),
        help="Byzantine strategy (ignored for crash scenarios)",
    )
    p_trace.add_argument(
        "--placement", default="random", choices=["strip", "random"]
    )
    p_trace.add_argument("--jsonl", help="write the JSONL event stream here")
    p_trace.add_argument(
        "--summary", help="write the JSON metrics summary here"
    )
    p_trace.add_argument(
        "--deliveries",
        action="store_true",
        help="also record one JSONL event per actual delivery (large)",
    )
    p_trace.add_argument(
        "--profile",
        action="store_true",
        help="print wall-clock phase profile of the engine hot loop",
    )
    p_trace.add_argument(
        "--engine",
        choices=["reference", "fastpath"],
        default="reference",
        help="simulation backend; fastpath has no per-event stream, so "
        "--jsonl/--deliveries/--profile require reference",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_adv = sub.add_parser(
        "adversary",
        help="search for a worst-case fault placement",
        description="Automated adversary search (see docs/ADVERSARY.md): "
        "explore valid locally-bounded placements for one that defeats "
        "reliable broadcast, evaluating candidates in parallel with "
        "work-unit caching. A found counterexample is independently "
        "re-validated and replayed to a deterministic JSONL trace.",
    )
    p_adv.add_argument(
        "kind", choices=["byzantine", "crash"], help="fault model to attack"
    )
    p_adv.add_argument("--r", type=int, default=1, help="radius")
    p_adv.add_argument("--t", type=int, default=2, help="fault budget")
    p_adv.add_argument(
        "--strategy",
        default="anneal",
        choices=["greedy", "hill-climb", "anneal"],
        help="search strategy",
    )
    p_adv.add_argument(
        "--protocol",
        choices=sorted(protocol_names()),
        help="protocol (default: bv-two-hop / crash-flood by kind)",
    )
    p_adv.add_argument(
        "--byz-strategy",
        default="silent",
        choices=sorted(BYZANTINE_STRATEGIES),
        help="Byzantine message strategy (ignored for crash searches)",
    )
    p_adv.add_argument(
        "--budget",
        type=int,
        default=48,
        help="max placement evaluations (simulator runs)",
    )
    p_adv.add_argument("--seed", type=int, default=0, help="search seed")
    p_adv.add_argument(
        "--side", type=int, help="torus side (default: the strip torus)"
    )
    p_adv.add_argument(
        "--max-rounds", type=int, default=120, help="simulation round cap"
    )
    p_adv.add_argument(
        "--workers", type=int, default=1, help="worker processes"
    )
    p_adv.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the work-unit cache entirely (no reads, no writes)",
    )
    p_adv.add_argument(
        "--cache-dir",
        help="cache root (default: $REPRO_CACHE_DIR or "
        "benchmarks/results/cache)",
    )
    p_adv.add_argument(
        "--trace", help="write the certificate's JSONL trace here"
    )
    p_adv.add_argument(
        "--json", help="write the full search report (+certificate) here"
    )
    p_adv.add_argument(
        "--engine",
        choices=["reference", "fastpath"],
        default="reference",
        help="evaluation backend (certification always replays on "
        "reference); fastpath needs kind=crash, or kind=byzantine with "
        "a cpa + fixed-strategy search",
    )
    p_adv.set_defaults(func=_cmd_adversary)

    p_lint = sub.add_parser(
        "lint",
        help="statically check simulator-model invariants",
        description="AST-based invariant linter (see repro.lint). Exit "
        "status: 0 clean, 1 findings, 2 unparseable files or bad usage.",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format",
    )
    p_lint.add_argument(
        "--rules",
        help="comma-separated rule ids to run (default: all)",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list available rules and exit",
    )
    p_lint.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program analysis passes "
        "(nondet-taint, cache-key-soundness, fork-safety)",
    )
    p_lint.add_argument(
        "--sarif",
        metavar="PATH",
        help="additionally write a SARIF 2.1.0 report to PATH",
    )
    p_lint.add_argument(
        "--baseline",
        metavar="PATH",
        help="fingerprint baseline: matching findings are reported "
        "but do not fail the run",
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current findings into --baseline and exit 0",
    )
    p_lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
