"""Command-line interface: explore the reproduction without writing code.

Commands::

    python -m repro scenario                      # build + summarize Fig 1
    python -m repro check "SELECT drug, COUNT(*) AS n FROM wide_prescriptions GROUP BY drug" \
        --audience analyst --purpose care/quality # compliance-check a report
    python -m repro deliver rpt_001               # generate + render a report
    python -m repro audit                         # deliver everything + audit
    python -m repro gaps                          # PLA coverage analysis
    python -m repro lint --json                   # static privacy-flow lint
    python -m repro fig 5                         # regenerate a paper figure
    python -m repro bench --smoke                 # engine scaling benchmark
    python -m repro trace deliver --report rpt_001  # span tree of one delivery
    python -m repro metrics                       # Prometheus metric dump
    python -m repro chaos --plan blackout         # deliveries under faults

Installed as a console script (``repro …``) via ``pip install -e .``.
Every subcommand documents itself: ``repro <command> --help`` shows a
description and at least one worked example.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError

ROLE_TO_USER = {
    "analyst": "ann",
    "auditor": "aldo",
    "health_director": "dora",
    "municipality_official": "mara",
}


def _scenario():
    from repro.simulation import build_scenario

    return build_scenario()


def cmd_scenario(_args: argparse.Namespace) -> int:
    scenario = _scenario()
    print("Fig 1 scenario built.")
    for provider in scenario.providers.values():
        print(f"  {provider.describe()}")
    print(f"  ETL: {scenario.flow_result.summary()}")
    print(
        f"  warehouse universe: {scenario.universe_name} "
        f"{list(scenario.wide_columns)}"
    )
    print(f"  reports: {len(scenario.workload)}; meta-reports: {len(scenario.metareports)}")
    verdicts = scenario.checker.check_catalog(scenario.report_catalog.all_current())
    compliant = sum(1 for v in verdicts.values() if v.compliant)
    print(f"  compliance: {compliant}/{len(verdicts)} deployable")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.relational import parse_query
    from repro.reports import ReportDefinition

    scenario = _scenario()
    definition = ReportDefinition(
        name=args.name,
        title=args.name,
        query=parse_query(args.sql),
        audience=frozenset(args.audience),
        purpose=args.purpose,
    )
    verdict = scenario.checker.check_report(definition)
    print(verdict.summary())
    for violation in verdict.violations:
        print(f"  violation: {violation}")
    for obligation in verdict.obligations:
        print(f"  obligation: {obligation}")
    return 0 if verdict.compliant else 1


def cmd_deliver(args: argparse.Namespace) -> int:
    from repro.errors import ComplianceError
    from repro.reports.rendering import render_text

    scenario = _scenario()
    service = scenario.delivery_service()
    report = scenario.report_catalog.current(args.report)
    role = sorted(report.audience)[0]
    try:
        instance = service.deliver(
            args.report, user=ROLE_TO_USER[role], purpose=report.purpose
        )
    except ComplianceError as exc:
        print(f"refused: {exc}")
        return 1
    print(render_text(instance))
    return 0


def cmd_audit(_args: argparse.Namespace) -> int:
    from repro.audit import Auditor

    scenario = _scenario()
    service = scenario.delivery_service()
    delivered, refusals = service.deliver_all_compliant(ROLE_TO_USER)
    print(f"delivered {len(delivered)} report(s); refused {len(refusals)}")
    audit = Auditor(
        checker=scenario.checker, reports=scenario.report_catalog
    ).audit(service.audit_log)
    print(audit.summary())
    for violation in audit.violations:
        print(f"  {violation}")
    return 0 if audit.clean else 1


def cmd_gaps(args: argparse.Namespace) -> int:
    from repro.core.gap import analyze_coverage
    from repro.workloads import generate_requirements

    scenario = _scenario()
    requirements = generate_requirements(args.n, seed=args.seed)
    report = analyze_coverage(scenario.metareports, requirements)
    print(report.summary())
    for gap in report.gaps[: args.show]:
        print(f"  {gap}")
    if len(report.gaps) > args.show:
        print(f"  ... and {len(report.gaps) - args.show} more")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        AnalysisInput,
        Severity,
        StaticAnalyzer,
        render_json,
        render_text,
    )

    if args.deployment:
        from repro.persistence import load_deployment

        deployment = load_deployment(args.deployment)
        analyzer = StaticAnalyzer(
            AnalysisInput(
                catalog=deployment.catalog,
                metareports=deployment.metareports,
                reports=deployment.reports,
            )
        )
    else:
        analyzer = StaticAnalyzer.for_scenario(_scenario())
    report = analyzer.analyze()
    print(render_json(report) if args.json else render_text(report))
    return report.exit_code(Severity[args.fail_on.upper()])


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.analysis import Severity
    from repro.verify import DeploymentVerifier, VerificationInput

    if args.deployment:
        from repro.persistence import load_deployment

        target = VerificationInput.from_deployment(
            load_deployment(args.deployment)
        )
    else:
        target = VerificationInput.from_scenario(_scenario())
    if args.incremental:
        from repro.verify import IncrementalVerifier, VerdictCache

        cache = VerdictCache.load(args.cache)
        verifier = IncrementalVerifier(
            target, replay=not args.no_replay, cache=cache
        )
        report = verifier.verify()
        cache.save(args.cache)
        # Stats go to stderr so --json stdout stays byte-identical to a
        # full run (diffable in CI gates).
        print(cache.stats(), file=sys.stderr)
    else:
        report = DeploymentVerifier(target, replay=not args.no_replay).verify()
    print(report.to_json() if args.json else report.render_text())
    return report.exit_code(Severity[args.fail_on.upper()])


def cmd_ingest(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analysis import Severity
    from repro.ingest import emit_deployment, ingest_suite

    scenario = _scenario()
    result = ingest_suite(
        args.directory, catalog=scenario.bi_catalog, dialect=args.dialect
    )
    if args.json:
        print(_json.dumps(result.to_dict(), indent=2))
    else:
        print(result.summary())
        for diagnostic in result.diagnostics.source_sorted():
            print(f"  {diagnostic}")
            if diagnostic.fix_hint:
                print(f"    fix: {diagnostic.fix_hint}")
        for statement in result.statements:
            status = "compiled" if statement.ok else "REJECTED"
            print(
                f"  {status}: {statement.kind} {statement.name or '<unnamed>'} "
                f"({statement.dialect}) at {statement.origin}"
            )
    if args.emit_catalog:
        if not result.ok:
            print(
                "error: refusing to emit a catalog from a suite with "
                "rejected statements",
                file=sys.stderr,
            )
            return 1
        path = emit_deployment(result, args.emit_catalog, scenario=scenario)
        if not args.json:
            print(f"catalog written to {path}")
    return result.diagnostics.exit_code(Severity[args.fail_on.upper()])


def _traced_workload(target: str, report: str) -> None:
    """Run one traced workload; obs must already be enabled."""
    scenario = _scenario()
    if target == "scenario":
        return
    service = scenario.delivery_service()
    if target == "deliver":
        definition = scenario.report_catalog.current(report)
        role = sorted(definition.audience)[0]
        service.deliver(report, user=ROLE_TO_USER[role], purpose=definition.purpose)
    else:  # audit
        service.deliver_all_compliant(ROLE_TO_USER)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.errors import ComplianceError

    previous = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        try:
            _traced_workload(args.target, args.report)
        except ComplianceError as exc:
            print(f"refused (trace captured anyway): {exc}", file=sys.stderr)
    finally:
        obs.TRACER.enabled = previous
    spans = list(obs.TRACER.drain())
    print(obs.render_span_tree(spans))
    if args.jsonl:
        n = obs.write_jsonl(spans, args.jsonl)
        print(f"\nwrote {n} span(s) to {args.jsonl}")
    registry = obs.get_registry()
    decisions = registry.get("repro_enforcement_decisions_total")
    if decisions is not None and decisions.samples():
        print("\nenforcement decisions (level/decision/rule):")
        for labels, value in decisions.samples():
            print(f"  {'/'.join(labels)}: {int(value)}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    import json as _json

    from repro import obs

    if args.url:
        import urllib.request

        base = args.url.rstrip("/")
        path = "" if base.endswith("/metrics") else "/metrics"
        with urllib.request.urlopen(base + path) as response:
            print(response.read().decode("utf-8"), end="")
        return 0
    previous = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        _traced_workload("audit", "rpt_001")
    finally:
        obs.TRACER.enabled = previous
    registry = obs.get_registry()
    if args.json:
        print(_json.dumps(registry.as_dict(), indent=2, sort_keys=True))
    else:
        print(obs.render_prometheus(registry), end="")
    return 0


def cmd_save(args: argparse.Namespace) -> int:
    from repro.persistence import save_deployment

    scenario = _scenario()
    root = save_deployment(
        args.directory,
        catalog=scenario.bi_catalog,
        metareports=scenario.metareports,
        plas=scenario.pla_registry,
        reports=scenario.report_catalog,
    )
    print(f"deployment saved to {root}")
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    from repro.core import ComplianceChecker
    from repro.persistence import load_deployment

    deployment = load_deployment(args.directory)
    checker = ComplianceChecker(
        catalog=deployment.catalog, metareports=deployment.metareports
    )
    verdicts = checker.check_catalog(deployment.reports.all_current())
    compliant = sum(1 for v in verdicts.values() if v.compliant)
    print(
        f"loaded {len(deployment.catalog.table_names())} table(s), "
        f"{len(deployment.metareports)} meta-report(s), "
        f"{len(deployment.reports)} report(s)"
    )
    print(f"compliance on reload: {compliant}/{len(verdicts)} deployable")
    return 0


_FIGS = {
    "1": "benchmarks.bench_fig1_scenario",
    "2": "benchmarks.bench_fig2_source_level",
    "3": "benchmarks.bench_fig3_warehouse_level",
    "4": "benchmarks.bench_fig4_report_level",
    "5": "benchmarks.bench_fig5_continuum",
}


def cmd_fig(args: argparse.Namespace) -> int:
    module = _benchmark_module(_FIGS[args.number])
    module.main()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    which = getattr(args, "which", "engine")
    if which == "obs":
        module = _benchmark_module("benchmarks.bench_obs_overhead")
        return int(module.main(smoke=args.smoke, json_path=args.json))
    if which == "resilience":
        module = _benchmark_module("benchmarks.bench_resilience")
        return int(module.main(smoke=args.smoke, json_path=args.json))
    if which == "verify":
        module = _benchmark_module("benchmarks.bench_verify")
        return int(module.main(smoke=args.smoke, json_path=args.json))
    if which == "ingest":
        module = _benchmark_module("benchmarks.bench_ingest")
        return int(module.main(smoke=args.smoke, json_path=args.json))
    if which == "service":
        module = _benchmark_module("benchmarks.bench_service")
        return int(module.main(smoke=args.smoke, json_path=args.json))
    module = _benchmark_module("benchmarks.bench_engine_scaling")
    return int(module.main(smoke=args.smoke, json_path=args.json))


def cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json

    from repro.resilience import named_plan, render_outcome_table, run_chaos

    plan = named_plan(args.plan)
    if args.seed is not None:
        plan = plan.with_seed(args.seed)
    result = run_chaos(plan, mode=args.mode)
    print(render_outcome_table(result))
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(result.as_dict(), fh, indent=2, sort_keys=True)
        print(f"\nwrote chaos result to {args.json}")
    counts = result.counts()
    return 1 if counts["unavailable"] and args.mode == "refuse" else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.service import DeliveryDaemon, ServiceState, start_http_server

    scenario = _scenario()
    state = ServiceState(scenario, factory=_scenario)
    daemon = DeliveryDaemon(
        state, workers=args.workers, queue_size=args.queue_size
    )
    if args.faults:
        from repro.service.loadgen import _fault_resilience

        daemon.state.service.resilience = _fault_resilience(args.faults)
        print(f"fault plan {args.faults!r} installed (degrade mode)")
    daemon.start()
    server = start_http_server(daemon, port=args.port)
    host, port = server.server_address[:2]
    print(f"delivery daemon serving on http://{host}:{port}")
    print(f"  {args.workers} worker(s), queue size {args.queue_size}")
    print("  endpoints: /metrics /healthz /stats  POST /deliver")
    try:
        if args.duration is not None:
            _time.sleep(args.duration)
        else:  # pragma: no cover - interactive path
            while True:
                _time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.shutdown()
        daemon.stop()
    stats = daemon.stats()
    print(
        f"stopped at epoch {stats['epoch']}: {stats['commits']} commit(s), "
        f"{stats['refusals']} refusal(s), outcomes {stats['outcomes']}"
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service import run_mix

    result = run_mix(
        args.mix,
        consumers=args.consumers,
        requests_per_consumer=args.requests,
        seed=args.seed,
        check=args.check,
        fault_plan=args.faults,
    )
    print(
        f"{result.mix}: {result.requests} request(s) from "
        f"{result.consumers} consumer(s) in {result.wall_s:.2f}s "
        f"({result.throughput_rps:.1f} req/s)"
    )
    print(
        f"  latency p50 {result.p50_ms:.1f}ms  p95 {result.p95_ms:.1f}ms  "
        f"p99 {result.p99_ms:.1f}ms"
    )
    print(f"  outcomes: {result.outcomes}  final epoch: {result.epoch}")
    failed = False
    if result.linearizability is not None:
        lin = result.linearizability
        verdict = "PASS" if lin["ok"] else "FAIL"
        print(
            f"  linearizability: {verdict} "
            f"({lin['deliveries_checked']} deliveries, "
            f"{lin['mutations_checked']} mutations, "
            f"{lin['refusals_checked']} refusals replayed)"
        )
        for violation in lin["violations"]:
            print(f"    violation: {violation}")
        failed = not lin["ok"]
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(result.as_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote load result to {args.json}")
    return 1 if failed else 0


def _benchmark_module(name: str):
    """Import a benchmark module (benchmarks/ lives outside the package)."""
    import importlib
    import pathlib
    import sys as _sys

    repo_root = pathlib.Path(__file__).resolve().parents[2]
    if str(repo_root) not in _sys.path:
        _sys.path.insert(0, str(repo_root))
    return importlib.import_module(name)


def _command(sub, name: str, help: str, example: str):
    """Register a subcommand with a consistent help/description/example."""
    return sub.add_parser(
        name,
        help=help,
        description=help[0].upper() + help[1:] + ".",
        epilog="example:\n  " + example,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Engineering Privacy Requirements in Business "
            "Intelligence Applications' (SDM/VLDB 2008)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _command(
        sub, "scenario",
        "build and summarize the Fig 1 scenario",
        "repro scenario",
    )

    check = _command(
        sub, "check",
        "compliance-check a report query against the meta-report PLAs",
        'repro check "SELECT drug, COUNT(*) AS n FROM wide_prescriptions '
        'GROUP BY drug" --audience analyst --purpose care/quality',
    )
    check.add_argument("sql", help="SQL over the warehouse/meta-report views")
    check.add_argument(
        "--name", default="adhoc_report", help="name for the ad-hoc report"
    )
    check.add_argument(
        "--audience", nargs="+", default=["analyst"],
        choices=sorted(ROLE_TO_USER), help="audience role(s) of the report",
    )
    check.add_argument(
        "--purpose", default="care/quality", help="declared processing purpose"
    )

    deliver = _command(
        sub, "deliver",
        "generate and render one report through checked, audited delivery",
        "repro deliver rpt_001",
    )
    deliver.add_argument("report", help="report name, e.g. rpt_001")

    _command(
        sub, "audit",
        "deliver all compliant reports and run the third-party auditor",
        "repro audit",
    )

    gaps = _command(
        sub, "gaps",
        "PLA coverage analysis against a generated requirement mix",
        "repro gaps --n 100 --show 10",
    )
    gaps.add_argument("--n", type=int, default=100, help="requirement count")
    gaps.add_argument("--seed", type=int, default=23, help="generator seed")
    gaps.add_argument(
        "--show", type=int, default=10, help="max gaps to print individually"
    )

    lint = _command(
        sub, "lint",
        "static privacy-flow analysis and PLA lint (no execution)",
        "repro lint --json --fail-on warning",
    )
    lint.add_argument("--json", action="store_true", help="machine-readable output")
    lint.add_argument(
        "--fail-on",
        choices=["error", "warning", "info"],
        default="error",
        help="lowest severity that makes the exit code non-zero",
    )
    lint.add_argument(
        "--deployment",
        metavar="DIR",
        default=None,
        help="lint a saved deployment instead of the built-in scenario",
    )

    verify = _command(
        sub, "verify",
        "prove the cross-level PLA ordering symbolically (no execution)",
        "repro verify --json --fail-on warning",
    )
    verify.add_argument("--json", action="store_true", help="machine-readable output")
    verify.add_argument(
        "--fail-on",
        choices=["error", "warning", "info"],
        default="error",
        help="lowest severity that makes the exit code non-zero",
    )
    verify.add_argument(
        "--deployment",
        metavar="DIR",
        default=None,
        help="verify a saved deployment instead of the built-in scenario",
    )
    verify.add_argument(
        "--no-replay", action="store_true",
        help="skip runtime replay of synthesized counterexamples",
    )
    verify.add_argument(
        "--incremental", action="store_true",
        help="re-prove only verdicts whose inputs changed (value-keyed "
        "verdict cache; output is identical to a full run)",
    )
    verify.add_argument(
        "--cache",
        metavar="PATH",
        default=".repro-verify-cache.json",
        help="verdict cache file used by --incremental "
        "(default: %(default)s)",
    )

    ingest = _command(
        sub, "ingest",
        "compile an external SQL report suite into an auditable catalog",
        "repro ingest examples/sql_suites --fail-on error --emit-catalog /tmp/dep",
    )
    ingest.add_argument("directory", help="directory of .sql suite files")
    ingest.add_argument(
        "--dialect",
        choices=["ansi", "postgres", "tsql"],
        default=None,
        help="force one dialect (default: per-file -- dialect: directive)",
    )
    ingest.add_argument("--json", action="store_true", help="machine-readable output")
    ingest.add_argument(
        "--fail-on",
        choices=["error", "warning", "info"],
        default="error",
        help="lowest severity that makes the exit code non-zero",
    )
    ingest.add_argument(
        "--emit-catalog",
        metavar="DIR",
        default=None,
        help="also save the compiled deployment (loadable by lint/verify "
        "--deployment); refused when any statement was rejected",
    )

    fig = _command(
        sub, "fig",
        "regenerate a paper figure's measured table",
        "repro fig 5",
    )
    fig.add_argument("number", choices=sorted(_FIGS), help="figure number")

    bench = _command(
        sub, "bench",
        "run a benchmark: engine scaling (default) or observability overhead",
        "repro bench --smoke --json BENCH_engine.json",
    )
    bench.add_argument(
        "which", nargs="?",
        choices=["engine", "obs", "resilience", "verify", "ingest", "service"],
        default="engine",
        help=(
            "engine: row reference vs fused vector scaling; obs: tracing "
            "overhead; resilience: fault-wrapper overhead; verify: solver "
            "throughput and whole-catalog verification wall time; ingest: "
            "SQL suite compilation scaling; service: concurrent daemon "
            "throughput/latency with linearizability gating"
        ),
    )
    bench.add_argument(
        "--smoke", action="store_true", help="tiny sizes, seconds not minutes"
    )
    bench.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write machine-readable results to PATH",
    )

    trace = _command(
        sub, "trace",
        "run one scenario workload with tracing on and print its span tree",
        "repro trace deliver --report rpt_001 --jsonl spans.jsonl",
    )
    trace.add_argument(
        "target", nargs="?", choices=["scenario", "deliver", "audit"],
        default="deliver",
        help="workload to trace: scenario build, one delivery, or a full audit",
    )
    trace.add_argument(
        "--report", default="rpt_001",
        help="report to deliver when target is 'deliver'",
    )
    trace.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="also write the spans as JSON lines to PATH",
    )

    chaos = _command(
        sub, "chaos",
        "run the delivery workload under a named fault plan and tabulate outcomes",
        "repro chaos --plan blackout --mode degrade",
    )
    chaos.add_argument(
        "--plan", default="smoke", help="named fault plan (see repro.resilience)",
    )
    chaos.add_argument(
        "--mode", choices=["refuse", "degrade"], default="degrade",
        help="fail-closed mode when a source is down",
    )
    chaos.add_argument(
        "--seed", type=int, default=None,
        help="override the plan's seed (same seed ⇒ identical outcomes)",
    )
    chaos.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the result (ChaosResult.as_dict) to PATH",
    )

    metrics = _command(
        sub, "metrics",
        "run the audit workload with metrics on and print the registry",
        "repro metrics | grep repro_enforcement_decisions_total",
    )
    metrics.add_argument(
        "--json", action="store_true",
        help="JSON snapshot instead of Prometheus text format",
    )
    metrics.add_argument(
        "--url", metavar="URL", default=None,
        help="scrape a running 'repro serve' daemon at URL instead of "
        "running a local workload (e.g. http://127.0.0.1:8472)",
    )

    serve = _command(
        sub, "serve",
        "run the concurrent delivery daemon with its HTTP face",
        "repro serve --port 8472 --workers 8 --duration 60",
    )
    serve.add_argument(
        "--port", type=int, default=8472,
        help="HTTP port on 127.0.0.1 (0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--workers", type=int, default=4, help="delivery worker threads"
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded job queue size (overflow is shed with a 503)",
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="seconds to serve before exiting (default: until interrupted)",
    )
    serve.add_argument(
        "--faults", metavar="PLAN", default=None,
        help="install a named fault plan on the live daemon (degrade mode)",
    )

    loadgen = _command(
        sub, "loadgen",
        "drive a fresh daemon with N concurrent consumers and report latency",
        "repro loadgen --mix read_heavy --consumers 32 --check",
    )
    loadgen.add_argument(
        "--mix", choices=["read_heavy", "mutation_heavy"], default="read_heavy",
        help="request mix: mutation probability 3%% vs 30%%",
    )
    loadgen.add_argument(
        "--consumers", type=int, default=32, help="concurrent consumer threads"
    )
    loadgen.add_argument(
        "--requests", type=int, default=12, help="requests per consumer"
    )
    loadgen.add_argument(
        "--seed", type=int, default=11, help="schedule seed (same seed, same ops)"
    )
    loadgen.add_argument(
        "--check", action="store_true",
        help="replay the commit log serially and fail on any divergence",
    )
    loadgen.add_argument(
        "--faults", metavar="PLAN", default=None,
        help="run under a named fault plan (mutually exclusive with --check)",
    )
    loadgen.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the LoadResult to PATH",
    )

    save = _command(
        sub, "save",
        "persist the deployment (catalog, PLAs, reports) to a directory",
        "repro save /tmp/deployment",
    )
    save.add_argument("directory", help="target directory (created if missing)")

    load = _command(
        sub, "load",
        "load a saved deployment and re-check its compliance",
        "repro load /tmp/deployment",
    )
    load.add_argument("directory", help="directory written by 'repro save'")

    return parser


def subcommand_help(parser: argparse.ArgumentParser) -> dict[str, tuple[str, str]]:
    """``{command: (help, description)}`` for every registered subcommand.

    Used by the CLI tests to enforce that every subcommand stays documented.
    """
    out: dict[str, tuple[str, str]] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: (a.help or "") for a in action._choices_actions}
            for name, subparser in action.choices.items():
                out[name] = (helps.get(name, ""), subparser.description or "")
    return out


_HANDLERS = {
    "scenario": cmd_scenario,
    "check": cmd_check,
    "deliver": cmd_deliver,
    "audit": cmd_audit,
    "gaps": cmd_gaps,
    "lint": cmd_lint,
    "verify": cmd_verify,
    "ingest": cmd_ingest,
    "fig": cmd_fig,
    "bench": cmd_bench,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "chaos": cmd_chaos,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
    "save": cmd_save,
    "load": cmd_load,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
