"""Command-line interface: run queries, compare systems, demo a cluster.

Examples::

    python -m repro run "SELECT AVG(value) FROM stream WINDOW TUMBLING 5s" \
        --events 50000 --rate 2000

    python -m repro compare --queries 100 --events 100000

    python -m repro cluster --locals 4 --events 20000 --function median \
        --trace --trace-out trace.jsonl --metrics-out metrics.json

    python -m repro report --locals 4 --events 20000 --drop-rate 0.01

    python -m repro conformance --seed 7 --runs 25 --out conformance-out
"""

from __future__ import annotations

import argparse
import difflib
import sys

from repro.baselines import CENTRALIZED_SYSTEMS, ShardedDesisProcessor
from repro.cluster import CentralizedCluster, ClusterConfig, DesisCluster
from repro.core.config import EngineConfig
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.datagen import DataGenerator, DataGeneratorConfig
from repro.harness import (
    fmt_rate,
    print_table,
    quantile_queries,
    run_processor,
    tumbling_queries,
)
from repro.interface import DesisSession
from repro.metrics import breakdown, fmt_bytes
from repro.network.simnet import CrashWindow, FaultPlan
from repro.network.topology import three_tier
from repro.obs import (
    STAGES,
    MetricsRegistry,
    TraceRecorder,
    build_window_traces,
    compute_critical_path,
    compute_critical_paths,
    configure_logging,
    publish_cluster_result,
    publish_engine_stats,
    publish_shard_stats,
    publish_span_metrics,
    render_report,
    render_waterfall,
    top_slowest,
    write_chrome_trace,
    write_metrics,
    write_spans_jsonl,
    write_trace_jsonl,
)


def _events(args, n_keys: int = 4):
    config = DataGeneratorConfig(
        keys=tuple(f"k{i}" for i in range(n_keys)),
        rate=args.rate,
        gap_every_ms=getattr(args, "gap_every", None),
        marker=getattr(args, "marker", None),
    )
    return DataGenerator(config, seed=args.seed)


def _engine_config(args, **extra) -> EngineConfig:
    """Resolve the shared engine flag; ``None`` means the engine default."""
    return EngineConfig(shards=args.shards or 1, **extra)


def cmd_run(args) -> int:
    trace = bool(args.trace or args.trace_out)
    if trace and (args.shards or 1) > 1:
        raise SystemExit(
            "repro run: --trace is not supported with --shards > 1 "
            "(trace recording is single-process)"
        )
    recorder = TraceRecorder() if trace else None
    session = DesisSession(
        config=_engine_config(
            args,
            measure_latency=args.measure_latency,
            latency_expiry_horizon_ms=(
                args.latency_expiry_ms if args.latency_expiry_ms > 0 else None
            ),
        ),
        recorder=recorder,
    )
    for text in args.query:
        session.submit(text)
    session.process_many(_events(args).events(args.events))
    results = session.close()
    print(
        f"{args.events} events -> {len(results)} window results; "
        f"{session.stats.calculations / max(session.stats.events, 1):.2f} "
        f"operator executions/event; "
        f"{session._engine.group_count} query-group(s)"
    )
    shown = 0
    for result in results:
        print(f"  {result}")
        shown += 1
        if shown >= args.limit:
            remaining = len(results) - shown
            if remaining:
                print(f"  ... {remaining} more")
            break
    if args.measure_latency:
        summary = session.latency_summary()
        print(
            f"latency: n={summary.count} mean={summary.mean * 1e3:.3f}ms "
            f"p50={summary.p50 * 1e3:.3f}ms p99={summary.p99 * 1e3:.3f}ms "
            f"expired={summary.expired_samples}"
        )
    shard_stats = session.shard_stats
    if shard_stats is not None:
        print(
            f"shards: {shard_stats.shards} workers, per-shard events "
            f"{shard_stats.events}, {shard_stats.reduce_merge_ops} reduce "
            f"merge op(s) over {shard_stats.windows_reduced} window(s)"
        )
    if recorder is not None:
        print(f"trace: {len(recorder)} events recorded")
        if args.trace_out:
            written = write_trace_jsonl(recorder, args.trace_out)
            print(f"trace: {written} events -> {args.trace_out}")
    if args.metrics_out:
        registry = MetricsRegistry()
        publish_engine_stats(registry, session.stats)
        if shard_stats is not None:
            publish_shard_stats(registry, shard_stats)
        write_metrics(registry, args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    return 0


def cmd_compare(args) -> int:
    events = list(_events(args).events(args.events))
    if args.workload == "tumbling":
        queries = tumbling_queries(args.queries)
    else:
        queries = quantile_queries(args.queries)
    rows = []
    measured: list[tuple[str, object]] = []
    for name, factory in CENTRALIZED_SYSTEMS.items():
        if name in ("CeBuffer", "DeBucket") and args.queries > 200:
            rows.append([name, "-", "-"])
            continue
        stats = run_processor(factory, queries, events)
        measured.append((name, stats))
        rows.append(
            [name, fmt_rate(stats.events_per_second), f"{stats.calculations:,}"]
        )
    if (args.shards or 1) > 1:
        shards = args.shards
        stats = run_processor(
            lambda q, sink=None: ShardedDesisProcessor(q, sink=sink, shards=shards),
            queries,
            events,
        )
        measured.append((f"Desis x{shards}", stats))
        rows.append(
            [
                f"Desis x{shards}",
                fmt_rate(stats.events_per_second),
                f"{stats.calculations:,}",
            ]
        )
    print_table(
        f"{args.queries} {args.workload} queries over {args.events} events",
        ["system", "throughput", "operator executions"],
        rows,
    )
    if args.metrics_out:
        registry = MetricsRegistry()
        for name, stats in measured:
            registry.gauge("compare.events_per_s", system=name).set(
                stats.events_per_second
            )
            registry.counter("compare.calculations", system=name).inc(
                stats.calculations
            )
        write_metrics(registry, args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    return 0


def cmd_cluster(args) -> int:
    fn = AggFunction(args.function)
    queries = [Query.of("q", WindowSpec.tumbling(args.window_ms), fn)]
    topology = three_tier(args.locals, 1)
    streams = _events(args).streams(args.locals, args.events)
    trace = bool(args.trace or args.trace_out)
    config = ClusterConfig(
        tick_interval=1_000, trace=trace, engine=_engine_config(args)
    )
    desis = DesisCluster(queries, topology, config=config).run(
        {k: list(v) for k, v in streams.items()}
    )
    from repro.baselines import ScottyProcessor

    central = CentralizedCluster(
        queries, topology, ScottyProcessor, config=config
    ).run({k: list(v) for k, v in streams.items()})
    print_table(
        f"{args.locals} local nodes, {fn.value} over {args.window_ms}ms windows",
        ["deployment", "results", "network data", "modeled throughput"],
        [
            [
                "Desis (decentralized)",
                len(desis.sink),
                fmt_bytes(breakdown(desis.network).data_bytes),
                fmt_rate(desis.modeled_parallel_throughput),
            ],
            [
                "Scotty (centralized)",
                len(central.sink),
                fmt_bytes(breakdown(central.network).data_bytes),
                fmt_rate(central.modeled_parallel_throughput),
            ],
        ],
    )
    if trace:
        print(f"trace: {len(desis.recorder)} events recorded")
        if args.trace_out:
            written = write_trace_jsonl(desis.recorder, args.trace_out)
            print(f"trace: {written} events -> {args.trace_out}")
    if args.metrics_out:
        registry = MetricsRegistry()
        publish_cluster_result(registry, desis)
        write_metrics(registry, args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    return 0


def _parse_crash(spec: str) -> CrashWindow:
    """``node:start:end`` (state-losing restart) or ``node:start``
    (permanent death, failed over to the parent)."""
    parts = spec.split(":")
    if len(parts) == 2:
        return CrashWindow(parts[0], int(parts[1]), None)
    if len(parts) == 3:
        return CrashWindow(parts[0], int(parts[1]), int(parts[2]),
                           lose_state=True)
    raise SystemExit(f"bad --crash spec {spec!r}: want node:start[:end]")


def _run_traced_desis(args):
    """One traced Desis run from the shared report/profile flag set."""
    fn = AggFunction(args.function)
    queries = [Query.of("q", WindowSpec.tumbling(args.window_ms), fn)]
    topology = three_tier(args.locals, 1)
    streams = _events(args).streams(args.locals, args.events)
    crashes = tuple(_parse_crash(spec) for spec in args.crash or ())
    fault_plan = (
        FaultPlan(seed=args.seed, drop_rate=args.drop_rate, crashes=crashes)
        if args.drop_rate or crashes
        else None
    )
    config = ClusterConfig(
        tick_interval=1_000,
        trace=True,
        engine=_engine_config(args),
        fault_plan=fault_plan,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_dir=args.checkpoint_dir,
        node_timeout=args.node_timeout,
        # heartbeats must outpace the timeout for the sweep to see silence
        heartbeat_interval=max(1, min(5_000, args.node_timeout // 3)),
        latency_ms=args.link_latency,
        bandwidth_bytes_per_ms=args.bandwidth,
        channel_credit_bytes=args.channel_credit_bytes,
        channel_credit_frames=args.channel_credit_frames,
        staging_limit=args.staging_limit,
        retention_limit=args.retention_limit,
        stall_timeout=args.stall_timeout,
    )
    return DesisCluster(queries, topology, config=config).run(
        {k: list(v) for k, v in streams.items()}
    )


def cmd_report(args) -> int:
    """Run a Desis deployment and render its full observability report."""
    result = _run_traced_desis(args)
    registry = MetricsRegistry()
    publish_cluster_result(registry, result)
    print(render_report(
        registry,
        f"Desis run report: {args.locals} locals, {args.events} events/local",
    ))
    print(f"\ntrace: {len(result.recorder)} events recorded")
    if args.explain and len(result.sink):
        provenance = result.recorder.explain_window(result.sink.results[-1])
        print("last window provenance:")
        print(
            f"  {provenance.query_id}[{provenance.start}.."
            f"{provenance.end}) emitted_at={provenance.emitted_at} "
            f"events={provenance.event_count}"
        )
        print(f"  sources: {', '.join(provenance.sources) or '-'}")
        print(f"  slices: {len(provenance.slices)}  hops: {len(provenance.hops)}")
        for hop in provenance.hops:
            print(f"    t={hop.at} {hop.kind} @ {hop.node}")
        print(f"  retransmits before emit: {provenance.total_retransmits}")
        if provenance.completeness < 1.0 or provenance.sheds:
            print(
                f"  DEGRADED: completeness={provenance.completeness:.3f} "
                f"({len(provenance.sheds)} shed event(s) intersect)"
            )
            for shed in provenance.sheds:
                print(
                    f"    t={shed.at} buffer.shed @ {shed.node} "
                    f"[{shed.data.get('start')}..{shed.data.get('end')}) "
                    f"{shed.data.get('records', 0)} record(s)"
                )
        path = compute_critical_path(
            result.recorder, result.sink.results[-1]
        )
        print("critical path:")
        for line in render_waterfall(path).splitlines():
            print(f"  {line}")
    if args.trace_out:
        written = write_trace_jsonl(result.recorder, args.trace_out)
        print(f"trace: {written} events -> {args.trace_out}")
    if args.metrics_out:
        write_metrics(registry, args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    return 0


def cmd_profile(args) -> int:
    """Profile a Desis run: top-N slowest windows, stage attribution."""
    result = _run_traced_desis(args)
    results = list(result.sink.results)
    paths = compute_critical_paths(result.recorder, results)
    print(
        f"{len(results)} windows emitted; "
        f"{len(paths)} explainable from the trace ring"
    )
    if result.recorder.dropped:
        print(
            f"warning: {result.recorder.dropped} trace events evicted — "
            "the oldest windows have no spans"
        )
    for rank, path in enumerate(top_slowest(result.recorder, results, args.top), 1):
        print(f"\n#{rank} {render_waterfall(path)}")
    totals: dict[str, int] = {}
    for path in paths:
        for stage, ms in path.stage_totals().items():
            totals[stage] = totals.get(stage, 0) + ms
    grand = sum(totals.values())
    if grand:
        print("\nstage totals across explainable windows:")
        for stage in STAGES:
            ms = totals.get(stage, 0)
            if ms:
                print(
                    f"  {stage:<14} {ms:>10} ms  {100.0 * ms / grand:5.1f}%"
                )
    if args.chrome_out or args.spans_out:
        traces = build_window_traces(result.recorder, results)
        if args.chrome_out:
            write_chrome_trace(traces, args.chrome_out)
            print(
                f"chrome trace -> {args.chrome_out} "
                "(open in Perfetto or chrome://tracing)"
            )
        if args.spans_out:
            written = write_spans_jsonl(traces, args.spans_out)
            print(f"spans: {written} window traces -> {args.spans_out}")
    if args.metrics_out:
        registry = MetricsRegistry()
        publish_cluster_result(registry, result)
        publish_span_metrics(registry, paths)
        write_metrics(registry, args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    return 0


def cmd_conformance(args) -> int:
    """Run the differential-fuzzing campaign and print its summary."""
    from repro.conformance import (
        publish_conformance_counters,  # noqa: F401  (re-export sanity)
        render_conformance_summary,
        run_conformance,
    )

    # non-None shared engine flags pin the scenario knobs campaign-wide;
    # left at None the generator's own draws stand
    overrides = {}
    if args.shards:
        overrides["shards"] = args.shards
    registry = MetricsRegistry()
    report = run_conformance(
        seed=args.seed,
        runs=args.runs,
        out=args.out,
        shrink=not args.no_shrink,
        metamorphic=not args.no_metamorphic,
        max_events_per_node=args.max_events,
        registry=registry,
        overrides=overrides or None,
    )
    print(render_conformance_summary(report))
    if args.out:
        print(f"report -> {args.out}/report.json")
    if args.metrics_out:
        write_metrics(registry, args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    return 0 if report["ok"] else 1


#: one-line description per subcommand, shared by --help and the
#: unknown-subcommand hint
COMMANDS: dict[str, str] = {
    "run": "execute textual queries on the single-node engine",
    "compare": "compare all centralized systems on one workload",
    "cluster": "run decentralized (Desis) vs centralized deployments",
    "report": "run Desis and print the observability report",
    "profile": "run Desis and attribute per-window latency to stages",
    "conformance": "differential fuzzing across engines, clusters, and faults",
}


class _Parser(argparse.ArgumentParser):
    """Argparse with a friendlier unknown-subcommand error.

    ``repro bogus`` exits 2 with the list of valid subcommands and a
    did-you-mean hint instead of argparse's bare invalid-choice message.
    """

    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        if "invalid choice" in message and self.prog == "repro":
            bad = message.split("invalid choice: ", 1)[1].split("'")[1]
            lines = [f"repro: error: unknown command {bad!r}"]
            close = difflib.get_close_matches(bad, COMMANDS, n=1)
            if close:
                lines.append(f"hint: did you mean {close[0]!r}?")
            lines.append("valid commands:")
            lines.extend(
                f"  {name:<12} {blurb}" for name, blurb in COMMANDS.items()
            )
            self.exit(2, "\n".join(lines) + "\n")
        super().error(message)


#: the flag set every verb shares, pinned by tests/test_cli.py
SHARED_FLAGS = ("--seed", "--metrics-out", "--shards")


def _common_parent() -> argparse.ArgumentParser:
    """Flags every verb takes: campaign seed and metrics export."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=0,
                        help="workload / campaign seed (same seed -> same "
                             "events, same report)")
    parent.add_argument("--metrics-out", default=None, dest="metrics_out",
                        metavar="PATH",
                        help="write run metrics (.json, or .prom/.txt for "
                             "Prometheus text)")
    return parent


def _engine_parent() -> argparse.ArgumentParser:
    """The shared engine knob — registered once, inherited by every verb.

    It defaults to ``None`` (= the engine's own default), so each handler
    can tell \"user asked for X\" from \"user said nothing\" —
    conformance, for instance, only pins a scenario knob when the flag
    was actually given.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--shards", type=int, default=None, metavar="N",
                        help="partition the stream by key hash across N "
                             "worker processes with a deterministic reduce "
                             "at window close (DESIGN.md §13); fixed-size "
                             "time windows only; simulated cluster verbs "
                             "record it on ClusterConfig.engine without "
                             "forking (their parallelism is modeled "
                             "analytically)")
    return parent


def _trace_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--trace", action="store_true",
                        help="record slice-lifecycle traces")
    parent.add_argument("--trace-out", default=None, dest="trace_out",
                        metavar="PATH", help="write the trace as JSON-lines")
    return parent


def _deployment_parent() -> argparse.ArgumentParser:
    """The traced-deployment knobs behind cluster, report, and profile."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--locals", type=int, default=4)
    parent.add_argument("--events", type=int, default=20_000,
                        help="events per local node")
    parent.add_argument("--rate", type=float, default=10_000.0)
    parent.add_argument("--function", default="average",
                        choices=[fn.value for fn in AggFunction
                                 if fn is not AggFunction.QUANTILE])
    parent.add_argument("--window-ms", type=int, default=1_000)
    return parent


def _fault_parent() -> argparse.ArgumentParser:
    """Fault-injection / overload knobs shared by report and profile."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--drop-rate", type=float, default=0.0,
                        dest="drop_rate",
                        help="run under a seeded fault plan with this "
                             "per-link drop probability")
    parent.add_argument("--crash", action="append",
                        metavar="NODE:START[:END]",
                        help="inject a crash window (sim ms); with END the "
                             "node loses state and restarts from its latest "
                             "checkpoint, without END it dies permanently "
                             "and its children fail over (repeatable)")
    parent.add_argument("--checkpoint-interval", type=int, default=None,
                        dest="checkpoint_interval", metavar="MS",
                        help="persist intermediate/root state snapshots at "
                             "this sim-time cadence (default: off)")
    parent.add_argument("--checkpoint-dir", default=None,
                        dest="checkpoint_dir", metavar="DIR",
                        help="write checkpoints as on-disk .ckpt files "
                             "instead of the in-memory store")
    parent.add_argument("--node-timeout", type=int, default=15_000,
                        dest="node_timeout", metavar="MS",
                        help="heartbeat silence before a parent declares a "
                             "child dead (drives failover of permanent "
                             "--crash windows)")
    parent.add_argument("--link-latency", type=float, default=1.0,
                        dest="link_latency", metavar="MS",
                        help="per-link one-way latency (default: 1)")
    parent.add_argument("--bandwidth", type=float, default=None,
                        metavar="BYTES_PER_MS",
                        help="per-link bandwidth cap; unset = unlimited "
                             "(~131 models the paper's 1G Ethernet)")
    parent.add_argument("--channel-credit-bytes", type=int, default=None,
                        dest="channel_credit_bytes", metavar="N",
                        help="per-channel credit window in unacked bytes; "
                             "exhausted credit stalls the sender "
                             "(DESIGN.md §12)")
    parent.add_argument("--channel-credit-frames", type=int, default=None,
                        dest="channel_credit_frames", metavar="N",
                        help="per-channel credit window in unacked frames")
    parent.add_argument("--staging-limit", type=int, default=None,
                        dest="staging_limit", metavar="RECORDS",
                        help="per-group staging cap; beyond it the oldest "
                             "whole slices are shed and affected windows "
                             "emit degraded with completeness < 1.0")
    parent.add_argument("--retention-limit", type=int, default=None,
                        dest="retention_limit", metavar="BATCHES",
                        help="cap on re-ship retention batches kept for "
                             "crash recovery")
    parent.add_argument("--stall-timeout", type=int, default=None,
                        dest="stall_timeout", metavar="MS",
                        help="credit-stall duration before a parent "
                             "soft-evicts a slow consumer (default: "
                             "--node-timeout)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Desis reproduction: multi-query window aggregation",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning"),
        default=None,
        help="enable structured logging at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parent()
    engine = _engine_parent()
    trace = _trace_parent()
    deployment = _deployment_parent()
    fault = _fault_parent()

    run_cmd = sub.add_parser("run", help=COMMANDS["run"],
                             parents=[common, engine, trace])
    run_cmd.add_argument("query", nargs="+", help="query strings")
    run_cmd.add_argument("--events", type=int, default=50_000)
    run_cmd.add_argument("--rate", type=float, default=2_000.0)
    run_cmd.add_argument("--limit", type=int, default=10,
                         help="max results to print")
    run_cmd.add_argument("--gap-every", type=int, default=None, dest="gap_every")
    run_cmd.add_argument("--marker", default=None)
    run_cmd.add_argument("--measure-latency", action="store_true",
                         dest="measure_latency",
                         help="sample wall-clock event-to-result latency "
                              "through a LatencyProbe")
    run_cmd.add_argument("--latency-expiry-ms", type=int, default=600_000,
                         dest="latency_expiry_ms", metavar="MS",
                         help="event-time horizon after which an unmatched "
                              "latency sample is evicted and counted as "
                              "expired (default: 600000; <= 0 keeps every "
                              "sample forever — unbounded memory)")
    run_cmd.set_defaults(handler=cmd_run)

    compare = sub.add_parser("compare", help=COMMANDS["compare"],
                             parents=[common, engine])
    compare.add_argument("--queries", type=int, default=100)
    compare.add_argument("--events", type=int, default=100_000)
    compare.add_argument("--rate", type=float, default=50_000.0)
    compare.add_argument(
        "--workload", choices=("tumbling", "quantiles"), default="tumbling"
    )
    compare.set_defaults(handler=cmd_compare)

    cluster = sub.add_parser("cluster", help=COMMANDS["cluster"],
                             parents=[common, engine, trace, deployment])
    cluster.set_defaults(handler=cmd_cluster)

    report = sub.add_parser("report", help=COMMANDS["report"],
                            parents=[common, engine, deployment, fault])
    report.add_argument("--explain", action="store_true",
                        help="print the last window's slice provenance and "
                             "critical-path waterfall")
    report.add_argument("--trace-out", default=None, dest="trace_out",
                        metavar="PATH")
    report.set_defaults(handler=cmd_report)

    profile = sub.add_parser("profile", help=COMMANDS["profile"],
                             parents=[common, engine, deployment, fault])
    profile.add_argument("--top", type=int, default=5,
                         help="how many slowest windows to waterfall "
                              "(default: 5)")
    profile.add_argument("--chrome-out", default=None, dest="chrome_out",
                         metavar="PATH",
                         help="write the span trees as a Chrome-trace / "
                              "Perfetto JSON document")
    profile.add_argument("--spans-out", default=None, dest="spans_out",
                         metavar="PATH",
                         help="write the span trees as JSON-lines (one "
                              "window trace per line)")
    profile.set_defaults(handler=cmd_profile)

    conformance = sub.add_parser("conformance", help=COMMANDS["conformance"],
                                 parents=[common, engine])
    conformance.add_argument("--runs", type=int, default=10,
                             help="number of generated scenarios")
    conformance.add_argument("--out", default=None, metavar="DIR",
                             help="write report.json plus a minimized "
                                  "repro-<digest>.py/.json per failure")
    conformance.add_argument("--no-shrink", action="store_true",
                             dest="no_shrink",
                             help="report failures without delta-debugging "
                                  "them to a minimal repro")
    conformance.add_argument("--no-metamorphic", action="store_true",
                             dest="no_metamorphic",
                             help="skip the metamorphic relations (reshard, "
                                  "duplicate-query, goodput)")
    conformance.add_argument("--max-events", type=int, default=160,
                             dest="max_events", metavar="N",
                             help="cap on generated events per node")
    conformance.set_defaults(handler=cmd_conformance)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.log_level:
        configure_logging(args.log_level.upper())
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
