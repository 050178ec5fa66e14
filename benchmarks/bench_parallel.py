"""Sharded-backend benchmark: parity, stage times, and the row-shipping count.

Replays the evaluation's default stream (Sec 6.2.1's 100-query
tumbling/avg mix) through :class:`~repro.parallel.ShardedEngine` at 1, 2,
and 4 shards, and through the in-process ``DesisProcessor`` as the parity
reference.  Every sharded run must reproduce the reference windows —
byte-identical ``(query_id, start, end, event_count, emitted_at)`` and
values within 1e-9 relative (the average is a float fold recombined in
shard order) — with ``shards=1`` additionally byte-identical in value.

The report carries what was **measured**: wall-clock (``wall_s``), the
parent's CPU time routing and encoding frames (``parent_s``), the
busiest worker's CPU time (``busiest_worker_s``, ``time.process_time_ns``
inside the worker) and the reduce (``reduce_s``).  None of these is
gated — a single replay on a shared runner is too noisy, and the
wall-clock comparison against the in-process engine lives in
``benchmarks/e2e`` (``sharded_tumbling``).  What ``bench_check`` gates is
deterministic: the result and reduce counters, and ``rows_shipped ==
events`` — each row crosses exactly one pipe, where a broadcast would
ship ``shards x events``.

Run standalone to (re)generate ``BENCH_parallel.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_parallel.py

``--quick`` runs a small parity-checked sweep without touching the
committed report (the tier-1 CI smoke); ``tests/test_bench_smoke.py``
drives the same harness at tiny scale.
"""

from __future__ import annotations

import json
import sys
import time as _time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # standalone execution
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.baselines.engines import DesisProcessor  # noqa: E402
from repro.core.config import EngineConfig  # noqa: E402
from repro.datagen import DataGenerator, DataGeneratorConfig  # noqa: E402
from repro.harness import tumbling_queries  # noqa: E402
from repro.parallel import ShardedEngine  # noqa: E402

DEFAULT_EVENTS = 200_000
DEFAULT_QUERIES = 100
SHARD_COUNTS = (1, 2, 4)
OUTPUT_NAME = "BENCH_parallel.json"
REL_TOL = 1e-9


def _stream(n: int, *, keys: int = 10, rate: float = 50_000.0, seed: int = 1):
    config = DataGeneratorConfig(
        keys=tuple(f"k{i}" for i in range(keys)), rate=rate
    )
    return list(DataGenerator(config, seed=seed).events(n))


def _rows(sink) -> list[tuple]:
    rows = [
        (r.query_id, r.start, r.end, r.event_count, r.emitted_at, r.value)
        for r in sink.results
    ]
    rows.sort(key=lambda row: row[:5])
    return rows


def _assert_parity(label: str, reference: list[tuple], rows: list[tuple],
                   *, exact: bool) -> None:
    if len(reference) != len(rows):
        raise AssertionError(
            f"{label}: {len(rows)} windows, reference has {len(reference)}"
        )
    for ref, got in zip(reference, rows):
        if ref[:5] != got[:5]:
            raise AssertionError(f"{label}: window {got[:5]} != {ref[:5]}")
        rv, gv = ref[5], got[5]
        if exact or not isinstance(rv, float):
            if rv != gv:
                raise AssertionError(
                    f"{label}: value {gv!r} != reference {rv!r} for {ref[:3]}"
                )
        elif abs(gv - rv) > REL_TOL * max(abs(rv), abs(gv), 1e-300):
            raise AssertionError(
                f"{label}: value {gv!r} deviates from {rv!r} beyond "
                f"{REL_TOL} relative for {ref[:3]}"
            )


def _run_sharded(queries, events, shards: int):
    engine = ShardedEngine(queries, config=EngineConfig(shards=shards))
    started = _time.perf_counter()
    engine.process_batch(events)
    sink = engine.close()
    wall_s = _time.perf_counter() - started
    return engine, sink, wall_s


def run(
    n_events: int = DEFAULT_EVENTS,
    *,
    n_queries: int = DEFAULT_QUERIES,
    shard_counts: tuple[int, ...] = SHARD_COUNTS,
) -> dict:
    """Run the sweep; return the report dict written to JSON."""
    events = _stream(n_events)
    queries = tumbling_queries(n_queries)

    reference_engine = DesisProcessor(queries)
    reference_engine.process_batch(events)
    reference = _rows(reference_engine.close())

    report: dict = {
        "benchmark": "parallel_sharded",
        "events": n_events,
        "queries": n_queries,
        "workload": "tumbling_avg",
        "windows": len(reference),
        "shards": {},
    }
    for shards in shard_counts:
        engine, sink, wall_s = _run_sharded(queries, events, shards)
        _assert_parity(f"shards={shards}", reference, _rows(sink),
                       exact=(shards == 1))
        ss = engine.shard_stats
        if sum(ss.rows_shipped) != n_events:
            raise AssertionError(
                f"shards={shards}: {sum(ss.rows_shipped)} rows shipped for "
                f"{n_events} events"
            )
        report["shards"][str(shards)] = {
            "wall_s": round(wall_s, 4),
            "wall_events_per_s": round(n_events / wall_s),
            "parent_s": round(ss.parent_ns / 1e9, 4),
            "busiest_worker_s": round(max(ss.busy_ns) / 1e9, 4),
            "reduce_s": round(ss.reduce_ns / 1e9, 4),
            # deterministic counters: same events, same crc32 routing,
            # same window schedule on every machine
            "rows_shipped": sum(ss.rows_shipped),
            "results": engine.stats.results,
            "events_per_shard": list(ss.events),
            "reduce_merge_ops": ss.reduce_merge_ops,
            "windows_reduced": ss.windows_reduced,
        }
    return report


def main(argv: list[str] | None = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("events", nargs="?", type=int, default=DEFAULT_EVENTS)
    parser.add_argument("--quick", action="store_true",
                        help="small parity-checked sweep (CI smoke); does "
                             "not rewrite the committed report")
    parser.add_argument("--metrics-out", default=None, dest="metrics_out",
                        metavar="PATH",
                        help="also write shard.* registry metrics for the "
                             "widest sweep point (.json, or .prom/.txt for "
                             "Prometheus text)")
    args = parser.parse_args(argv)
    if args.quick:
        report = run(min(args.events, 20_000), shard_counts=(1, 2))
    else:
        report = run(args.events)
    for shards, row in report["shards"].items():
        print(
            f"shards={shards}: wall {row['wall_events_per_s']:>9,} ev/s"
            f"  parent {row['parent_s']}s, busiest worker "
            f"{row['busiest_worker_s']}s, reduce {row['reduce_s']}s"
            f"  rows shipped {row['rows_shipped']:,}"
        )
    if args.quick:
        print("quick mode: parity checked, report not written")
    else:
        out = REPO_ROOT / OUTPUT_NAME
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    if args.metrics_out:
        from repro.obs import MetricsRegistry, publish_shard_stats, write_metrics

        widest = max(int(s) for s in report["shards"])
        queries = tumbling_queries(report["queries"])
        engine, _, _ = _run_sharded(
            queries, _stream(report["events"]), widest
        )
        registry = MetricsRegistry()
        publish_shard_stats(registry, engine.shard_stats)
        write_metrics(registry, args.metrics_out,
                      benchmark=report["benchmark"], events=report["events"])
        print(f"metrics -> {args.metrics_out}")


if __name__ == "__main__":
    main()
