"""Tiny-scale run of the hot-path micro-benchmark.

Keeps CI honest about the batched ingestion fast path: the benchmark
itself asserts result/stats parity between the per-event and batched
replays, so breaking either path (or their equivalence) fails here long
before anyone reads ``BENCH_hot_path.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_faults  # noqa: E402
import bench_hot_path  # noqa: E402
import bench_overload  # noqa: E402
import bench_parallel  # noqa: E402
import bench_recovery  # noqa: E402
import bench_sliding_overlap  # noqa: E402


def test_bench_hot_path_tiny_scale():
    report = bench_hot_path.run(2_000, repeats=1)
    assert report["events"] == 2_000
    workloads = report["workloads"]
    assert set(workloads) == {"single_query", "100_queries"}
    for row in workloads.values():
        assert row["per_event_events_per_s"] > 0
        assert row["batched_events_per_s"] > 0
        # No speed assertion at this scale — parity is checked inside
        # ``run`` and is what this smoke test is really for.


def test_bench_hot_path_report_shape():
    row_keys = {
        "queries",
        "per_event_s",
        "batched_s",
        "per_event_events_per_s",
        "batched_events_per_s",
        "speedup",
    }
    report = bench_hot_path.run(1_000, repeats=1)
    for row in report["workloads"].values():
        assert set(row) == row_keys


def test_bench_faults_tiny_scale():
    # Parity against the fault-free run is asserted inside ``run`` for
    # every drop rate; this exercises it plus the report shape.
    report = bench_faults.run(3_000)
    assert set(report["rates"]) == {"0%", "1%", "5%"}
    zero = report["rates"]["0%"]
    assert zero["retransmits"] == 0
    assert zero["drops"] == 0
    for row in report["rates"].values():
        assert row["events_per_s"] > 0
        assert row["results"] == zero["results"]
        assert row["total_bytes"] >= zero["total_bytes"]


def test_bench_sliding_overlap_tiny_scale():
    # Exact-vs-incremental window parity is asserted inside ``run`` for
    # every overlap, as is the tumbling both-modes-identical merge-op
    # guard; the >= 5x reduction bar only applies at full scale.
    report = bench_sliding_overlap.run(2_000, repeats=1)
    assert report["events"] == 2_000
    assert set(report["overlaps"]) == {"1", "8", "64"}
    tumbling = report["overlaps"]["1"]
    assert tumbling["exact"]["merge_ops"] == tumbling["incremental"]["merge_ops"]
    for overlap, row in report["overlaps"].items():
        assert set(row) == {
            "exact", "incremental", "merge_op_reduction",
            "windows_per_s_speedup",
        }
        for mode in ("exact", "incremental"):
            assert row[mode]["windows_per_s"] > 0
            assert row[mode]["windows_closed"] > 0
        if overlap != "1":
            assert row["merge_op_reduction"] >= 1.0


def test_bench_overload_quick_scale():
    # Shed accounting (completeness recomputed from shed_slices), the
    # staging cap, and the no-shed unbounded baseline are all asserted
    # inside ``run``; this pins the report shape on top.
    report = bench_overload.run(bench_overload.QUICK_EVENTS)
    assert report["caps"]["staging_limit"] == bench_overload.STAGING_LIMIT
    assert len(report["scales"]) == 2
    for row in report["scales"].values():
        assert set(row) == {"unbounded", "bounded"}
        unbounded, bounded = row["unbounded"], row["bounded"]
        assert unbounded["slices_shed"] == 0
        assert unbounded["degraded_windows"] == 0
        assert unbounded["min_completeness"] == 1.0
        assert bounded["peak_staging"] <= bench_overload.STAGING_LIMIT
        assert bounded["peak_unacked_bytes"] <= unbounded["peak_unacked_bytes"]
        for mode in ("unbounded", "bounded"):
            assert row[mode]["results"] > 0
            assert row[mode]["wall_s"] > 0


def test_bench_parallel_tiny_scale():
    # Window parity against the in-process reference is asserted inside
    # ``run`` for every shard count (byte-identical at shards=1, 1e-9
    # relative beyond), and so is rows_shipped == events; this pins the
    # report shape on top.
    report = bench_parallel.run(2_000, n_queries=10, shard_counts=(1, 2))
    assert report["events"] == 2_000
    assert set(report["shards"]) == {"1", "2"}
    row_keys = {
        "wall_s", "wall_events_per_s", "parent_s", "busiest_worker_s",
        "reduce_s", "rows_shipped", "results",
        "events_per_shard", "reduce_merge_ops", "windows_reduced",
    }
    for shards, row in report["shards"].items():
        assert set(row) == row_keys
        assert row["results"] == report["shards"]["1"]["results"]
        assert sum(row["events_per_shard"]) == 2_000
        assert len(row["events_per_shard"]) == int(shards)
        assert row["rows_shipped"] == 2_000  # each row crosses one pipe once
    # every shard contributes a partial per window, so the reduce folds
    # more parts at 2 shards than at 1 (empty shard slices excepted)
    one, two = report["shards"]["1"], report["shards"]["2"]
    assert one["windows_reduced"] == two["windows_reduced"]
    assert two["reduce_merge_ops"] >= one["reduce_merge_ops"]


def test_bench_recovery_tiny_scale():
    # Byte-identical recovery in both modes and the strictly-fewer-bytes
    # claim are asserted inside ``run``; this pins the report shape too.
    report = bench_recovery.run(bench_recovery.QUICK_EVENTS)
    assert set(report["modes"]) == {"scratch", "checkpointed"}
    scratch = report["modes"]["scratch"]
    ckpt = report["modes"]["checkpointed"]
    assert scratch["checkpoints"] == 0
    assert ckpt["checkpoints"] > 0
    assert ckpt["checkpoint_bytes"] > 0
    assert ckpt["data_bytes"] < scratch["data_bytes"]
    assert report["savings"]["reship_bytes_saved"] > 0
