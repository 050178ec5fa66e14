"""Checkpointed recovery, exactly-once emission, and failover (DESIGN.md §8).

The contract under test: a run with state-losing crashes and restarts —
or a permanently dead intermediate failed over to its parent — produces a
sink byte-identical to the fault-free run, whether the restarted node
restores from a checkpoint or replays from scratch.  Byte-identical means
``(query_id, start, end, event_count, value)`` per emitted row, in order;
only ``emitted_at`` may differ.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import (
    ClusterConfig,
    DesisCluster,
    DirCheckpointStore,
    InMemoryCheckpointStore,
)
from repro.cluster.checkpoint import (
    assembler_chunks,
    decode_checkpoint,
    encode_checkpoint,
    restore_assembler,
)
from repro.cluster.root import RootAssembler, derive_ops_from_timed
from repro.core.analyzer import analyze
from repro.core.errors import ClusterError
from repro.core.functions import finalize
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure
from repro.network.codec import BinaryCodec
from repro.network.messages import (
    CheckpointMessage,
    ContextPartial,
    SliceRecord,
    SnapshotChunk,
)
from repro.network.simnet import CrashWindow, FaultPlan
from repro.network.topology import three_tier
from repro.obs import compute_critical_path
from repro.obs.registry import MetricsRegistry, publish_cluster_result

from tests.cluster.test_desis_parity import TICK, make_streams
from tests.network.test_wire_golden import ASSEMBLER_CHECKPOINT

NEVER = 10**9  # a node_timeout that never fires: isolate recovery from eviction

QUERIES = {
    "mixed": [
        Query.of("t", WindowSpec.tumbling(1_000), AggFunction.SUM),
        Query.of("s", WindowSpec.sliding(2_000, 500), AggFunction.MIN),
        Query.of("g", WindowSpec.session(gap=300), AggFunction.COUNT),
    ],
    "count": [
        Query.of(
            "c",
            WindowSpec.tumbling(40, measure=WindowMeasure.COUNT),
            AggFunction.COUNT,
        )
    ],
}


def rows(result):
    return [
        (r.query_id, r.start, r.end, r.event_count, r.value) for r in result.sink
    ]


def run_desis(kind, topo_args, streams, **cfg):
    cfg.setdefault("tick_interval", TICK)
    cluster = DesisCluster(
        QUERIES[kind], three_tier(*topo_args), config=ClusterConfig(**cfg)
    )
    result = cluster.run({k: list(v) for k, v in streams.items()})
    return cluster, result


@pytest.fixture(scope="module")
def streams():
    return make_streams(3, 3000)


@pytest.fixture(scope="module")
def baselines(streams):
    """Fault-free reference rows per query kind and topology width."""
    return {
        (kind, width): rows(run_desis(kind, (3, width), streams)[1])
        for kind in QUERIES
        for width in (1, 2)
    }


class TestCheckpointStores:
    def test_in_memory_roundtrip_keeps_latest_only(self):
        store = InMemoryCheckpointStore()
        assert store.load_latest("mid-0") is None
        store.save("mid-0", 1, [b"one"])
        store.save("mid-0", 2, [b"two", b"three"])
        store.save("other", 9, [b"x"])
        assert store.load_latest("mid-0") == (2, [b"two", b"three"])
        assert store.saves == 3
        assert store.bytes_written == len(b"one") + len(b"twothree") + 1

    def test_dir_store_roundtrip(self, tmp_path):
        store = DirCheckpointStore(str(tmp_path))
        assert store.load_latest("root") is None
        store.save("root", 3, [b"alpha", b"", b"beta"])
        assert store.load_latest("root") == (3, [b"alpha", b"", b"beta"])
        # latest-only: a second save replaces the file
        store.save("root", 4, [b"gamma"])
        assert store.load_latest("root") == (4, [b"gamma"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["root.ckpt"]

    def test_dir_store_corrupt_file_raises(self, tmp_path):
        store = DirCheckpointStore(str(tmp_path))
        (tmp_path / "mid-0.ckpt").write_bytes(b"\x00\x00")
        with pytest.raises(ClusterError):
            store.load_latest("mid-0")
        # truncated chunk table
        store.save("mid-1", 1, [b"payload"])
        blob = (tmp_path / "mid-1.ckpt").read_bytes()
        (tmp_path / "mid-1.ckpt").write_bytes(blob[:-3])
        with pytest.raises(ClusterError):
            store.load_latest("mid-1")

    def test_decode_checkpoint_validates_shape(self):
        header = CheckpointMessage(sender="mid-0", checkpoint_id=1, at=0)
        chunk = SnapshotChunk(
            sender="mid-0", checkpoint_id=1, group_id=0, kind="pending"
        )
        blobs = encode_checkpoint([header, chunk])
        decoded_header, decoded_chunks = decode_checkpoint(blobs)
        assert decoded_header == header
        assert decoded_chunks == [chunk]
        with pytest.raises(ClusterError):
            decode_checkpoint([])
        with pytest.raises(ClusterError):
            decode_checkpoint(list(reversed(blobs)))  # chunk before header


class TestIntermediateRecovery:
    def test_checkpointed_restore_is_byte_identical(self, streams, baselines):
        plan = FaultPlan(
            seed=2,
            crashes=(CrashWindow("mid-0", 8_000, 12_000, lose_state=True),),
        )
        _, result = run_desis(
            "mixed",
            (3, 1),
            streams,
            fault_plan=plan,
            node_timeout=NEVER,
            checkpoint_interval=3_000,
        )
        assert rows(result) == baselines[("mixed", 1)]
        assert result.recoveries == 1
        assert result.checkpoints > 0

    def test_scratch_restore_is_byte_identical(self, streams, baselines):
        """No checkpointing at all: recovery replays the full retained
        suffix from the children and still converges byte-identically."""
        plan = FaultPlan(
            seed=2,
            crashes=(CrashWindow("mid-0", 8_000, 12_000, lose_state=True),),
        )
        _, result = run_desis(
            "mixed", (3, 1), streams, fault_plan=plan, node_timeout=NEVER
        )
        assert rows(result) == baselines[("mixed", 1)]
        assert result.recoveries == 1
        assert result.checkpoints == 0

    def test_checkpointing_reships_fewer_bytes_than_scratch(self, streams):
        plan = lambda: FaultPlan(  # noqa: E731 — fresh plan per run
            seed=2,
            crashes=(CrashWindow("mid-0", 8_000, 12_000, lose_state=True),),
        )
        _, with_ckpt = run_desis(
            "mixed",
            (3, 1),
            streams,
            fault_plan=plan(),
            node_timeout=NEVER,
            checkpoint_interval=3_000,
        )
        _, scratch = run_desis(
            "mixed", (3, 1), streams, fault_plan=plan(), node_timeout=NEVER
        )
        # Scratch recovery re-ships the children's full retained history;
        # a checkpoint restores the merge cursors so only the suffix past
        # them travels again.
        assert with_ckpt.network.data_bytes < scratch.network.data_bytes


class TestRootRecovery:
    def test_restore_is_exactly_once(self, streams, baselines):
        plan = FaultPlan(
            seed=2,
            crashes=(CrashWindow("root", 9_000, 13_000, lose_state=True),),
        )
        _, result = run_desis(
            "mixed",
            (3, 1),
            streams,
            fault_plan=plan,
            node_timeout=NEVER,
            checkpoint_interval=3_000,
        )
        assert rows(result) == baselines[("mixed", 1)]
        assert result.recoveries == 1
        # Windows emitted before the crash are regenerated during replay;
        # the emit-sequence ledger must have kept them out of the sink.
        assert result.duplicates_suppressed > 0

    def test_scratch_restore_is_exactly_once(self, streams, baselines):
        plan = FaultPlan(
            seed=2,
            crashes=(CrashWindow("root", 9_000, 13_000, lose_state=True),),
        )
        _, result = run_desis(
            "mixed", (3, 1), streams, fault_plan=plan, node_timeout=NEVER
        )
        assert rows(result) == baselines[("mixed", 1)]
        assert result.checkpoints == 0


class TestCombinedCrashSchedule:
    @pytest.mark.parametrize("kind", ["mixed", "count"])
    def test_every_role_crashes_once(self, kind, streams, baselines):
        """One schedule that loses state on an intermediate *and* the root
        (disjoint windows) still emits the fault-free rows exactly once."""
        plan = FaultPlan(
            seed=2,
            crashes=(
                CrashWindow("mid-0", 6_000, 9_000, lose_state=True),
                CrashWindow("root", 10_000, 13_000, lose_state=True),
            ),
        )
        _, result = run_desis(
            kind,
            (3, 1),
            streams,
            fault_plan=plan,
            node_timeout=NEVER,
            checkpoint_interval=3_000,
        )
        assert rows(result) == baselines[(kind, 1)]
        assert result.recoveries == 2


class TestLateQueryGroup:
    """A query added mid-run is a group like any other: every node extends
    all of its per-group state for it, and a restart rebuilds the group at
    the tick it joined at — its origin is durable node metadata."""

    BASE = Query.of("avg_1000", WindowSpec.tumbling(1_000), AggFunction.AVERAGE)

    def run(self, late, at, n_events, **cfg):
        cluster = DesisCluster(
            [self.BASE],
            three_tier(2, 1),
            config=ClusterConfig(tick_interval=TICK, **cfg),
        )
        return cluster.run(
            make_streams(2, n_events),
            actions=[(at, lambda c: c.add_query(late))],
        )

    def test_checkpoint_after_add_query(self):
        late = Query.of("late", WindowSpec.tumbling(500), AggFunction.AVERAGE)
        plain = self.run(late, 3_000, 600)
        checkpointed = self.run(late, 3_000, 600, checkpoint_interval=1_000)
        assert rows(checkpointed) == rows(plain)
        assert any(r.query_id == "late" for r in checkpointed.sink)
        assert checkpointed.checkpoints > 0

    @pytest.mark.parametrize("checkpoint_interval", [None, 1_000])
    @pytest.mark.parametrize("node", ["root", "mid-0"])
    def test_restart_rebuilds_the_group_where_it_joined(
        self, node, checkpoint_interval
    ):
        # 700 ms does not divide the join tick (4 500): anchored at
        # ``config.origin`` the group's punctuations would fall elsewhere.
        late = Query.of("late", WindowSpec.tumbling(700), AggFunction.AVERAGE)
        baseline = self.run(late, 4_500, 3_000)
        plan = FaultPlan(
            seed=2, crashes=(CrashWindow(node, 8_000, 9_500, lose_state=True),)
        )
        result = self.run(
            late,
            4_500,
            3_000,
            fault_plan=plan,
            node_timeout=NEVER,
            checkpoint_interval=checkpoint_interval,
        )
        assert rows(result) == rows(baseline)
        assert {r.query_id for r in result.sink} == {"avg_1000", "late"}
        assert result.recoveries == 1
        assert (result.checkpoints > 0) == (checkpoint_interval is not None)


    def test_group_added_while_a_child_is_soft_evicted(self):
        """The new group's merger attaches the children its siblings hold:
        the evicted one joins it on the heartbeat that re-admits it (at
        the parent commit that rejoin raised ``already attached``)."""
        late = Query.of("late", WindowSpec.tumbling(500), AggFunction.AVERAGE)
        cfg = dict(node_timeout=4_000, heartbeat_interval=2_000)
        baseline = self.run(late, 8_000, 3_000, **cfg)
        outage = CrashWindow("local-0", 2_000, 12_000)
        result = self.run(
            late, 8_000, 3_000, fault_plan=FaultPlan(seed=3, crashes=(outage,)), **cfg
        )
        # exact again once the rejoin settled: one heartbeat to re-admit,
        # two ticks to flush the resync
        settle = outage.end + cfg["heartbeat_interval"] + 2 * TICK
        after = lambda found: [r for r in rows(found) if r[1] >= settle]  # noqa: E731
        assert after(result) == after(baseline)
        assert {r[0] for r in after(result)} == {"avg_1000", "late"}


class TestIntermediateFailover:
    @pytest.mark.parametrize("kind", ["mixed", "count"])
    def test_permanent_death_reroutes_children(self, kind, streams, baselines):
        plan = FaultPlan(seed=2, crashes=(CrashWindow("mid-0", 8_000, None),))
        _, result = run_desis(
            kind,
            (3, 2),
            streams,
            fault_plan=plan,
            node_timeout=6_000,
            heartbeat_interval=2_000,
            checkpoint_interval=3_000,
        )
        assert rows(result) == baselines[(kind, 2)]
        assert result.reroutes > 0

    def test_failover_without_checkpoints(self, streams, baselines):
        plan = FaultPlan(seed=2, crashes=(CrashWindow("mid-0", 8_000, None),))
        _, result = run_desis(
            "mixed",
            (3, 2),
            streams,
            fault_plan=plan,
            node_timeout=6_000,
            heartbeat_interval=2_000,
        )
        assert rows(result) == baselines[("mixed", 2)]
        assert result.reroutes > 0
        assert result.checkpoints == 0


class TestDirStoreEndToEnd:
    def test_checkpoint_dir_survives_crash(self, tmp_path, streams, baselines):
        plan = FaultPlan(
            seed=2,
            crashes=(CrashWindow("mid-0", 8_000, 12_000, lose_state=True),),
        )
        cluster, result = run_desis(
            "mixed",
            (3, 1),
            streams,
            fault_plan=plan,
            node_timeout=NEVER,
            checkpoint_interval=3_000,
            checkpoint_dir=str(tmp_path),
        )
        assert isinstance(cluster.checkpoint_store, DirCheckpointStore)
        assert rows(result) == baselines[("mixed", 1)]
        assert (tmp_path / "mid-0.ckpt").exists()


class TestRecoveryErrors:
    def test_lose_state_on_local_is_rejected(self, streams):
        plan = FaultPlan(
            seed=2,
            crashes=(CrashWindow("local-0", 8_000, 12_000, lose_state=True),),
        )
        with pytest.raises(ClusterError, match="local"):
            run_desis(
                "mixed", (3, 1), streams, fault_plan=plan, node_timeout=NEVER
            )


class TestRecoveryObservability:
    def test_counters_reach_the_registry(self, streams):
        plan = FaultPlan(
            seed=2,
            crashes=(CrashWindow("mid-0", 8_000, 12_000, lose_state=True),),
        )
        _, result = run_desis(
            "mixed",
            (3, 1),
            streams,
            fault_plan=plan,
            node_timeout=NEVER,
            checkpoint_interval=3_000,
        )
        registry = MetricsRegistry()
        publish_cluster_result(registry, result)
        assert registry.value("cluster.checkpoints") == result.checkpoints > 0
        assert registry.value("cluster.recoveries") == 1
        assert registry.value("net.reroutes") == 0
        assert (
            registry.value("cluster.duplicates_suppressed")
            == result.duplicates_suppressed
        )

    def test_trace_events_cover_the_lifecycle(self, streams):
        plan = FaultPlan(
            seed=2,
            crashes=(
                CrashWindow("mid-0", 8_000, 12_000, lose_state=True),
                CrashWindow("mid-1", 8_000, None),
            ),
        )
        _, result = run_desis(
            "mixed",
            (3, 2),
            streams,
            fault_plan=plan,
            node_timeout=6_000,
            heartbeat_interval=2_000,
            checkpoint_interval=3_000,
            trace=True,
        )
        saves = list(result.recorder.events("checkpoint.save"))
        recovers = list(result.recorder.events("node.recover"))
        reroutes = list(result.recorder.events("child.reroute"))
        assert saves and recovers and reroutes
        assert any(e.node == "mid-0" for e in recovers)
        assert all(e.data["new_parent"] == "root" for e in reroutes)

    def test_zero_overhead_when_disabled(self, streams):
        cluster, result = run_desis("mixed", (3, 1), streams)
        assert cluster.checkpoint_store is None
        assert result.checkpoints == 0
        assert result.recoveries == 0
        assert result.reroutes == 0
        assert result.duplicates_suppressed == 0
        assert not any(n._retain for n in cluster.locals.values())
        assert not any(n._retain for n in cluster.intermediates.values())
        assert not any(n._retained for n in cluster.locals.values())


class TestExplainSurvivesRecovery:
    """Provenance and critical-path attribution on crashed-and-healed runs.

    Recovery replays traffic and failover reroutes it; neither may leave
    the final windows unexplainable or break the stage-sum invariant
    (DESIGN.md §11)."""

    def _check_last_windows(self, result, n=3):
        for res in result.sink.results[-n:]:
            prov = result.recorder.explain_window(res)
            assert prov.sources and prov.slices and prov.hops
            path = compute_critical_path(result.recorder, res)
            assert sum(path.stage_totals().values()) == path.latency
            assert all(seg.duration > 0 for seg in path.segments)

    def test_explain_after_checkpointed_recovery(self, streams):
        plan = FaultPlan(
            seed=2,
            crashes=(CrashWindow("mid-0", 8_000, 12_000, lose_state=True),),
        )
        _, result = run_desis(
            "mixed",
            (3, 1),
            streams,
            fault_plan=plan,
            node_timeout=NEVER,
            checkpoint_interval=3_000,
            trace=True,
        )
        assert result.recoveries == 1
        assert list(result.recorder.events("node.recover"))
        self._check_last_windows(result)

    def test_explain_after_failover(self, streams):
        plan = FaultPlan(seed=2, crashes=(CrashWindow("mid-0", 8_000, None),))
        _, result = run_desis(
            "mixed",
            (3, 2),
            streams,
            fault_plan=plan,
            node_timeout=6_000,
            heartbeat_interval=2_000,
            trace=True,
        )
        assert result.reroutes > 0
        assert list(result.recorder.events("child.reroute"))
        self._check_last_windows(result)

    def test_recovery_spans_attach_to_covering_windows(self, streams):
        """Windows whose span covers the crash carry the lifecycle span
        (recover/checkpoint) as attributed context, not silence."""
        plan = FaultPlan(
            seed=2,
            crashes=(CrashWindow("mid-0", 8_000, 12_000, lose_state=True),),
        )
        _, result = run_desis(
            "mixed",
            (3, 1),
            streams,
            fault_plan=plan,
            node_timeout=NEVER,
            checkpoint_interval=3_000,
            trace=True,
        )
        from repro.obs import build_window_traces

        traces = build_window_traces(result.recorder, result.sink.results)
        assert traces
        names = {s.name for t in traces for s in t.spans}
        assert "checkpoint" in names  # checkpoints overlap emitted windows
        for trace in traces:
            root = trace.root
            for span in trace.spans[1:]:
                if span.name in ("checkpoint", "recover", "reroute"):
                    # lifecycle spans only attach inside the window's life
                    assert root.start <= span.start <= root.end
                assert span.parent_id is not None


MIXED = [
    Query.of("avg", WindowSpec.tumbling(200), AggFunction.AVERAGE),
    Query.of("max", WindowSpec.tumbling(200), AggFunction.MAX),
    Query.of("sld", WindowSpec.sliding(450, 100), AggFunction.SUM),
    Query.of("ses", WindowSpec.session(40), AggFunction.SUM),
    Query.of("usr", WindowSpec.user_defined(end_marker="end"), AggFunction.COUNT),
]


def mixed_batches(queries=MIXED, seed=5, children=2, horizon=1_600):
    """``(covered, records)`` batches as the root's merger releases them
    for the unmerged group of ``queries``: every child cuts at the fixed
    punctuations (100 ms starts, sliding ends at 450 + k*100) and at a
    dozen times of its own; integer values, so float sums are exact
    whatever their association.  ``ASSEMBLER_CHECKPOINT`` was taken from
    this very generator, so its draws must not change."""
    rng = random.Random(seed)
    (group,) = analyze(queries, decentralized=True).groups
    puncts = set(range(0, horizon + 1, 100)) | set(range(450, horizon + 1, 100))
    records = []
    for _ in range(children):
        cuts = sorted(puncts | {rng.randrange(1, horizon) for _ in range(12)})
        for start, end in zip(cuts, cuts[1:]):
            times = sorted(
                rng.sample(range(start, end), min(end - start, rng.randint(0, 3)))
            )
            record = SliceRecord(start=start, end=end)
            if times:
                part = record.contexts[0] = ContextPartial(
                    count=len(times),
                    timed=[(t, float(rng.randint(1, 9))) for t in times],
                )
                derive_ops_from_timed(record, group.operators)
                part.timed = None
                if rng.random() < 0.15:
                    record.userdef_eps.append(("usr", times[-1]))
            records.append(record)
    records.sort(key=lambda r: (r.end, r.start))
    batches = []
    covered = 0
    while covered < horizon:
        covered = min(covered + rng.randint(1, 130), horizon)
        batch = [r for r in records if r.end <= covered]
        records = records[len(batch):]
        batches.append((covered, batch))
    return group, batches


class TestAssemblerCheckpoint:
    """The root's cells and Two-Stacks streams are derived state: a chunk
    holds slice records (the raw ones where user-defined windows still
    read them, the cells otherwise) and restore folds them again."""

    @staticmethod
    def assembler(group, rows):
        return RootAssembler(
            group,
            origin=0,
            emit=lambda query, start, end, ops, count, now: rows.append(
                (query.query_id, start, end, count, finalize(query.function, ops))
            ),
        )

    def run(self, group, batches, restore=None, at=0):
        """Rows emitted from batch ``at`` on, through a fresh assembler
        that first restores ``restore`` (an encoded chunk)."""
        rows = []
        assembler = self.assembler(group, rows)
        if restore is not None:
            restore_assembler(assembler, BinaryCodec().decode(restore))
        for covered, batch in batches[at:]:
            assembler.consume(covered, batch, now=covered)
        assembler.finish(batches[-1][0])
        return rows

    def test_a_checkpoint_written_before_cells_restores(self):
        """The parent commit's root kept raw records for every window
        kind; its chunk restores into cells and the run finishes with the
        crash-free rows."""
        group, batches = mixed_batches()
        at = 16
        assert batches[at - 1][0] == 939  # where the blob was taken
        crash_free = self.run(group, batches)
        before = []
        assembler = self.assembler(group, before)
        for covered, batch in batches[:at]:
            assembler.consume(covered, batch, now=covered)
        after = self.run(
            group, batches, restore=bytes.fromhex(ASSEMBLER_CHECKPOINT), at=at
        )
        assert sorted(before + after) == sorted(crash_free)
        assert {row[0] for row in after} == {"avg", "max", "sld", "ses", "usr"}

    @pytest.mark.parametrize("userdef", [True, False], ids=["raw", "cells"])
    def test_a_checkpoint_at_every_batch_restores(self, userdef):
        """Wherever the checkpoint falls — every third time with a cell
        half filled — the restored run equals its crash-free twin."""
        group, batches = mixed_batches(MIXED if userdef else MIXED[:4])
        crash_free = sorted(self.run(group, batches))
        before = []
        assembler = self.assembler(group, before)
        half_filled = 0
        for at, (covered, batch) in enumerate(batches[:-1], start=1):
            assembler.consume(covered, batch, now=covered)
            (chunk,) = assembler_chunks("root", at, [assembler])
            (blob,) = encode_checkpoint([chunk])
            # raw records only where something still reads them
            assert bool(assembler.records) == (userdef and bool(chunk.records))
            start, _ = assembler.cells.grid.bounds(covered)
            half_filled += start < covered and any(
                r.start >= start for r in chunk.records
            )
            after = self.run(group, batches, restore=blob, at=at)
            assert sorted(before + after) == crash_free, at
        assert half_filled >= 8
