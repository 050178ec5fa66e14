"""Unit tests for coverage tracking and slice-record merging."""

from __future__ import annotations

import heapq
import math
import random
import struct

import pytest

from repro.core.analyzer import analyze
from repro.core.errors import ClusterError
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, OperatorKind
from repro.cluster.merger import GroupMerger, group_has_sessions, merge_records
from repro.network.messages import ContextPartial, PartialBatchMessage, SliceRecord

K = OperatorKind


def group_for(*queries):
    return analyze(queries).groups[0]


def tumbling_group():
    return group_for(Query.of("q", WindowSpec.tumbling(100), AggFunction.AVERAGE))


def session_group():
    return group_for(
        Query.of("q", WindowSpec.tumbling(100), AggFunction.SUM),
        Query.of("s", WindowSpec.session(50), AggFunction.SUM),
    )


def record(start, end, total=1.0, count=1, ctx=0):
    return SliceRecord(
        start=start,
        end=end,
        contexts={ctx: ContextPartial(count=count, ops={K.SUM: total, K.COUNT: count})},
    )


def batch(sender, seq, covered, records):
    return PartialBatchMessage(
        sender=sender,
        group_id=0,
        first_slice_seq=seq,
        covered_to=covered,
        records=records,
    )


class TestMergeRecords:
    def test_same_interval_merges(self):
        merged = merge_records([record(0, 100, 2.0, 2), record(0, 100, 3.0, 1)])
        assert len(merged) == 1
        part = merged[0].contexts[0]
        assert part.ops[K.SUM] == 5.0
        assert part.count == 3

    def test_different_intervals_kept(self):
        merged = merge_records([record(0, 100), record(100, 200)])
        assert [(r.start, r.end) for r in merged] == [(0, 100), (100, 200)]

    def test_span_union(self):
        a = record(0, 100)
        a.contexts[0].span = (10, 20)
        b = record(0, 100)
        b.contexts[0].span = (50, 80)
        merged = merge_records([a, b])
        assert merged[0].contexts[0].span == (10, 80)

    def test_timed_concat_sorted(self):
        a = record(0, 100)
        a.contexts[0].timed = [(5, 1.0), (50, 2.0)]
        b = record(0, 100)
        b.contexts[0].timed = [(10, 3.0)]
        merged = merge_records([a, b])
        assert merged[0].contexts[0].timed == [(5, 1.0), (10, 3.0), (50, 2.0)]

    def test_userdef_eps_concatenated(self):
        a = record(0, 100)
        a.userdef_eps.append(("q", 42))
        merged = merge_records([a, record(0, 100)])
        assert merged[0].userdef_eps == [("q", 42)]

    def test_eight_child_sorted_run_fold_matches_the_heapq_reference(self, monkeypatch):
        # what an intermediate does per interval: fold its children's
        # sorted runs pairwise; the Timsort merge must leave every bit
        # where the generator merge it replaced put it
        from repro.cluster import merger

        rng = random.Random(5)
        pool = [-math.inf, -3.5, -0.0, 0.0, 5e-324, 1.0, 1.0, 7.25, math.inf]
        records = [
            SliceRecord(
                start=0,
                end=100,
                contexts={
                    0: ContextPartial(
                        count=size,
                        ops={K.NON_DECOMPOSABLE_SORT: sorted(rng.choices(pool, k=size))},
                    )
                },
            )
            for size in (40, 0, 17, 1, 300, 23, 2, 64)
        ]

        def reference(kind, left, right):
            assert kind is K.NON_DECOMPOSABLE_SORT
            return list(heapq.merge(left, right))

        (merged,) = merge_records(records)
        monkeypatch.setattr(merger, "merge_partials", reference)
        (expected,) = merge_records(records)
        assert merged.contexts[0].count == expected.contexts[0].count == 447
        # compared as bytes: ``==`` cannot tell ``-0.0`` from ``0.0``
        assert struct.pack(
            ">447d", *merged.contexts[0].ops[K.NON_DECOMPOSABLE_SORT]
        ) == struct.pack(
            ">447d", *expected.contexts[0].ops[K.NON_DECOMPOSABLE_SORT]
        )

    def test_disjoint_contexts_combined(self):
        merged = merge_records([record(0, 100, ctx=0), record(0, 100, ctx=1)])
        assert set(merged[0].contexts) == {0, 1}


class TestGroupMerger:
    def test_coverage_is_minimum_over_children(self):
        merger = GroupMerger(tumbling_group(), ["a", "b"], origin=0)
        merger.on_batch(batch("a", 0, 200, [record(0, 100)]))
        assert merger.advance() is None  # b has not covered anything
        merger.on_batch(batch("b", 0, 100, [record(0, 100)]))
        covered, records = merger.advance()
        assert covered == 100
        assert len(records) == 1  # merged across children
        assert records[0].contexts[0].count == 2

    def test_records_beyond_coverage_stay_pending(self):
        merger = GroupMerger(tumbling_group(), ["a", "b"], origin=0)
        merger.on_batch(batch("a", 0, 200, [record(0, 100), record(100, 200)]))
        merger.on_batch(batch("b", 0, 100, [record(0, 100)]))
        covered, records = merger.advance()
        assert covered == 100
        assert [(r.start, r.end) for r in records] == [(0, 100)]
        merger.on_batch(batch("b", 1, 200, [record(100, 200)]))
        covered, records = merger.advance()
        assert covered == 200
        assert [(r.start, r.end) for r in records] == [(100, 200)]

    def test_duplicate_slices_dropped(self):
        """Sec 5.1.1: re-delivered slice ids are recognized and dropped."""
        merger = GroupMerger(tumbling_group(), ["a"], origin=0)
        merger.on_batch(batch("a", 0, 100, [record(0, 100, 1.0)]))
        merger.on_batch(batch("a", 0, 200, [record(0, 100, 1.0), record(100, 200)]))
        assert merger.duplicates_dropped == 1
        covered, records = merger.advance()
        assert covered == 200
        assert records[0].contexts[0].ops[K.SUM] == 1.0  # not double-counted

    def test_missing_slices_detected(self):
        merger = GroupMerger(tumbling_group(), ["a"], origin=0)
        merger.on_batch(batch("a", 0, 100, [record(0, 100)]))
        with pytest.raises(ClusterError):
            merger.on_batch(batch("a", 5, 200, [record(100, 200)]))

    def test_unknown_child_batch_dropped(self):
        """In-flight batches from removed nodes are dropped, not fatal."""
        merger = GroupMerger(tumbling_group(), ["a"], origin=0)
        merger.on_batch(batch("ghost", 0, 100, [record(0, 100)]))
        assert merger.stray_batches == 1
        assert merger.coverage() == 0

    def test_session_group_passes_through_unmerged(self):
        """Merging would fuse spans across children and hide gaps."""
        group = session_group()
        assert group_has_sessions(group)
        merger = GroupMerger(group, ["a", "b"], origin=0)
        merger.on_batch(batch("a", 0, 100, [record(0, 100)]))
        merger.on_batch(batch("b", 0, 100, [record(0, 100)]))
        covered, records = merger.advance()
        assert len(records) == 2  # one per child, unmerged

    def test_add_child_starts_at_progress(self):
        merger = GroupMerger(tumbling_group(), ["a"], origin=0)
        merger.on_batch(batch("a", 0, 100, [record(0, 100)]))
        merger.advance()
        merger.add_child("b")
        # New child must not stall previously-forwarded coverage.
        assert merger.coverage() == 100

    def test_remove_child_unblocks_coverage(self):
        merger = GroupMerger(tumbling_group(), ["a", "b"], origin=0)
        merger.on_batch(batch("a", 0, 100, [record(0, 100)]))
        assert merger.advance() is None
        merger.remove_child("b")
        covered, records = merger.advance()
        assert covered == 100
