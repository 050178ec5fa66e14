"""Unit tests for coverage tracking and slice-record merging."""

from __future__ import annotations

import heapq
import math
import random
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, DesisCluster
from repro.conformance.oracle import tolerance_for, values_match
from repro.core.analyzer import analyze
from repro.core.errors import ClusterError
from repro.core.event import Event
from repro.core.predicates import Selection
from repro.core.query import Query, WindowMeasure, WindowSpec
from repro.core.types import AggFunction, OperatorKind, WindowType
from repro.cluster.merger import GroupMerger, merge_records
from repro.network.messages import ContextPartial, PartialBatchMessage, SliceRecord
from repro.network.topology import three_tier

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

    def test_timed_ties_keep_each_childs_arrival_order(self):
        # a count window at the root counts one timestamp's values in the
        # order they arrived, so the merge sorts on time alone, stably
        a = record(0, 100)
        a.contexts[0].timed = [(10, 9.0), (10, 5.0), (10, 3.0)]
        b = record(0, 100)
        b.contexts[0].timed = [(5, 2.0), (10, 1.0)]
        merged = merge_records([a, b])
        assert merged[0].contexts[0].timed == [
            (5, 2.0), (10, 9.0), (10, 5.0), (10, 3.0), (10, 1.0)
        ]

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
        assert merger.advance() is None

    def test_session_group_merges_into_the_span_hull(self):
        """A session group merges like any other: one record per interval,
        whose activity span is the hull of its children's spans."""
        merger = GroupMerger(session_group(), ["a", "b"], origin=0)
        a, b = record(0, 100, 2.0, 2), record(0, 100, 3.0, 1)
        a.contexts[0].span = (10, 30)
        b.contexts[0].span = (60, 70)
        merger.on_batch(batch("a", 0, 100, [a]))
        merger.on_batch(batch("b", 0, 100, [b]))
        covered, (merged,) = merger.advance()
        assert covered == 100
        part = merged.contexts[0]
        assert (part.count, part.ops[K.SUM], part.span) == (3, 5.0, (10, 70))
        # the inputs are copied on their first merge, not folded into
        assert (a.contexts[0].count, a.contexts[0].span) == (2, (10, 30))

    def test_add_child_starts_at_progress(self):
        merger = GroupMerger(tumbling_group(), ["a"], origin=0)
        merger.on_batch(batch("a", 0, 100, [record(0, 100)]))
        merger.advance()
        merger.add_child("b")
        # New child must not stall previously-forwarded coverage.
        assert merger.children["b"].covered == merger.forwarded_to == 100

    def test_remove_child_unblocks_coverage(self):
        merger = GroupMerger(tumbling_group(), ["a", "b"], origin=0)
        merger.on_batch(batch("a", 0, 100, [record(0, 100)]))
        assert merger.advance() is None
        merger.remove_child("b")
        covered, records = merger.advance()
        assert covered == 100

    def test_holding_counts_the_children_at_the_floor(self):
        merger = GroupMerger(tumbling_group(), ["a", "b", "c"], origin=0)
        assert merger.holding == 3
        merger.on_batch(batch("a", 0, 200, [record(0, 100), record(100, 200)]))
        merger.on_batch(batch("b", 0, 100, [record(0, 100)]))
        assert merger.holding == 1 and merger.advance() is None
        merger.on_batch(batch("c", 0, 100, [record(0, 100)]))
        covered, _ = merger.advance()
        # b and c hold coverage at 100; a is past it
        assert (covered, merger.holding) == (100, 2)
        merger.remove_child("b")
        merger.remove_child("c")
        assert merger.holding == 0
        assert merger.advance()[0] == 200
        merger.add_child("d")
        assert merger.holding == 2  # a, and d, which joins at the floor

    def test_restore_sets_the_children_and_recounts(self):
        merger = GroupMerger(tumbling_group(), ["a", "b"], origin=0)
        merger.restore(100, {"a": (3, 200), "b": (2, 100)}, {"b": [record(100, 200)]})
        assert (merger.forwarded_to, merger.holding) == (100, 1)  # b holds
        assert (merger.children["a"].next_seq, merger.children["a"].covered) == (3, 200)
        merger.on_batch(batch("b", 2, 200, [record(100, 200)]))
        covered, (merged,) = merger.advance()
        assert (covered, merged.contexts[0].count, merger.holding) == (200, 2, 2)


# -- merged session records against the pass-through merger ------------------------


class PassThroughMerger(GroupMerger):
    """The reference: a group that holds a session query passes its
    records up one per child, sorted by interval, instead of merging
    those with identical intervals."""

    def advance(self):
        if not any(
            q.window.window_type is WindowType.SESSION for q in self.group.queries
        ):
            return super().advance()
        if not self.children:
            return None
        covered = min(state.covered for state in self.children.values())
        if covered <= self.forwarded_to:
            return None
        self.forwarded_to = covered
        released = []
        for state in self.children.values():
            released.extend(r for r in state.pending if r.end <= covered)
            state.pending = [r for r in state.pending if r.end > covered]
        self._recount()
        return covered, sorted(released, key=lambda r: (r.end, r.start))


def run_both(queries, topology, tick, streams):
    """The cluster's rows, merged and through the pass-through merger."""

    def run():
        cluster = DesisCluster(
            queries, topology, config=ClusterConfig(tick_interval=tick)
        )
        return list(cluster.run({k: list(v) for k, v in streams.items()}).sink)

    merged = run()
    with mock.patch("repro.cluster.roles.GroupMerger", PassThroughMerger):
        reference = run()
    return merged, reference


def assert_same_rows(queries, merged, reference):
    def key(row):
        return (row.query_id, row.start, row.end, row.event_count,
                row.emitted_at, row.completeness)

    assert [key(r) for r in merged] == [key(r) for r in reference]
    by_id = {q.query_id: q for q in queries}
    for got, want in zip(merged, reference):
        policy = tolerance_for(by_id[got.query_id], cross_fold=True)
        assert values_match(want.value, got.value, policy), (got, want)


@st.composite
def bursty_streams(draw, n_locals):
    """Per-local in-order streams of bursts: runs of close events split
    by pauses around the session gaps."""
    streams = {}
    for i in range(n_locals):
        t = draw(st.integers(0, 60))
        events = []
        for _ in range(draw(st.integers(0, 6))):
            t += draw(st.sampled_from([0, 19, 20, 21, 49, 50, 51, 99, 100, 170, 400]))
            for _ in range(draw(st.integers(1, 12))):
                t += draw(st.integers(0, 12))
                events.append(Event(
                    t,
                    draw(st.sampled_from("ab")),
                    draw(st.integers(-40, 40)) / 10,
                ))
        streams[f"local-{i}"] = events
    return streams


@st.composite
def session_scenarios(draw):
    n_locals = draw(st.integers(2, 6))
    n_mids = draw(st.integers(1, 2))
    gaps = draw(st.lists(st.sampled_from([20, 50, 100, 170]), min_size=3, max_size=3))
    fixed = draw(st.sampled_from([100, 200, 300]))
    queries = [
        Query.of("t", WindowSpec.tumbling(fixed), AggFunction.SUM),
        Query.of("w", WindowSpec.sliding(2 * fixed, fixed), AggFunction.AVERAGE),
        # two session queries on one context: the smaller gap cuts
        Query.of("s1", WindowSpec.session(gaps[0]), AggFunction.COUNT),
        Query.of("s2", WindowSpec.session(gaps[1]), AggFunction.AVERAGE),
        Query.of("s_keyed", WindowSpec.session(gaps[2]), AggFunction.SUM,
                 selection=Selection(key="a")),
        Query.of("m", WindowSpec.tumbling(fixed), AggFunction.MEDIAN),
        # a root-evaluated session group: its records ship ``timed`` pairs
        Query.of("s_median", WindowSpec.session(gaps[0]), AggFunction.MEDIAN),
        Query.of("c", WindowSpec.sliding(5, 2, measure=WindowMeasure.COUNT),
                 AggFunction.SUM),
    ]
    queries = draw(st.lists(st.sampled_from(queries), min_size=2, max_size=6,
                            unique_by=lambda q: q.query_id)
                   .filter(lambda qs: any(q.query_id.startswith("s") for q in qs)))
    tick = draw(st.sampled_from([50, 100, 200]))
    return queries, three_tier(n_locals, n_mids), tick, draw(bursty_streams(n_locals))


class TestSessionMergeDifferential:
    @settings(deadline=None)
    @given(scenario=session_scenarios())
    def test_rows_match_the_pass_through_merger(self, scenario):
        queries, topology, tick, streams = scenario
        merged, reference = run_both(queries, topology, tick, streams)
        assert_same_rows(queries, merged, reference)

    def test_a_span_ending_one_gap_before_the_interval_end(self):
        """``lA + gap == e``: child A's session ends on the tick that
        closes the interval, so A does not cut inside it, and B's event
        just before that end joins A's session in both mergers."""
        queries = [Query.of("s", WindowSpec.session(50), AggFunction.SUM),
                   Query.of("t", WindowSpec.tumbling(100), AggFunction.SUM)]
        streams = {"local-0": [Event(10, "a", 1.0), Event(50, "a", 2.0)],
                   "local-1": [Event(99, "a", 4.0), Event(300, "a", 8.0)]}
        merged, reference = run_both(queries, three_tier(2, 1), 100, streams)
        assert_same_rows(queries, merged, reference)
        sessions = [(r.start, r.end, r.event_count) for r in merged if r.query_id == "s"]
        assert sessions == [(10, 149, 3), (300, 350, 1)]

    def test_count_windows_count_one_timestamp_in_arrival_order(self):
        """A session MEDIAN and a count window share a root-evaluated
        group; both locals' records are ``[10, 100)`` and merge, and the
        values local-0 took at 10 ms still reach the count window in the
        order they arrived, as in the centralized stream."""
        queries = [
            Query.of("c", WindowSpec.tumbling(2, measure=WindowMeasure.COUNT),
                     AggFunction.SUM),
            Query.of("m", WindowSpec.session(100), AggFunction.MEDIAN),
        ]
        streams = {
            "local-0": [Event(10, "a", 9.0), Event(10, "a", 5.0),
                        Event(10, "a", 3.0), Event(80, "a", 7.0)],
            "local-1": [Event(10, "a", 20.0), Event(85, "a", 2.0)],
        }
        merged, reference = run_both(queries, three_tier(2, 1), 100, streams)
        assert_same_rows(queries, merged, reference)
        counts = [(r.start, r.end, r.value) for r in merged if r.query_id == "c"]
        assert counts == [(10, 10, 14.0), (10, 10, 23.0), (80, 85, 9.0)]
