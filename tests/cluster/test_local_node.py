"""Unit tests for the local node's slicing and batching behaviour."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.analyzer import analyze
from repro.core.engine import EngineStats
from repro.core.event import Event
from repro.core.predicates import Selection, SelectionRouter
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, NodeRole, OperatorKind, WindowMeasure
from repro.cluster.config import ClusterConfig
from repro.cluster.intermediate import IntermediateNode
from repro.cluster.local import LocalNode, _RootEvalLocalGroup, _SlicedLocalGroup
from repro.network.codec import BinaryCodec
from repro.network.messages import CheckpointMessage, ResyncMessage
from repro.network.simnet import SimNetwork

from tests.cluster.test_intermediate import Inbox, batch, record

K = OperatorKind

shipper_kinds = pytest.mark.parametrize("kind", ["local", "intermediate"])


def sliced_group(*queries, tick=1_000):
    plan = analyze(queries, decentralized=True)
    (group,) = [g for g in plan.groups if not g.root_evaluated]
    return _SlicedLocalGroup(
        "local-0", group, ClusterConfig(tick_interval=tick), EngineStats()
    )


def rooteval_group(*queries, tick=1_000):
    plan = analyze(queries, decentralized=True)
    (group,) = [g for g in plan.groups if g.root_evaluated]
    return _RootEvalLocalGroup(
        "local-0", group, ClusterConfig(tick_interval=tick), EngineStats()
    )


class TestSlicedLocalGroup:
    def test_flush_ships_partials_not_events(self):
        handler = sliced_group(
            Query.of("avg", WindowSpec.tumbling(500), AggFunction.AVERAGE)
        )
        for t in range(0, 1_000, 100):
            handler.on_event(Event(t, "k", 2.0))
        message = handler.flush(1_000)
        assert message.covered_to == 1_000
        assert len(message.records) == 2  # two 500ms slices
        first = message.records[0]
        assert first.contexts[0].ops[K.SUM] == 10.0
        assert first.contexts[0].ops[K.COUNT] == 5
        assert first.contexts[0].count == 5

    def test_slice_seq_increments_across_flushes(self):
        handler = sliced_group(
            Query.of("avg", WindowSpec.tumbling(500), AggFunction.AVERAGE)
        )
        handler.on_event(Event(100, "k", 1.0))
        first = handler.flush(1_000)
        handler.on_event(Event(1_100, "k", 1.0))
        second = handler.flush(2_000)
        assert first.first_slice_seq == 0
        assert second.first_slice_seq == len(first.records)

    def test_empty_interval_still_advances_coverage(self):
        handler = sliced_group(
            Query.of("avg", WindowSpec.tumbling(500), AggFunction.AVERAGE)
        )
        message = handler.flush(1_000)
        assert message.covered_to == 1_000
        assert message.records == []

    def test_session_groups_ship_activity_spans(self):
        handler = sliced_group(
            Query.of("s", WindowSpec.session(300), AggFunction.SUM)
        )
        handler.on_event(Event(120, "k", 1.0))
        handler.on_event(Event(180, "k", 1.0))
        message = handler.flush(1_000)
        spans = [
            part.span
            for record in message.records
            for part in record.contexts.values()
        ]
        assert (120, 180) in spans

    def test_userdef_eps_marked_on_slices(self):
        handler = sliced_group(
            Query.of(
                "u", WindowSpec.user_defined(end_marker="end"), AggFunction.SUM
            )
        )
        handler.on_event(Event(100, "k", 1.0))
        handler.on_event(Event(200, "k", 2.0, "end"))
        message = handler.flush(1_000)
        eps = [ep for record in message.records for ep in record.userdef_eps]
        assert eps == [("u", 200)]


class TestRootEvalLocalGroup:
    def test_median_ships_sorted_values(self):
        handler = rooteval_group(
            Query.of("m", WindowSpec.tumbling(1_000), AggFunction.MEDIAN)
        )
        for t, v in ((10, 5.0), (20, 1.0), (30, 3.0)):
            handler.on_event(Event(t, "k", v))
        message = handler.flush(1_000)
        (record,) = message.records
        assert record.contexts[0].ops[K.NON_DECOMPOSABLE_SORT] == [1.0, 3.0, 5.0]

    def test_count_groups_ship_timestamps(self):
        handler = rooteval_group(
            Query.of(
                "c",
                WindowSpec.tumbling(10, measure=WindowMeasure.COUNT),
                AggFunction.SUM,
            )
        )
        handler.on_event(Event(10, "k", 5.0))
        message = handler.flush(1_000)
        (record,) = message.records
        assert record.contexts[0].timed == [(10, 5.0)]
        assert not record.contexts[0].ops

    def test_boundary_event_kept_for_next_slice(self):
        handler = rooteval_group(
            Query.of("m", WindowSpec.tumbling(1_000), AggFunction.MEDIAN)
        )
        handler.on_event(Event(999, "k", 1.0))
        handler.on_event(Event(1_000, "k", 2.0))  # exactly at the tick
        first = handler.flush(1_000)
        assert first.records[0].contexts[0].count == 1
        second = handler.flush(2_000)
        assert second.records[0].contexts[0].count == 1

    def test_selection_contexts_separated(self):
        handler = rooteval_group(
            Query.of(
                "m1",
                WindowSpec.tumbling(1_000),
                AggFunction.MEDIAN,
                selection=Selection(key="a"),
            ),
            Query.of(
                "m2",
                WindowSpec.tumbling(1_000),
                AggFunction.MEDIAN,
                selection=Selection(key="b"),
            ),
        )
        handler.on_event(Event(10, "a", 1.0))
        handler.on_event(Event(20, "b", 2.0))
        message = handler.flush(1_000)
        (record,) = message.records
        assert len(record.contexts) == 2


def rooteval_state(handler):
    """Buffers and records, with the context order each one carries (the
    order the partials go on the wire in)."""
    state = (
        list(handler.pending),
        [list(record.contexts) for record in handler.pending],
        [(ctx, (list(times), list(values)))
         for ctx, (times, values) in handler.buffers.items()],
        handler.window_start,
        replace(handler.stats),
    )
    records = handler.flush(10_000).records
    return state + (
        records, [list(record.contexts) for record in records], handler.stats
    )


class TestRootEvalBatchedIngest:
    """``on_events`` for fixed-schedule groups cuts by bisect on the time
    column; whatever the batch, it must leave the handler exactly where
    per-event ``on_event`` does."""

    MEDIAN = (Query.of("m", WindowSpec.tumbling(200), AggFunction.MEDIAN),)

    def assert_same(self, queries, events, batches):
        reference = rooteval_group(*queries)
        for event in events:
            reference.on_event(event)
        batched = rooteval_group(*queries)
        done = 0
        for size in batches:
            batched.on_events(events[done:done + size])
            done += size
        assert done >= len(events)
        assert rooteval_state(batched) == rooteval_state(reference)
        return reference

    def test_batch_inside_one_slice(self):
        events = [Event(t, "k", float(t % 7)) for t in (10, 20, 20, 150, 199)]
        reference = self.assert_same(self.MEDIAN, events, (5,))
        assert reference.stats.slices_closed == 1 and reference.stats.inserts == 5

    def test_batch_spanning_several_boundaries(self):
        # boundaries at 200, 400, ... — with slices that stay empty
        events = [Event(t, "k", float(t % 11)) for t in (5, 190, 210, 390, 1_010, 1_020, 1_630)]
        reference = self.assert_same(self.MEDIAN, events, (7,))
        self.assert_same(self.MEDIAN, events, (2, 3, 2))
        assert reference.stats.slices_closed == 4

    def test_event_on_a_boundary_belongs_to_the_next_slice(self):
        events = [Event(t, "k", 1.0) for t in (199, 200, 200, 201, 400)]
        handler = rooteval_group(*self.MEDIAN)
        handler.on_events(events)
        assert [(r.start, r.end, r.contexts[0].count) for r in handler.pending] == [
            (0, 200, 1), (200, 400, 3),
        ]
        assert handler.buffers == {0: ([400], [1.0])}
        self.assert_same(self.MEDIAN, events, (5,))
        self.assert_same(self.MEDIAN, events, (1, 1, 1, 1, 1))

    def test_empty_batch(self):
        handler = rooteval_group(*self.MEDIAN)
        handler.on_events([])
        assert (handler.pending, handler.buffers, handler.window_start) == ([], {}, 0)
        assert handler.stats == EngineStats()
        self.assert_same(self.MEDIAN, [Event(250, "k", 1.0)], (0, 1, 0))

    def test_keyed_and_value_range_selections(self):
        queries = (
            Query.of("ma", WindowSpec.tumbling(300), AggFunction.MEDIAN,
                     selection=Selection(key="a")),
            Query.of("mb", WindowSpec.tumbling(300), AggFunction.MEDIAN,
                     selection=Selection(key="b", lo=2.0, hi=6.0)),
            Query.of(
                "cb", WindowSpec.tumbling(4, measure=WindowMeasure.COUNT),
                AggFunction.SUM, selection=Selection(key="b", lo=2.0, hi=6.0),
            ),
        )
        events = [
            Event(17 * i, "abc"[i % 3], float(i % 8)) for i in range(90)
        ]
        reference = self.assert_same(queries, events, (40, 1, 49))
        # rows matching nothing ("c", or "b" outside the range) count nothing
        assert 0 < reference.stats.inserts < len(events) * 2 // 3
        assert reference.needs_timestamps

    def test_sliding_schedule_with_ragged_ends(self):
        # length % slide != 0: window ends (offset 100) cut between starts
        queries = (
            Query.of("s", WindowSpec.sliding(700, 300), AggFunction.MEDIAN),
            Query.of("q", WindowSpec.sliding(500, 200), AggFunction.QUANTILE,
                     quantile=0.9),
        )
        events = [Event(13 * i + (i % 5), "k", float(i % 17)) for i in range(200)]
        self.assert_same(queries, events, (64, 64, 72))
        self.assert_same(queries, events, (200,))
        handler = rooteval_group(*queries)
        handler.on_events(events)
        ends = {record.end for record in handler.pending}
        assert len(ends) > 20 and {end % 100 for end in ends} == {0}
        assert any(end % 300 and end % 200 for end in ends)  # a window *end*

    KEYED = (
        Query.of("ma", WindowSpec.tumbling(200), AggFunction.MEDIAN,
                 selection=Selection(key="a")),
        Query.of("mb", WindowSpec.tumbling(200), AggFunction.MEDIAN,
                 selection=Selection(key="b", lo=2.0, hi=6.0)),
    )
    #: needs_timestamps: every context ships ``(time, value)`` pairs
    COUNTED = KEYED + (
        Query.of("cb", WindowSpec.tumbling(4, measure=WindowMeasure.COUNT),
                 AggFunction.SUM, selection=Selection(key="b", lo=2.0, hi=6.0)),
    )
    #: a session watch: spans are tracked (and the per-event loop is kept)
    SPANNED = COUNTED + (
        Query.of("s", WindowSpec.session(150), AggFunction.MEDIAN,
                 selection=Selection(key="c")),
    )
    #: a whole context (takes every row) and its deduplicating twin, which
    #: the batched ingest routes row by row (a root-evaluated group ships
    #: every matching row to both)
    TWINS = MEDIAN + (
        Query.of("md", WindowSpec.tumbling(200), AggFunction.MEDIAN,
                 selection=Selection(deduplicate=True)),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.one_of(
                # ties on the slice boundaries, and either side of them
                st.sampled_from([0, 199, 200, 200, 201, 399, 400, 400, 1_000]),
                st.integers(0, 1_400),
            ),
            max_size=40,
        ).map(sorted),
        splits=st.lists(st.integers(0, 12), max_size=8),
        seed=st.integers(0, 2**16),
        queries=st.sampled_from([MEDIAN, KEYED, COUNTED, SPANNED, TWINS, TWINS[::-1]]),
    )
    # The session cut at 349 is found late, by the row at 399: the record
    # [349, 400) takes what is left of the open buffers, in their order.
    @example(
        times=[0, 0, 199, 199, 200, 200, 399, 399, 399],
        splits=[], seed=954, queries=SPANNED,
    )
    def test_any_stream_any_split_ships_what_the_rows_say(
        self, times, splits, seed, queries
    ):
        """Batched ingest equals per-event ingest, context order included,
        and both equal what the rows themselves say: every record holds
        exactly the matching rows of its interval -- one part per context
        that saw a row (merger and root fold per context), runs sorted,
        pairs in arrival order, spans first-to-last -- and no record
        straddles a 200 ms boundary."""
        rng = random.Random(seed)
        events = [
            Event(t, rng.choice("abc"), float(rng.randrange(8))) for t in times
        ]
        self.assert_same(queries, events, splits + [len(events)])

        handler = rooteval_group(*queries)
        done = 0
        for size in splits + [len(events)]:
            handler.on_events(events[done:done + size])
            done += size
        records = handler.flush(10_000).records
        matched = 0
        covered_to = 0
        for record in records:
            assert covered_to <= record.start < record.end
            assert record.start // 200 == (record.end - 1) // 200
            covered_to = record.end
            rows = [e for e in events if record.start <= e.time < record.end]
            expected = {}
            for event in rows:
                for ctx, selection in enumerate(handler.selections):
                    if selection.matches(event):
                        expected.setdefault(ctx, []).append(event)
            assert set(record.contexts) == set(expected)
            for ctx, part in record.contexts.items():
                mine = expected[ctx]
                assert part.count == len(mine)
                if handler.needs_timestamps:
                    assert part.timed == [(e.time, e.value) for e in mine]
                    assert not part.ops
                else:
                    assert part.timed is None
                    assert part.ops == {
                        K.NON_DECOMPOSABLE_SORT: sorted(e.value for e in mine)
                    }
                assert part.span == (
                    (mine[0].time, mine[-1].time) if handler.track_spans else None
                )
                matched += part.count
        assert matched == sum(
            selection.matches(event)
            for event in events
            for selection in handler.selections
        )

    def test_whole_contexts_take_the_run_without_routing(self, monkeypatch):
        """The router's classification decides here as in the engine: an
        all-whole group routes no row, a twin beside it routes its own
        rows only, and both ship per-event ingest's records."""
        routed = []
        candidates = SelectionRouter.candidates

        def counted(self, key):
            routed.append(key)
            return candidates(self, key)

        monkeypatch.setattr(SelectionRouter, "candidates", counted)
        events = [Event(13 * i, "abc"[i % 3], float(i % 8)) for i in range(120)]
        self.assert_same(self.MEDIAN, events, (50, 70))
        assert routed == []
        for queries in (self.TWINS, self.TWINS[::-1]):
            self.assert_same(queries, events, (50, 70))
            assert len(routed) >= len(events)  # every row, for the twin
            routed.clear()

    @pytest.mark.parametrize(
        "window",
        [WindowSpec.session(300), WindowSpec.user_defined(end_marker="end")],
        ids=["session", "user-defined"],
    )
    def test_data_driven_watch_keeps_the_per_event_loop(self, window, monkeypatch):
        queries = (
            Query.of("m", WindowSpec.tumbling(200), AggFunction.MEDIAN),
            Query.of("w", window, AggFunction.MEDIAN),
        )
        events = [
            Event(40 * i + (500 if i > 20 else 0), "k", float(i % 9),
                  "end" if i % 12 == 11 else None)
            for i in range(40)
        ]
        self.assert_same(queries, events, (15, 25))
        seen = []
        handler = rooteval_group(*queries)
        monkeypatch.setattr(handler, "on_event", seen.append)
        handler.on_events(events)
        assert seen == events


class TestShipperHalf:
    """The shipping half (``repro.cluster.roles``), held once for both of
    its users: the same retained batches and the same message from the
    parent leave a local and an intermediate in the same state."""

    QUERY = Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)
    #: the slice sequence the node's next upward batch of group 0 starts at
    NEXT_SEQ = {
        "local": lambda node: node.groups[0].ship_seq,
        "intermediate": lambda node: node.ship_seq[0],
    }

    def build(self, kind, **cfg):
        """A shipper ``n`` under parent ``p`` (adopter ``q`` standing by)
        that has shipped, and retained, one record per second up to 3 s."""
        config = ClusterConfig(**cfg)
        plan = analyze([self.QUERY], decentralized=True)
        net = SimNetwork(default_codec=BinaryCodec(), default_latency_ms=0.0)
        if kind == "local":
            node = LocalNode("n", "p", plan, config)
        else:
            node = IntermediateNode("n", "p", ["c"], plan, config)
        parents = {name: Inbox(name, NodeRole.ROOT) for name in ("p", "q")}
        for parent in parents.values():
            net.add_node(parent)
        net.add_node(node)
        net.connect("n", "p")
        net.connect("n", "q")
        node.retain_shipped()
        node._retained = [
            batch("n", seq, end, [record(end - 1_000, end, 1.0, 1)])
            for seq, end in enumerate((1_000, 2_000, 3_000))
        ]
        return net, node, parents

    @staticmethod
    def shipped(parent):
        return [
            (m.first_slice_seq, m.covered_to, [(r.start, r.end) for r in m.records])
            for m in parent.messages
        ]

    @shipper_kinds
    def test_checkpoint_trims_what_the_parent_holds_durably(self, kind):
        net, node, _ = self.build(kind)
        trim = CheckpointMessage(sender="p", checkpoint_id=1, at=0, safe_to={0: 2_000})
        node.on_message(trim, 0, net)
        assert [b.covered_to for b in node._retained] == [3_000]
        node.on_message(trim, 0, net)  # an older floor trims nothing more
        assert [b.covered_to for b in node._retained] == [3_000]

    @shipper_kinds
    def test_parent_restart_is_served_the_suffix_past_its_cursor(self, kind):
        net, node, parents = self.build(kind)
        node.on_message(
            ResyncMessage(sender="p", epoch=1, entries={0: (1, 1_000)}, recover=True),
            0,
            net,
        )
        net.run()
        # original sequence numbers: the merger prefix-drops any overlap
        assert self.shipped(parents["p"]) == [
            (1, 2_000, [(1_000, 2_000)]),
            (2, 3_000, [(2_000, 3_000)]),
        ]
        assert len(node._retained) == 3

    @shipper_kinds
    def test_failover_renumbers_the_suffix_past_the_adopters_floor(self, kind):
        net, node, parents = self.build(kind)
        node._retained[1].records.insert(0, record(900, 1_400, 1.0, 1))
        node.on_message(
            ResyncMessage(
                sender="q", epoch=1, entries={0: (0, 1_500)}, recover=True,
                new_parent="q",
            ),
            0,
            net,
        )
        net.run()
        assert node.parent == "q"
        assert parents["p"].messages == []
        # records at or below the floor pruned, the rest numbered from zero
        assert self.shipped(parents["q"]) == [
            (0, 2_000, [(1_000, 2_000)]),
            (1, 3_000, [(2_000, 3_000)]),
        ]
        assert [b.first_slice_seq for b in node._retained] == [0, 1]
        assert self.NEXT_SEQ[kind](node) == 2

    @shipper_kinds
    def test_retention_cap_evicts_oldest_first(self, kind):
        net, node, _ = self.build(kind, retention_limit=2)
        node._cap_retention()
        assert [b.covered_to for b in node._retained] == [2_000, 3_000]
        assert node.retention_evicted == 1
        node._cap_retention()
        assert node.retention_evicted == 1
