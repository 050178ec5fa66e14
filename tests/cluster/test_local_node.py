"""Unit tests for the local node's slicing and batching behaviour."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.analyzer import analyze
from repro.core.engine import EngineStats, GroupRuntime
from repro.core.event import Event
from repro.core.predicates import Selection, SelectionRouter
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, NodeRole, OperatorKind, WindowMeasure
from repro.cluster.config import ClusterConfig
from repro.cluster.intermediate import IntermediateNode
from repro.cluster.local import LocalNode, _LocalGroup
from repro.network.codec import BinaryCodec
from repro.network.messages import CheckpointMessage, ResyncMessage
from repro.network.simnet import SimNetwork

from tests.cluster.test_intermediate import Inbox, batch, record

K = OperatorKind

shipper_kinds = pytest.mark.parametrize("kind", ["local", "intermediate"])


def local_group(root_evaluated, *queries):
    plan = analyze(queries, decentralized=True)
    (group,) = [g for g in plan.groups if g.root_evaluated == root_evaluated]
    return _LocalGroup("local-0", group, 0, EngineStats())


def sliced_group(*queries):
    return local_group(False, *queries)


def rooteval_group(*queries):
    return local_group(True, *queries)


def local_node(*queries):
    """A local ``n`` under an :class:`Inbox` parent ``p``."""
    plan = analyze(queries, decentralized=True)
    net = SimNetwork(codec=BinaryCodec(), latency_ms=0.0)
    node = LocalNode("n", "p", plan, ClusterConfig())
    parent = Inbox("p", NodeRole.ROOT)
    net.add_node(parent)
    net.add_node(node)
    net.connect("n", "p")
    return net, node, parent


def ship(net, node, parent, now):
    """Tick ``node`` at ``now``; the batch its parent receives."""
    node.on_tick(now, net)
    net.run()
    return parent.messages.pop()


class TestSlicedLocalGroup:
    AVG = Query.of("avg", WindowSpec.tumbling(500), AggFunction.AVERAGE)

    def test_flush_ships_partials_not_events(self):
        net, node, parent = local_node(self.AVG)
        node.on_events([Event(t, "k", 2.0) for t in range(0, 1_000, 100)], 0, net)
        message = ship(net, node, parent, 1_000)
        assert message.covered_to == 1_000
        assert len(message.records) == 2  # two 500ms slices
        first = message.records[0]
        assert first.contexts[0].ops[K.SUM] == 10.0
        assert first.contexts[0].ops[K.COUNT] == 5
        assert first.contexts[0].count == 5

    def test_slice_seq_increments_across_flushes(self):
        net, node, parent = local_node(self.AVG)
        node.on_events([Event(100, "k", 1.0)], 0, net)
        first = ship(net, node, parent, 1_000)
        node.on_events([Event(1_100, "k", 1.0)], 1_000, net)
        second = ship(net, node, parent, 2_000)
        assert first.first_slice_seq == 0
        assert second.first_slice_seq == len(first.records)

    def test_empty_interval_still_advances_coverage(self):
        net, node, parent = local_node(self.AVG)
        message = ship(net, node, parent, 1_000)
        assert message.covered_to == 1_000
        assert message.records == []

    def test_session_groups_ship_activity_spans(self):
        handler = sliced_group(
            Query.of("s", WindowSpec.session(300), AggFunction.SUM)
        )
        handler.runtime.process_batch([Event(120, "k", 1.0), Event(180, "k", 1.0)])
        spans = [
            part.span
            for record in handler.drain(1_000)
            for part in record.contexts.values()
        ]
        assert (120, 180) in spans

    def test_userdef_eps_marked_on_slices(self):
        handler = sliced_group(
            Query.of(
                "u", WindowSpec.user_defined(end_marker="end"), AggFunction.SUM
            )
        )
        handler.runtime.process_batch([Event(100, "k", 1.0), Event(200, "k", 2.0, "end")])
        eps = [ep for record in handler.drain(1_000) for ep in record.userdef_eps]
        assert eps == [("u", 200)]


class TestRootEvalLocalGroup:
    def test_median_ships_sorted_values(self):
        handler = rooteval_group(
            Query.of("m", WindowSpec.tumbling(1_000), AggFunction.MEDIAN)
        )
        handler.runtime.process_batch(
            [Event(t, "k", v) for t, v in ((10, 5.0), (20, 1.0), (30, 3.0))]
        )
        (record,) = handler.drain(1_000)
        assert record.contexts[0].ops[K.NON_DECOMPOSABLE_SORT] == [1.0, 3.0, 5.0]

    def test_count_groups_ship_timestamps(self):
        handler = rooteval_group(
            Query.of(
                "c",
                WindowSpec.tumbling(10, measure=WindowMeasure.COUNT),
                AggFunction.SUM,
            )
        )
        handler.runtime.process_batch([Event(10, "k", 5.0)])
        (record,) = handler.drain(1_000)
        assert record.contexts[0].timed == [(10, 5.0)]
        assert not record.contexts[0].ops

    def test_boundary_event_kept_for_next_slice(self):
        handler = rooteval_group(
            Query.of("m", WindowSpec.tumbling(1_000), AggFunction.MEDIAN)
        )
        # the second event lies exactly at the tick
        handler.runtime.process_batch([Event(999, "k", 1.0), Event(1_000, "k", 2.0)])
        first = handler.drain(1_000)
        assert first[0].contexts[0].count == 1
        second = handler.drain(2_000)
        assert second[0].contexts[0].count == 1

    def test_event_on_a_tick_between_punctuations_joins_the_record_ending_there(self):
        handler = rooteval_group(
            Query.of("m", WindowSpec.tumbling(1_000), AggFunction.MEDIAN)
        )
        # the second event lies on a tick, not a punctuation
        handler.runtime.process_batch([Event(499, "k", 1.0), Event(500, "k", 2.0)])
        (record,) = handler.drain(500)
        assert (record.end, record.contexts[0].count) == (500, 2)

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
        handler.runtime.process_batch([Event(10, "a", 1.0), Event(20, "b", 2.0)])
        (record,) = handler.drain(1_000)
        assert len(record.contexts) == 2


def rooteval_state(handler):
    """The records staged so far and those a final drain takes, each with
    the context order it carries (the order the partials go on the wire
    in), and the counters at both points."""
    state = (
        list(handler.pending),
        [list(record.contexts) for record in handler.pending],
        replace(handler.runtime.stats),
    )
    records = handler.drain(10_000)
    return state + (
        records, [list(record.contexts) for record in records], handler.runtime.stats
    )


def open_slice(handler):
    """Where the open slice starts, and the rows each context holds."""
    current = handler.runtime.current
    return current.start, {
        ctx: state.inserts for ctx, state in current.contexts.items()
    }


class TestRootEvalBatchedIngest:
    """A group's runtime takes a batch through the slice-run kernel,
    which cuts by bisect on the time column; whatever the batch, it must
    ship exactly the records per-event ``GroupRuntime.process`` ships."""

    MEDIAN = (Query.of("m", WindowSpec.tumbling(200), AggFunction.MEDIAN),)

    def assert_same(self, queries, events, batches):
        reference = rooteval_group(*queries)
        for event in events:
            reference.runtime.process(event)
        batched = rooteval_group(*queries)
        done = 0
        for size in batches:
            batched.runtime.process_batch(events[done:done + size])
            done += size
        assert done >= len(events)
        assert rooteval_state(batched) == rooteval_state(reference)
        return reference

    def test_batch_inside_one_slice(self):
        events = [Event(t, "k", float(t % 7)) for t in (10, 20, 20, 150, 199)]
        reference = self.assert_same(self.MEDIAN, events, (5,))
        # the bootstrap cut at the origin, then one per 200 ms up to the flush
        assert reference.runtime.stats.slices_closed == 1 + 10_000 // 200
        assert reference.runtime.stats.inserts == 5

    def test_batch_spanning_several_boundaries(self):
        # boundaries at 200, 400, ... — with slices that stay empty
        events = [Event(t, "k", float(t % 11)) for t in (5, 190, 210, 390, 1_010, 1_020, 1_630)]
        self.assert_same(self.MEDIAN, events, (7,))
        self.assert_same(self.MEDIAN, events, (2, 3, 2))
        handler = rooteval_group(*self.MEDIAN)
        handler.runtime.process_batch(events)
        assert [(r.start, r.end) for r in handler.drain(10_000)] == [
            (0, 200), (200, 400), (1_000, 1_200), (1_600, 1_800),
        ]

    def test_event_on_a_boundary_belongs_to_the_next_slice(self):
        events = [Event(t, "k", 1.0) for t in (199, 200, 200, 201, 400)]
        handler = rooteval_group(*self.MEDIAN)
        handler.runtime.process_batch(events)
        assert [(r.start, r.end, r.contexts[0].count) for r in handler.pending] == [
            (0, 200, 1), (200, 400, 3),
        ]
        assert open_slice(handler) == (400, {0: 1})
        self.assert_same(self.MEDIAN, events, (5,))
        self.assert_same(self.MEDIAN, events, (1, 1, 1, 1, 1))

    def test_empty_batch(self):
        handler = rooteval_group(*self.MEDIAN)
        handler.runtime.process_batch([])
        assert (handler.pending, open_slice(handler)) == ([], (0, {}))
        assert handler.runtime.stats == rooteval_group(*self.MEDIAN).runtime.stats
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
        assert 0 < reference.runtime.stats.inserts < len(events) * 2 // 3
        assert reference.runtime.track_times
        assert reference.runtime.counts == []  # only the root counts

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
        handler.runtime.process_batch(events)
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
    #: a session: spans are tracked, and the session's open and end cut
    SPANNED = COUNTED + (
        Query.of("s", WindowSpec.session(150), AggFunction.MEDIAN,
                 selection=Selection(key="c")),
    )
    #: a whole context (takes every row) and its deduplicating twin, which
    #: the batched ingest routes row by row
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
    # Key "c"'s session opens at 0, 199 and 399 and ends at 150 and 349:
    # its opens leave the rows before them on 0 and 399 in [0, 0) and
    # [349, 399).
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
        pairs in arrival order, spans first-to-last, a deduplicating
        context's repeats within the record dropped -- and no record
        straddles a 200 ms boundary."""
        rng = random.Random(seed)
        events = [
            Event(t, rng.choice("abc"), float(rng.randrange(8))) for t in times
        ]
        self.assert_same(queries, events, splits + [len(events)])

        handler = rooteval_group(*queries)
        runtime = handler.runtime
        done = 0
        for size in splits + [len(events)]:
            handler.runtime.process_batch(events[done:done + size])
            done += size
        records = handler.drain(10_000)
        #: per context, its matching rows not shipped yet, in arrival order
        queues = {
            ctx: [e for e in events if selection.matches(e)]
            for ctx, selection in enumerate(runtime.selections)
        }
        covered_to = 0
        for record in records:
            # a cut at a session's open leaves the rows before it on that
            # time in a zero-width record
            assert covered_to <= record.start <= record.end
            assert record.start // 200 == max(record.end - 1, record.start) // 200
            covered_to = record.end
            for ctx, queue in queues.items():
                part = record.contexts.get(ctx)
                count = part.count if part is not None else 0
                # Its rows: every one before its end, and of the ties on
                # its end those that came before the cut.
                mine = []
                while queue and (
                    queue[0].time < record.end
                    or (queue[0].time == record.end and len(mine) < count)
                ):
                    event = queue.pop(0)
                    assert event.time >= record.start
                    if not (runtime.selections[ctx].deduplicate and event in mine):
                        mine.append(event)
                assert len(mine) == count
                if part is None:
                    continue
                if runtime.track_times:
                    assert part.timed == [(e.time, e.value) for e in mine]
                    assert not part.ops
                else:
                    assert part.timed is None
                    assert part.ops == {
                        K.NON_DECOMPOSABLE_SORT: sorted(e.value for e in mine)
                    }
                assert part.span == (
                    (mine[0].time, mine[-1].time) if runtime.track_spans else None
                )
        assert not any(queues.values())

    def test_whole_contexts_take_the_run_without_routing(self, monkeypatch):
        """The router's classification decides: an all-whole group routes
        no row, a twin beside it routes its own rows only, and both ship
        per-event ingest's records."""
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

    @staticmethod
    def data_driven(window):
        queries = (
            Query.of("m", WindowSpec.tumbling(200), AggFunction.MEDIAN),
            Query.of("w", window, AggFunction.MEDIAN),
        )
        events = [
            Event(40 * i + (500 if i > 20 else 0), "k", float(i % 9),
                  "end" if i % 12 == 11 else None)
            for i in range(40)
        ]
        return queries, events

    def test_sessions_run_in_slice_runs(self, monkeypatch):
        """A session's open and end follow from the time column, so a
        session group takes the slice-run kernel."""
        queries, events = self.data_driven(WindowSpec.session(300))
        self.assert_same(queries, events, (15, 25))
        handler = rooteval_group(*queries)

        def refuse(runtime, event):
            raise AssertionError("process_batch fell back to process")

        monkeypatch.setattr(GroupRuntime, "process", refuse)
        handler.runtime.process_batch(events)

    def test_user_defined_runs_in_slice_runs(self, monkeypatch):
        """An end marker closes its window at the last row of a run, so a
        user-defined group takes the slice-run kernel too and ships what
        per-event ingest ships: the same ``userdef_eps``, each on a record
        whose end is the marker row's time + 1 (inclusive)."""
        queries, events = self.data_driven(WindowSpec.user_defined(end_marker="end"))
        reference = rooteval_group(*queries)
        for event in events:
            reference.runtime.process(event)
        expected = rooteval_state(reference)
        ends = [(record.userdef_eps, record.end) for record in expected[3]
                if record.userdef_eps]
        assert ends == [([("w", e.time)], e.time + 1) for e in events if e.marker]

        def refuse(runtime, event):
            raise AssertionError("process_batch fell back to process")

        monkeypatch.setattr(GroupRuntime, "process", refuse)
        for batches in ((40,), (15, 25), (11, 1, 11, 1, 16), (1,) * 40):
            handler = rooteval_group(*queries)
            done = 0
            for size in batches:
                handler.runtime.process_batch(events[done:done + size])
                done += size
            assert rooteval_state(handler) == expected, batches


class TestShipperHalf:
    """The shipping half (``repro.cluster.roles``), held once for both of
    its users: the same retained batches and the same message from the
    parent leave a local and an intermediate in the same state."""

    QUERY = Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)
    def build(self, kind, **cfg):
        """A shipper ``n`` under parent ``p`` (adopter ``q`` standing by)
        that has shipped, and retained, one record per second up to 3 s."""
        config = ClusterConfig(**cfg)
        plan = analyze([self.QUERY], decentralized=True)
        net = SimNetwork(codec=BinaryCodec(), latency_ms=0.0)
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
        assert node.ship_seq[0] == 2

    @shipper_kinds
    def test_retention_cap_evicts_oldest_first(self, kind):
        net, node, _ = self.build(kind, retention_limit=2)
        node._cap_retention()
        assert [b.covered_to for b in node._retained] == [2_000, 3_000]
        assert node.retention_evicted == 1
        node._cap_retention()
        assert node.retention_evicted == 1
