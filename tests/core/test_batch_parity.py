"""Batched ingestion parity: ``process_batch`` == per-event ``process``.

The slice-run fast path must be *observationally invisible*: identical
results (same values, same order, same ``emitted_at`` stamps) and an
identical :class:`~repro.core.engine.EngineStats` — batched work is billed
as if it had been applied per event, because those counters are what
Figures 8–10 measure.  These tests sweep every window type, both
punctuation modes, every sharing policy, ragged batch boundaries, and
runtime query management mid-batch.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import AggregationEngine, EngineStats, GroupRuntime
from repro.core.errors import EngineError, OutOfOrderError
from repro.core.event import Event
from repro.core.predicates import Selection, SelectionRouter
from repro.core.query import Query, WindowSpec
from repro.core.results import ResultSink
from repro.core.types import AggFunction, SharingPolicy, WindowMeasure

from tests.conftest import make_stream

MODES = ("heap", "scan")
POLICIES = tuple(SharingPolicy)


def result_key(r):
    return (r.query_id, r.start, r.end, r.value, r.event_count, r.emitted_at)


def replay(queries, events, *, mode, policy=SharingPolicy.FULL, batch=None,
           actions=()):
    """Replay ``events``; return ``(results, stats)``.

    ``batch=None`` uses the per-event reference path; otherwise events go
    through ``process_batch`` in chunks of ``batch``.  ``actions`` is a
    list of ``(event_index, callback)`` pairs applied when the replay
    reaches that index (on the reference path, exactly between events; on
    the batched path, at the nearest preceding chunk boundary — callers
    align indices to chunk boundaries for strict parity).
    """
    engine = AggregationEngine(queries, policy=policy, punctuation_mode=mode)
    pending = sorted(actions, key=lambda pair: pair[0])
    i = 0
    while i < len(events):
        while pending and pending[0][0] <= i:
            pending.pop(0)[1](engine)
        if batch is None:
            engine.process(events[i])
            i += 1
        else:
            stop = min(i + batch, len(events))
            if pending:
                stop = min(stop, pending[0][0])
            engine.process_batch(events[i:stop])
            i = stop
    for _, action in pending:
        action(engine)
    engine.close()
    return [result_key(r) for r in engine.sink.results], engine.stats


def assert_parity(queries, events, *, policy=SharingPolicy.FULL, batches=(1, 7, 64, 100_000), actions=()):
    for mode in MODES:
        expected = replay(
            queries, events, mode=mode, policy=policy, actions=actions
        )
        for batch in batches:
            got = replay(
                queries, events, mode=mode, policy=policy, batch=batch,
                actions=actions,
            )
            assert got[0] == expected[0], (mode, batch, "results diverged")
            assert got[1] == expected[1], (mode, batch, "stats diverged")


FIXED_QUERIES = [
    Query.of("tum-avg", WindowSpec.tumbling(500), AggFunction.AVERAGE),
    Query.of("tum-sum", WindowSpec.tumbling(700), AggFunction.SUM),
    Query.of(
        "sli-max",
        WindowSpec.sliding(1_000, 250),
        AggFunction.MAX,
        selection=Selection(key="a"),
    ),
    Query.of(
        "sli-med",
        WindowSpec.sliding(600, 300),
        AggFunction.MEDIAN,
        selection=Selection(lo=10.0, hi=90.0),
    ),
]

#: one group: a whole context (pass-all, takes every row) first and its
#: deduplicating twin second, a routed context of the same rows
TWINS = [
    Query.of("all-sum", WindowSpec.tumbling(400), AggFunction.SUM),
    Query.of(
        "all-dedup",
        WindowSpec.sliding(600, 200),
        AggFunction.COUNT,
        selection=Selection(deduplicate=True),
    ),
]


def with_twins(events, every=3):
    """Every ``every``-th event followed by its exact twin (same time, key,
    value and marker): what a deduplicating context drops."""
    out = []
    for i, event in enumerate(events):
        out.append(event)
        if i % every == 0:
            out.append(event)
    return out


class TestFixedWindows:
    def test_tumbling_and_sliding_all_policies(self):
        events = make_stream(800)
        for policy in POLICIES:
            assert_parity(FIXED_QUERIES, events, policy=policy)

    def test_keyed_and_range_selections_with_dedup(self):
        events = make_stream(600, dt_choices=(0, 5, 10))  # duplicate times
        queries = FIXED_QUERIES + [
            Query.of(
                "dedup",
                WindowSpec.tumbling(400),
                AggFunction.SUM,
                selection=Selection(key="b", deduplicate=True),
            ),
        ]
        assert_parity(queries, events)

    def test_whole_context_beside_its_dedup_twin(self):
        events = with_twins(make_stream(600, dt_choices=(0, 5, 10)))
        for queries in (TWINS, TWINS[::-1], FIXED_QUERIES + TWINS):
            for policy in POLICIES:
                assert_parity(queries, events, policy=policy)

    def test_single_group_workload(self):
        # One query-group: the batched path skips synchronized chunking.
        events = make_stream(500)
        queries = [
            Query.of("t1", WindowSpec.tumbling(300), AggFunction.AVERAGE),
            Query.of("t2", WindowSpec.tumbling(600), AggFunction.AVERAGE),
        ]
        assert_parity(queries, events)


class TestDataDrivenWindows:
    """Markers and counts cut on the events themselves, so their groups
    fall back per event; sessions only *open* on an event and ride the
    slice-run kernel (``TestSessionRuns`` looks at their state).  Either
    way the batch must agree exactly."""

    def test_session_windows(self):
        events = make_stream(500, gap_every=40, gap_dt=5_000)
        queries = FIXED_QUERIES + [
            Query.of("ses", WindowSpec.session(1_000), AggFunction.SUM),
            Query.of(
                "ses-a",
                WindowSpec.session(2_000),
                AggFunction.AVERAGE,
                selection=Selection(key="a"),
            ),
        ]
        assert_parity(queries, events)

    def test_user_defined_windows(self):
        events = make_stream(500, marker_every=35)
        queries = FIXED_QUERIES + [
            Query.of(
                "trip",
                WindowSpec.user_defined("trip_end"),
                AggFunction.AVERAGE,
            ),
        ]
        assert_parity(queries, events)

    def test_count_windows(self):
        events = make_stream(500)
        queries = FIXED_QUERIES + [
            Query.of(
                "cnt",
                WindowSpec.tumbling(100, measure=WindowMeasure.COUNT),
                AggFunction.SUM,
            ),
            Query.of(
                "cnt-slide",
                WindowSpec.sliding(100, 40, measure=WindowMeasure.COUNT),
                AggFunction.MAX,
            ),
        ]
        assert_parity(queries, events)

    def test_everything_at_once(self):
        events = make_stream(600, gap_every=50, gap_dt=4_000, marker_every=45)
        queries = FIXED_QUERIES + [
            Query.of("ses", WindowSpec.session(1_500), AggFunction.SUM),
            Query.of(
                "trip", WindowSpec.user_defined("trip_end"), AggFunction.SUM
            ),
            Query.of(
                "cnt",
                WindowSpec.tumbling(80, measure=WindowMeasure.COUNT),
                AggFunction.AVERAGE,
            ),
        ]
        for policy in POLICIES:
            assert_parity(queries, events, policy=policy, batches=(13, 100_000))


class TestRecorderParity:
    """Tracing must be observationally invisible: same results and stats
    whether the recorder is the shared no-op (default) or fully enabled."""

    def _replay(self, events, *, batch, recorder):
        from repro.obs import TraceRecorder

        engine = AggregationEngine(
            FIXED_QUERIES,
            recorder=TraceRecorder() if recorder else None,
        )
        if batch is None:
            for event in events:
                engine.process(event)
        else:
            for i in range(0, len(events), batch):
                engine.process_batch(events[i:i + batch])
        engine.close()
        rows = [result_key(r) for r in engine.sink.results]
        return rows, engine.stats, engine.recorder

    def test_enabled_recorder_changes_nothing(self):
        events = make_stream(700)
        for batch in (None, 7, 100_000):
            base_rows, base_stats, _ = self._replay(
                events, batch=batch, recorder=False
            )
            rows, stats, recorder = self._replay(
                events, batch=batch, recorder=True
            )
            assert rows == base_rows, batch
            assert stats == base_stats, batch
            assert len(recorder) > 0  # and the trace actually recorded

    def test_default_recorder_is_the_shared_noop(self):
        from repro.obs import NULL_RECORDER

        engine = AggregationEngine(FIXED_QUERIES)
        assert engine.recorder is NULL_RECORDER
        for runtime in engine.groups:
            assert runtime.recorder is NULL_RECORDER


class TestRuntimeManagement:
    def test_add_query_mid_batch(self):
        events = make_stream(600)
        late = Query.of("late", WindowSpec.tumbling(400), AggFunction.SUM)
        actions = [(300, lambda engine: engine.add_query(late))]
        assert_parity(
            FIXED_QUERIES, events, batches=(10, 25, 100), actions=actions
        )

    def test_add_query_new_group_mid_batch(self):
        # MAX under SAME_FUNCTION sharing lands in a brand-new group,
        # exercising the fresh-GroupRuntime bootstrap path.
        events = make_stream(600)
        late = Query.of("late-max", WindowSpec.tumbling(400), AggFunction.MAX)
        actions = [(300, lambda engine: engine.add_query(late))]
        assert_parity(
            FIXED_QUERIES[:2],
            events,
            policy=SharingPolicy.SAME_FUNCTION,
            batches=(10, 50),
            actions=actions,
        )

    def test_remove_query_mid_batch(self):
        events = make_stream(600)
        for drain in (False, True):
            actions = [
                (
                    250,
                    lambda engine, drain=drain: engine.remove_query(
                        "tum-sum", drain=drain
                    ),
                )
            ]
            assert_parity(
                FIXED_QUERIES, events, batches=(10, 50, 125), actions=actions
            )

    def test_add_then_remove_mid_batch(self):
        events = make_stream(600)
        late = Query.of("late", WindowSpec.tumbling(300), AggFunction.AVERAGE)
        actions = [
            (200, lambda engine: engine.add_query(late)),
            (400, lambda engine: engine.remove_query("late")),
        ]
        assert_parity(
            FIXED_QUERIES, events, batches=(8, 40, 200), actions=actions
        )


class TestAddQueryBootstrap:
    """Regression: a runtime-added query opening a *new* group must join
    at the current stream time, not at the first post-add event."""

    def test_new_group_joins_at_stream_time(self):
        queries = [Query.of("sum", WindowSpec.tumbling(100), AggFunction.SUM)]
        engine = AggregationEngine(queries, policy=SharingPolicy.SAME_FUNCTION)
        engine.process(Event(time=950, key="a", value=1.0))
        late = Query.of("max", WindowSpec.tumbling(100), AggFunction.MAX)
        engine.add_query(late)
        target = next(
            g for g in engine.groups if "max" in {q.query_id for q in g.group.queries}
        )
        # The fresh runtime is anchored at the established stream time ...
        assert target.stream_time == 950
        # ... so feeding an *older* event is rejected like everywhere else.
        with pytest.raises(OutOfOrderError):
            engine.process(Event(time=900, key="a", value=1.0))

    def test_new_group_windows_align_with_stream(self):
        queries = [Query.of("sum", WindowSpec.tumbling(100), AggFunction.SUM)]
        engine = AggregationEngine(queries, policy=SharingPolicy.SAME_FUNCTION)
        engine.process(Event(time=955, key="a", value=1.0))
        engine.add_query(
            Query.of("max", WindowSpec.tumbling(100), AggFunction.MAX)
        )
        engine.process(Event(time=990, key="a", value=5.0))
        engine.process(Event(time=1_070, key="a", value=9.0))
        engine.close()
        max_results = [r for r in engine.sink.results if r.query_id == "max"]
        # Bootstrapping at the add-time stream time (955) anchors the new
        # group's window schedule there — [955, 1055), [1055, 1155), ... —
        # instead of at whatever event happens to arrive next (which would
        # have opened [990, 1090) and shifted every later window).
        assert [(r.start, r.end, r.value) for r in max_results] == [
            (955, 1_055, 5.0),
            (1_055, 1_155, 9.0),
        ]

    @pytest.mark.parametrize("batched", [False, True], ids=["per-event", "batched"])
    def test_new_group_runs_with_the_engine_config(self, batched):
        # The late query's selection matches no event, so every window it
        # emits is an empty one: it must emit exactly what it emits when
        # submitted up front (the first event sits at 0, so both window
        # schedules anchor there).
        base = Query.of("sum", WindowSpec.tumbling(100), AggFunction.SUM)
        late = Query.of("med", WindowSpec.tumbling(100), AggFunction.MEDIAN,
                        selection=Selection(key="zz"))
        events = [Event(time=t, key="a", value=1.0) for t in (0, 120, 250, 390)]
        emitted = []
        for up_front in (True, False):
            engine = AggregationEngine(
                [base, late] if up_front else [base], emit_empty=True
            )
            engine.process(events[0])
            if not up_front:
                engine.add_query(late)
                assert engine.group_count == 2
            if batched:
                engine.process_batch(events[1:])
            else:
                for event in events[1:]:
                    engine.process(event)
            engine.close()
            emitted.append([
                result_key(r) for r in engine.sink.results if r.query_id == "med"
            ])
        assert len(emitted[0]) == 4
        assert emitted[1] == emitted[0]

    def test_first_group_takes_the_configured_punctuation_mode(self):
        engine = AggregationEngine([], punctuation_mode="scan")
        engine.add_query(Query.of("sum", WindowSpec.tumbling(100), AggFunction.SUM))
        assert [g.mode for g in engine.groups] == ["scan"]


def columns_of(events):
    markers = {
        row: e.marker for row, e in enumerate(events) if e.marker is not None
    }
    return (
        [e.time for e in events],
        [e.key for e in events],
        [e.value for e in events],
        markers,
    )


def engine_state(engine):
    """What the next event would find: per group, the clock, the open
    slice's operator states (in context order: it becomes the partials'
    order on the wire), the open windows, the store, the span and dedup
    bookkeeping."""
    return [
        (
            g.stream_time,
            g.current.index,
            g.current.start,
            [(ctx, s.inserts, s.partials()) for ctx, s in g.current.contexts.items()],
            [(w.uid, w.ctx, w.start, w.end, w.first_slice) for w in g.open_windows.values()],
            len(g.store),
            g.slice_seq,
            g._spans,
            g._dedup_seen,
        )
        for g in engine.groups
    ]


class TestColumnKernel:
    """``process_columns`` — the entry the shard workers use — against
    per-event ``process``: results, state and every stats field."""

    def assert_columns_parity(self, queries, events, *, frames=(1, 7, 64, 100_000),
                              prepare=lambda engine: None):
        for mode in MODES:
            reference = AggregationEngine(queries, punctuation_mode=mode)
            prepare(reference)
            for event in events:
                reference.process(event)
            expected_state = engine_state(reference)
            reference.close()
            expected = [result_key(r) for r in reference.sink.results]
            for frame in frames:
                engine = AggregationEngine(queries, punctuation_mode=mode)
                prepare(engine)
                for i in range(0, len(events), frame):
                    engine.process_columns(*columns_of(events[i:i + frame]))
                assert engine_state(engine) == expected_state, (mode, frame)
                engine.close()
                got = [result_key(r) for r in engine.sink.results]
                assert got == expected, (mode, frame, "results diverged")
                assert engine.stats == reference.stats, (mode, frame)

    def test_key_and_range_selections(self):
        assert_parity(FIXED_QUERIES, make_stream(800))  # process_batch
        self.assert_columns_parity(FIXED_QUERIES, make_stream(800))

    def test_whole_and_routed_contexts(self):
        # a whole context's run and a routed twin's rows land in the slice
        # in the order per-event ingest opens their states
        events = with_twins(make_stream(600, dt_choices=(0, 5, 10)))
        for queries in (TWINS, TWINS[::-1], FIXED_QUERIES + TWINS):
            self.assert_columns_parity(queries, events)

    def test_columns_of_unequal_length_are_rejected_before_any_row_lands(self):
        engine = AggregationEngine(FIXED_QUERIES + TWINS)
        untouched = engine_state(engine)
        for columns in (
            ([10, 20], ["a", "a"], [1.0]),  # a short value column
            ([10], ["a"], [1.0, 2.0]),  # a long one
            ([10, 20], ["a"], [1.0, 2.0]),
        ):
            with pytest.raises(EngineError, match="unequal length"):
                engine.process_columns(*columns)
        assert engine.stats == EngineStats()
        assert engine_state(engine) == untouched
        engine.process_columns([10, 20], ["a", "b"], [1.0, 2.0])
        assert engine.stats.events == 2

    def test_dedup_signature_includes_the_marker(self):
        # Pairs of events equal in (time, key, value): a deduplicating
        # context drops the twin — unless the marker tells them apart.
        events = []
        for i in range(300):
            t, value = 10 * i, float(i % 13)
            events.append(Event(t, "b", value))
            events.append(Event(t, "b", value, "m" if i % 3 == 0 else None))
        queries = FIXED_QUERIES + [
            Query.of(
                "dedup",
                WindowSpec.tumbling(400),
                AggFunction.SUM,
                selection=Selection(key="b", deduplicate=True),
            ),
            Query.of(
                "dedup-range",
                WindowSpec.sliding(600, 200),
                AggFunction.COUNT,
                selection=Selection(lo=2.0, hi=11.0, deduplicate=True),
            ),
        ]
        self.assert_columns_parity(queries, events)

        def twins_dropped(pairs):  # one per deduplicating context matched
            return sum(1 + (2 <= i % 13 < 11) for i in pairs)

        marked = AggregationEngine(queries)
        marked.process_columns(*columns_of(events))
        assert marked.stats.duplicates_dropped == twins_dropped(
            i for i in range(300) if i % 3
        )
        # without the marker column every twin looks like a duplicate
        blind = AggregationEngine(queries)
        blind.process_columns(*columns_of(events)[:3])
        assert blind.stats.duplicates_dropped == twins_dropped(range(300))

    def test_track_spans(self):
        logs = []  # per engine built: every cut with its per-context spans

        def prepare(engine):
            cuts = []
            logs.append(cuts)
            for runtime in engine.groups:
                runtime.track_spans = True
                runtime.slice_sink = lambda closed, eps, spans: cuts.append(
                    (closed.index, closed.start, closed.end, list(closed.partials),
                     dict(spans))
                )

        frames = (1, 7, 64, 100_000)
        self.assert_columns_parity(
            FIXED_QUERIES + TWINS, with_twins(make_stream(600)), frames=frames,
            prepare=prepare,
        )
        per_mode = len(frames) + 1  # the per-event reference comes first
        assert len(logs) == per_mode * len(MODES)
        for first in range(0, len(logs), per_mode):
            reference = logs[first]
            assert any(spans for *_, spans in reference)
            for cuts in logs[first + 1:first + per_mode]:
                assert cuts == reference

    def test_run_boundary_exactly_on_a_punctuation(self):
        # Events *at* a window boundary belong to the next slice: the
        # bisect must put them in the following run, also when several
        # share the boundary timestamp and when it opens a frame.
        events = [
            Event(t, "a", float(i))
            for i, t in enumerate(
                [0, 499, 499, 500, 500, 500, 501, 999, 1_000, 1_000, 1_400,
                 1_500, 2_100, 2_100, 2_500]
            )
        ]
        queries = [
            Query.of("t500", WindowSpec.tumbling(500), AggFunction.SUM),
            Query.of("s1000", WindowSpec.sliding(1_000, 500), AggFunction.MAX),
        ]
        self.assert_columns_parity(queries, events, frames=(1, 2, 3, 4, 5, 100))

    def test_equal_timestamps_across_a_frame_boundary(self):
        events = make_stream(400, dt_choices=(0, 0, 5))  # long equal-time runs
        self.assert_columns_parity(FIXED_QUERIES, events, frames=(2, 3, 5, 11))

    def test_out_of_order_columns_are_rejected_before_any_row_lands(self):
        engine = AggregationEngine(FIXED_QUERIES)
        with pytest.raises(OutOfOrderError):
            engine.process_columns([10, 30, 20], ["a", "a", "a"], [1.0, 2.0, 3.0])
        assert engine.stats.events == 0 and engine.stats.inserts == 0
        engine.process_columns([10, 30], ["a", "a"], [1.0, 2.0])
        with pytest.raises(OutOfOrderError):  # behind the stream clock
            engine.process_columns([29], ["a"], [3.0])

    def test_data_driven_group_keeps_the_per_event_fallback(self):
        # SAME_FUNCTION sharing puts the session and count queries in
        # groups of their own, next to batch-eligible ones.
        events = make_stream(500, gap_every=40, gap_dt=5_000)
        queries = FIXED_QUERIES + [
            Query.of("ses", WindowSpec.session(1_000), AggFunction.COUNT),
            Query.of(
                "cnt",
                WindowSpec.tumbling(90, measure=WindowMeasure.COUNT),
                AggFunction.MIN,
            ),
        ]
        engine = AggregationEngine(queries, policy=SharingPolicy.SAME_FUNCTION)
        assert {g.batch_eligible for g in engine.groups} == {True, False}
        assert_parity(queries, events, policy=SharingPolicy.SAME_FUNCTION)
        with pytest.raises(EngineError, match="process_batch"):
            engine.process_columns(*columns_of(events))
        assert engine.stats.events == 0


def tracker_state(group):
    return [
        (
            t.ctx,
            None if t.window is None else (t.window.uid, t.window.start, t.window.first_slice),
            t.last_time,
            t.generation,
            t.armed,
        )
        for t in group.sessions
    ]


def heap_state(group):
    """The punctuation heap in its array layout: times, seqs, tags, and
    what each payload points at (a session entry's generation included)."""
    entries = []
    for time, seq, tag, payload in group._heap:
        if isinstance(payload, tuple):
            tracker, generation = payload
            what = ("session", tracker.ctx, tracker.gap, generation)
        elif hasattr(payload, "uid"):
            what = ("window", payload.uid, payload.start, payload.end)
        else:
            what = ("fixed", payload.ctx, payload.length, payload.slide)
        entries.append((time, seq, tag, what))
    return entries


def session_state(engine):
    return (
        engine_state(engine),
        [(tracker_state(g), heap_state(g), g._scan_next) for g in engine.groups],
        engine.stats,
    )


#: one FULL-policy group (key selections are pairwise disjoint); key "c"
#: matches nothing
SESSION_QUERIES = [
    Query.of("tum", WindowSpec.tumbling(400), AggFunction.AVERAGE,
             selection=Selection(key="b")),
    Query.of("sli", WindowSpec.sliding(900, 300), AggFunction.MAX,
             selection=Selection(key="b")),
    Query.of("ses", WindowSpec.session(100), AggFunction.COUNT,
             selection=Selection(key="b")),
    Query.of("ses-a", WindowSpec.session(250), AggFunction.SUM,
             selection=Selection(key="a")),
    Query.of("tum-a", WindowSpec.tumbling(500), AggFunction.MIN,
             selection=Selection(key="a")),
]
ABC = ("a", "b", "c")


def stream_of(rows):
    return [Event(time, key, float(n % 7)) for n, (time, key) in enumerate(rows)]


class TestSessionRuns:
    """Sessions inside the slice-run kernel: after every ``process_batch``
    call the engine is in the state per-event ``process`` reaches after
    the same rows — results, stats, heap, trackers, spans."""

    def assert_session_parity(self, queries, events, *, policy=SharingPolicy.FULL,
                              batches=(1, 13, 100_000), splits=(), track=False):
        splits = [list(s) for s in splits] + [
            list(range(batch, len(events), batch)) for batch in batches
        ]
        for mode in MODES:
            for split in splits:
                reference = AggregationEngine(queries, policy=policy, punctuation_mode=mode)
                engine = AggregationEngine(queries, policy=policy, punctuation_mode=mode)
                for e in (reference, engine):
                    for runtime in e.groups:
                        runtime.track_spans = track
                done = 0
                for stop in split + [len(events)]:
                    for event in events[done:stop]:
                        reference.process(event)
                    engine.process_batch(events[done:stop])
                    done = stop
                    assert session_state(engine) == session_state(reference), (mode, split, stop)
                reference.close()
                engine.close()
                got = [result_key(r) for r in engine.sink.results]
                assert got == [result_key(r) for r in reference.sink.results], (mode, split)
                assert engine.stats == reference.stats, (mode, split)

    def test_session_group_never_takes_the_per_event_path(self, monkeypatch):
        events = make_stream(400, keys=ABC, gap_every=40, gap_dt=1_000)
        reference = AggregationEngine(SESSION_QUERIES)
        for event in events:
            reference.process(event)
        reference.close()

        def refuse(self, event):
            raise AssertionError("process_batch fell back to process")

        monkeypatch.setattr(GroupRuntime, "process", refuse)
        engine = AggregationEngine(SESSION_QUERIES)
        assert [g.batch_eligible for g in engine.groups] == [True]
        for i in range(0, len(events), 50):
            engine.process_batch(events[i:i + 50])
        engine.close()
        assert [result_key(r) for r in engine.sink.results] == [
            result_key(r) for r in reference.sink.results
        ]
        assert engine.stats == reference.stats
        columns = AggregationEngine(SESSION_QUERIES)
        columns.process_columns(*columns_of(events))
        columns.close()
        assert columns.stats == reference.stats

    def test_opening_row_arms_the_end_before_the_next_deadline(self):
        # Rule 1: the row that opens a session cuts, and its end
        # punctuation (time + gap, the generation that row's touch gives)
        # is in the heap before any later row's run reads its deadline —
        # so the gap at 130 -> 300 cannot hide inside a run.
        events = stream_of([(30, "b"), (130, "b"), (300, "b"), (310, "b")])
        queries = [Query.of("ses", WindowSpec.session(100), AggFunction.COUNT)]
        engine = AggregationEngine(queries)
        engine.process_batch(events[:1])
        (group,) = engine.groups
        (tracker,) = group.sessions
        assert [(t, tag, p[1]) for t, _, tag, p in group._heap] == [(130, 2, 1)]
        assert (tracker.last_time, tracker.generation, tracker.armed) == (30, 1, True)
        engine.process_batch(events[1:])
        engine.close()  # ends the still-open session at the stream time
        assert [(r.start, r.end, r.value) for r in engine.sink.results] == [
            (30, 130, 1), (130, 230, 1), (300, 310, 2),
        ]
        self.assert_session_parity(queries, events, batches=(1, 2, 3, 100))

    def test_keyed_session_stays_closed_while_other_keys_flow(self):
        # Rule 2: rows of keys "b" and "c" never touch the "a" session;
        # the run ends at the first "a" row, which then opens it.
        rows = [(10 * i, "bc"[i % 2]) for i in range(40)]
        rows += [(400, "a"), (405, "b"), (410, "a")]
        rows += [(420 + 10 * i, "bc"[i % 2]) for i in range(60)]
        rows += [(1_020, "a"), (1_020, "a"), (1_030, "b")]
        events = stream_of(rows)
        self.assert_session_parity(SESSION_QUERIES, events, batches=(1, 13, 41, 100_000))
        engine = AggregationEngine(SESSION_QUERIES)
        engine.process_batch(events[:40])
        (group,) = engine.groups
        closed = group.sessions[1]
        assert (closed.window, closed.generation, closed.armed) == (None, 0, False)
        engine.process_batch(events[40:])
        assert (closed.window.start, closed.last_time, closed.generation) == (1_020, 1_020, 4)

    def test_gap_of_exactly_the_gap_length(self):
        # 100 ms after the last row the session has ended: a row stamped
        # exactly there opens the next one; 99 ms after still extends it.
        rows = [(0, "b"), (99, "b"), (199, "b"), (250, "b"), (350, "b"), (449, "b"),
                (900, "c")]
        events = stream_of(rows)
        self.assert_session_parity(SESSION_QUERIES, events, batches=(1, 2, 3, 100))
        engine = AggregationEngine(SESSION_QUERIES)
        engine.process_batch(events)
        engine.close()
        assert [(r.start, r.end) for r in engine.sink.results if r.query_id == "ses"] == [
            (0, 199), (199, 350), (350, 549),
        ]

    def test_gap_straddling_two_batches(self):
        events = make_stream(300, keys=ABC, gap_every=50, gap_dt=700)
        # every split point sits right at a gap: the last row before it
        # ends one call, the row after it (a session open) starts the next
        self.assert_session_parity(
            SESSION_QUERIES, events, batches=(), splits=[range(50, 300, 50)]
        )
        self.assert_session_parity(SESSION_QUERIES, events)

    def test_equal_timestamps_across_a_batch_boundary(self):
        events = make_stream(400, keys=ABC, dt_choices=(0, 0, 40), gap_every=45, gap_dt=300)
        self.assert_session_parity(SESSION_QUERIES, events, batches=(2, 3, 5, 11))

    def test_stale_end_punctuation_fires_mid_batch(self):
        # Rows every 60 ms keep a 100 ms session alive: each armed end
        # punctuation fires stale inside the batch and is re-armed at
        # last_time + gap with the generation of that moment (rule 3).
        rows = []
        for i in range(80):
            rows.append((60 * i, "b"))
            if i % 5 == 0:
                rows.append((60 * i + 1, "a"))
        events = stream_of(rows)
        self.assert_session_parity(SESSION_QUERIES, events, batches=(1, 13, 100_000))
        engine = AggregationEngine(SESSION_QUERIES)
        engine.process_batch(events)
        tracker = engine.groups[0].sessions[0]
        assert (tracker.last_time, tracker.generation) == (60 * 79, 80)
        assert tracker.window is not None and tracker.window.start == 0

    def test_deduplicating_session_context(self):
        # Twins of ordinary rows and, above all, of the rows that open the
        # deduplicating session: ``process`` files the opening row's
        # signature *before* its cut wipes the slice's seen-set, so the
        # first twin after an open is aggregated and only the second is
        # dropped.
        events, last_b, opens = [], None, 0
        for i, event in enumerate(make_stream(300, keys=ABC, gap_every=30, gap_dt=500)):
            twins = 1 if i % 4 == 0 else 0
            if event.key == "b":
                if last_b is None or event.time - last_b >= 150:
                    twins, opens = 2, opens + 1
                last_b = event.time
            events.extend([event] + [Event(event.time, event.key, event.value)] * twins)
        assert opens >= 8
        queries = SESSION_QUERIES + [
            Query.of(
                "ses-dedup", WindowSpec.session(150), AggFunction.SUM,
                selection=Selection(key="b", deduplicate=True),
            ),
            Query.of(
                "tum-dedup", WindowSpec.tumbling(300), AggFunction.COUNT,
                selection=Selection(key="a", deduplicate=True),
            ),
        ]
        assert len(AggregationEngine(queries).groups) == 1
        self.assert_session_parity(queries, events, batches=(1, 2, 13, 100_000))

    def test_spans_follow_the_session_cuts(self):
        events = make_stream(400, keys=ABC, gap_every=35, gap_dt=600)
        self.assert_session_parity(SESSION_QUERIES, events, track=True)

    def test_whole_session_beside_a_dedup_twin(self):
        # a pass-all session takes its runs whole (first row ``start``,
        # last ``stop - 1``) next to a deduplicating twin and keyed groups
        events = with_twins(make_stream(400, keys=ABC, gap_every=35, gap_dt=600))
        session = Query.of("ses-all", WindowSpec.session(150), AggFunction.MAX)
        for twins in (TWINS, TWINS[::-1]):
            queries = twins + [session] + SESSION_QUERIES
            assert len(AggregationEngine(queries).groups) == 2
            self.assert_session_parity(queries, events, track=True)

    def test_groups_interleave_as_per_event(self):
        # One group per query: a session opening in one group ends the
        # chunk for all of them, so results come out in per-event order.
        events = make_stream(500, keys=ABC, gap_every=40, gap_dt=900)
        queries = SESSION_QUERIES + [
            Query.of("ses-all", WindowSpec.session(180), AggFunction.MIN),
            Query.of("ses-long", WindowSpec.session(2_000), AggFunction.MAX,
                     selection=Selection(lo=20.0, hi=70.0)),
        ]
        engine = AggregationEngine(queries, policy=SharingPolicy.NONE)
        assert len(engine.groups) == len(queries)
        assert all(g.batch_eligible for g in engine.groups)
        self.assert_session_parity(queries, events, policy=SharingPolicy.NONE)
        for policy in POLICIES:
            assert_parity(queries, events, policy=policy, batches=(1, 13, 100_000))

    @settings(max_examples=60, deadline=None)
    @given(
        deltas=st.lists(
            st.sampled_from([0, 1, 20, 49, 50, 51, 99, 100, 101, 400]),
            min_size=1, max_size=80,
        ),
        keys=st.lists(st.sampled_from(ABC), min_size=80, max_size=80),
        cuts=st.sets(st.integers(1, 79), max_size=8),
    )
    def test_random_gap_streams_and_batch_splits(self, deltas, keys, cuts):
        times = [sum(deltas[:i + 1]) for i in range(len(deltas))]
        events = [
            Event(t, key, float(i % 5)) for i, (t, key) in enumerate(zip(times, keys))
        ]
        queries = [
            Query.of("tum", WindowSpec.tumbling(150), AggFunction.SUM,
                     selection=Selection(key="b")),
            Query.of("ses50", WindowSpec.session(50), AggFunction.COUNT,
                     selection=Selection(key="b")),
            Query.of("ses100-a", WindowSpec.session(100), AggFunction.MAX,
                     selection=Selection(key="a")),
            Query.of("ses100", WindowSpec.session(100), AggFunction.SUM),
        ]
        split = sorted(cut for cut in cuts if cut < len(events))
        self.assert_session_parity(queries, events, batches=(), splits=[split])


def spy_on_the_kernel(monkeypatch):
    """Count the rows routed through ``SelectionRouter.candidates`` and
    record ``(len(keys), len(times))`` of every slice-run (patched on the
    classes, before any runtime binds them)."""
    routed: list[str] = []
    columns: list[tuple[int, int]] = []
    candidates = SelectionRouter.candidates
    process_run = GroupRuntime._process_run

    def counted(self, key):
        routed.append(key)
        return candidates(self, key)

    def recorded(self, times, keys, *rest):
        columns.append((len(keys), len(times)))
        return process_run(self, times, keys, *rest)

    monkeypatch.setattr(SelectionRouter, "candidates", counted)
    monkeypatch.setattr(GroupRuntime, "_process_run", recorded)
    return routed, columns


class TestWholeContexts:
    """A context that takes every row takes its run whole: a group of
    such contexts routes no row and is handed no key column, however it
    is fed; one routed context brings both back."""

    #: one group of whole contexts, a session among them
    WHOLE = [
        Query.of("tum", WindowSpec.tumbling(400), AggFunction.AVERAGE),
        Query.of("sli", WindowSpec.sliding(600, 200), AggFunction.MAX),
        Query.of("ses", WindowSpec.session(150), AggFunction.SUM),
    ]

    def test_an_all_whole_group_routes_no_row_and_gets_no_keys(self, monkeypatch):
        events = make_stream(500, gap_every=40, gap_dt=1_000)
        routed, columns = spy_on_the_kernel(monkeypatch)
        engine = AggregationEngine(self.WHOLE)
        assert [g.reads_keys for g in engine.groups] == [False]
        assert_parity(self.WHOLE, events)
        (group,) = AggregationEngine(self.WHOLE).plan.groups
        runtime = GroupRuntime(group, ResultSink(), EngineStats(), assemble=False)
        runtime.process_batch(events)  # a local node's slicing runtime
        assert runtime.stats.inserts == len(events)
        assert routed == []
        assert columns and {keys for keys, _ in columns} == {0}

    @pytest.mark.parametrize(
        "extra",
        [
            Query.of("twin", WindowSpec.tumbling(400), AggFunction.COUNT,
                     selection=Selection(deduplicate=True)),
            Query.of("ses-a", WindowSpec.session(150), AggFunction.SUM,
                     selection=Selection(key="a")),
            Query.of("ranged", WindowSpec.tumbling(400), AggFunction.SUM,
                     selection=Selection(lo=10.0, hi=50.0)),
        ],
        ids=["dedup-twin", "keyed-session", "ranged"],
    )
    def test_a_routed_context_brings_the_row_loop_back(self, extra, monkeypatch):
        events = with_twins(make_stream(500, gap_every=40, gap_dt=1_000))
        queries = self.WHOLE + [extra]
        routed, columns = spy_on_the_kernel(monkeypatch)
        engine = AggregationEngine(queries)
        reads = [g.reads_keys for g in engine.groups]
        assert reads == ([True] if extra.selection.deduplicate else [False, True])
        assert_parity(queries, events)
        assert routed
        assert columns and all(keys == rows for keys, rows in columns)
