"""The per-event path pays for what the event does — and does what it did.

``GroupRuntime.process`` tests for a due punctuation inline (one compare
per drain mode) and runs the data-driven passes only while the group has
a session, user-defined or count tracker.  :func:`parent_process` keeps
the body it replaced (commit 02a0e3e: unconditional ``_drain``, both
passes on every event, one slice insert per matched context) test-side,
verbatim but for that insert — ``Slice.insert`` is gone, and a one-value
``Slice.insert_run`` does what it did — as the reference: after every
event the runtime under test
must stand exactly where the reference stands — rows, ``EngineStats``,
heap layout, trackers — in all three drain modes, and the assembled
results must be the naive oracle's.  The call-count pins at the bottom
keep the flattening from silently growing back.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.conformance.oracle import naive_results
from repro.core.analyzer import analyze
from repro.core.engine import (
    _SESSION_EP,
    AggregationEngine,
    EngineStats,
    GroupRuntime,
)
from repro.core.errors import OutOfOrderError
from repro.core.event import Event
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.results import ResultSink
from repro.core.types import AggFunction, WindowMeasure

from tests.core.test_batch_parity import heap_state, result_key, tracker_state
from tests.core.test_slicing_grid import Cuts


def parent_process(self: GroupRuntime, event: Event) -> None:
    """``GroupRuntime.process`` as it was at commit 02a0e3e."""
    time = event.time
    if not self._bootstrapped:
        self._bootstrap(time)
    elif self.stream_time is not None and time < self.stream_time:
        raise OutOfOrderError(
            f"event at t={time} arrived after stream time {self.stream_time}"
        )
    self.stream_time = time
    self._drain(time)

    selections = self.selections
    matched: list[int] = [
        index
        for index, selection in enumerate(selections)
        if selection.matches(event)
    ]
    self.stats.selection_checks += len(selections)
    if self._dedup_ctxs and matched:
        matched = self._apply_dedup(
            (time, event.key, event.value, event.marker), matched
        )

    data_driven = bool(self.sessions or self.userdef or self.counts)
    matched_set: frozenset[int] | set[int] = (
        set(matched) if data_driven else frozenset()
    )

    sps: list = []
    if data_driven:
        for tracker in self.sessions:
            if tracker.ctx in matched_set and tracker.window is None:
                sps.append(self._make_session_opener(tracker, time))
        for tracker in self._userdef_closed:
            if tracker.opens_at(event):
                sps.append(self._make_userdef_opener(tracker, time))
        for tracker in self.counts:
            if tracker.ctx in matched_set and tracker.opens_now():
                sps.append(self._make_count_opener(tracker, time))
    if sps:
        self._cut(time, [], sps)

    if matched:
        current = self.current
        operators = self.operators
        for ctx in matched:
            current.insert_run(ctx, (event.value,), operators)
        self.stats.inserts += len(matched)
        self.stats.calculations += len(matched) * len(operators)
        if self.track_spans:
            spans = self._spans
            for ctx in matched:
                span = spans.get(ctx)
                if span is None:
                    spans[ctx] = [time, time]
                else:
                    span[1] = time

    eps: list = []
    if data_driven:
        for tracker in self.sessions:
            if tracker.ctx in matched_set and tracker.window is not None:
                tracker.touch(time)
                if self.mode == "heap":
                    if not tracker.armed:
                        tracker.armed = True
                        self._push(
                            tracker.tentative_end,
                            _SESSION_EP,
                            (tracker, tracker.generation),
                        )
                elif (
                    self._scan_next is None
                    or tracker.tentative_end < self._scan_next
                ):
                    self._scan_next = tracker.tentative_end
        for tracker in self.counts:
            if tracker.ctx in matched_set:
                for window in tracker.record():
                    eps.append((window, time))
        if event.marker is not None:
            for tracker in self.userdef:
                if tracker.closes_at(event):
                    eps.append((tracker.window, time))
                    tracker.window = None
                    self._userdef_closed.append(tracker)
    if eps:
        self._cut(time, eps, [])


#: drain mode -> what makes a ``GroupRuntime`` drain that way
MODES = {
    "heap": dict(punctuation_mode="heap"),
    "grid": dict(punctuation_mode="heap", assemble=False),
    "scan": dict(punctuation_mode="scan"),
}


class Driven(Cuts):
    """One single-group runtime in one drain mode, fed one event at a time
    through ``process`` (the method under test, or the reference)."""

    def __init__(self, mode: str, queries, process) -> None:
        (group,) = analyze(queries).groups
        self.calls: list[tuple] = []
        self.stats = EngineStats()
        self.sink = ResultSink()
        self.runtime = GroupRuntime(
            group, self.sink, self.stats, slice_sink=self._on_cut,
            track_spans=True, **MODES[mode],
        )
        self._process = process

    def feed(self, event: Event) -> None:
        self._process(self.runtime, event)

    def snapshot(self) -> tuple:
        """Everything an event may move: rows, counters, punctuations."""
        runtime = self.runtime
        return (
            [result_key(r) for r in self.sink.results],
            list(self.calls),
            runtime.stats,
            heap_state(runtime),
            (runtime._seq, runtime._scan_next, runtime._grid_next,
             [(t.ctx, t.length, t.slide) for t in runtime._joining]),
            tracker_state(runtime),
            [(t.ctx, t.seen, len(t.open_windows)) for t in runtime.counts],
            [(t.ctx, t.window is None) for t in runtime.userdef],
            (runtime.current.index, runtime.current.start, runtime.slice_seq,
             sorted(runtime.open_windows), len(runtime.store)),
            {ctx: (s.inserts, s.partials())
             for ctx, s in runtime.current.contexts.items()},
            {ctx: tuple(span) for ctx, span in runtime._spans.items()},
        )


def lockstep(mode, queries, events, actions=None, close_at=None):
    """Feed both runtimes the same events (``actions``: index -> callbacks
    applied before that event), comparing them after every step."""
    actions = actions or {}
    new = Driven(mode, queries, GroupRuntime.process)
    old = Driven(mode, queries, parent_process)
    for index, event in enumerate(events):
        for action in actions.get(index, ()):
            action(new)
            action(old)
        new.feed(event)
        old.feed(event)
        assert new.snapshot() == old.snapshot(), (mode, index, event)
    for action in actions.get(len(events), ()):
        action(new)
        action(old)
    new.runtime.close(close_at)
    old.runtime.close(close_at)
    assert new.snapshot() == old.snapshot(), (mode, "close")
    return new


def assert_oracle(driven: Driven, queries, events) -> None:
    for query in queries:
        got = [
            (r.start, r.end, r.value, r.event_count)
            for r in driven.sink.for_query(query.query_id)
        ]
        expected = naive_results(query, events)
        assert [(s, e, n) for s, e, _, n in got] == [
            (s, e, n) for s, e, _, n in expected
        ], query.query_id
        for (_, _, value, _), (_, _, wanted, _) in zip(got, expected):
            assert value == pytest.approx(wanted), query.query_id


def on(key: str | None) -> Selection:
    return Selection(key=key)


#: fixed punctuations on every multiple of 100 past the first event (window
#: starts) and, from 250 on, on the 50s in between (the ragged window's ends)
FIXED = (
    Query.of("tum", WindowSpec.tumbling(200), AggFunction.AVERAGE, selection=on("b")),
    Query.of("sli", WindowSpec.sliding(300, 100), AggFunction.MAX, selection=on("b")),
    Query.of("rag", WindowSpec.sliding(250, 100), AggFunction.SUM, selection=on("a")),
)
SESSION = Query.of("ses", WindowSpec.session(150), AggFunction.SUM, selection=on("a"))
COUNT = Query.of(
    "cnt", WindowSpec.sliding(3, 2, measure=WindowMeasure.COUNT),
    AggFunction.COUNT, selection=on("b"),
)
USERDEF = Query.of(
    "usr", WindowSpec.user_defined(end_marker="end"), AggFunction.MIN,
    selection=on("a"),
)
#: a joiner brings a tracker (hence punctuations) nothing else has
LATE = (
    Query.of("late-tum", WindowSpec.tumbling(70), AggFunction.SUM, selection=on("b")),
    Query.of("late-ses", WindowSpec.session(60), AggFunction.COUNT, selection=on("b")),
    Query.of("late-cnt", WindowSpec.tumbling(2, measure=WindowMeasure.COUNT),
             AggFunction.SUM, selection=on("a")),
)


@st.composite
def scenarios(draw):
    """Streams that sit on the boundaries: every step either lands one
    before / exactly on / one after the next fixed punctuation, or moves
    by a gap around the session timeouts (150 and 60 ms)."""
    queries = list(FIXED) + draw(st.lists(
        st.sampled_from([SESSION, COUNT, USERDEF]), unique=True, max_size=3,
    ))
    origin = draw(st.sampled_from([0, 7]))
    time = origin
    events = []
    for _ in range(draw(st.integers(1, 40))):
        if events:
            if draw(st.booleans()):
                edge = origin + ((time - origin) // 50 + 1) * 50
                time = max(time, edge + draw(st.sampled_from([-1, 0, 1])))
            else:
                time += draw(st.sampled_from(
                    [0, 1, 49, 59, 60, 61, 99, 100, 149, 150, 151, 400]
                ))
        events.append(Event(
            time, draw(st.sampled_from("abc")), float(draw(st.integers(-3, 9))),
            draw(st.sampled_from([None, None, None, "end"])),
        ))
    index = st.integers(1, len(events))
    actions: dict[int, list] = {}
    for query in draw(st.lists(st.sampled_from(LATE), unique=True, max_size=2)):
        joined = draw(index)
        actions.setdefault(joined, []).append(lambda d, q=query: d.attach(q))
        if draw(st.booleans()):
            actions.setdefault(draw(st.integers(joined, len(events))), []).append(
                lambda d, q=query: d.detach(q.query_id)
            )
    return queries, events, actions


def joins_on_a_grid_point(driven: Driven) -> None:
    driven.attach(LATE[0])


class TestProcessStandsWhereTheParentStood:
    @settings(max_examples=150, deadline=None)
    @given(scenario=scenarios(), mode=st.sampled_from(sorted(MODES)))
    # exactly on a fixed punctuation, both sides of it, and a tie
    @example(
        scenario=(list(FIXED), [Event(t, "b", 1.0) for t in (0, 99, 100, 100, 101, 199, 200)], {}),
        mode="heap",
    )
    def test_any_stream_on_the_boundaries(self, scenario, mode):
        queries, events, actions = scenario
        driven = lockstep(mode, queries, events, actions)
        if driven.runtime.assemble:
            # late queries cut slices but move no other query's windows
            assert_oracle(driven, queries, events)

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_around_a_fixed_punctuation(self, mode, delta):
        events = [Event(t, "b", float(t % 5)) for t in (0, 40, 100 + delta, 320)]
        driven = lockstep(mode, FIXED, events)
        # the punctuation at 100 is exclusive: only the row at 99 is in
        # the slice it closes
        rows = {
            (start, end): sum(counts.values())
            for _, start, end, _, counts, *_ in driven.calls
        }
        assert rows[0, 100] == (3 if delta < 0 else 2)
        assert rows[100, 200] == (0 if delta < 0 else 1)
        if mode != "grid":
            assert_oracle(driven, FIXED, events)

    @pytest.mark.parametrize("mode", sorted(MODES))
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_around_a_session_end(self, mode, delta):
        # the session of key "a" last touched at 10 ends at 160
        queries = [SESSION]
        events = [Event(0, "a", 1.0), Event(10, "a", 2.0),
                  Event(160 + delta, "a", 4.0), Event(161 + delta, "c", 0.0)]
        driven = lockstep(mode, queries, events)
        ends = [data_driven for *_, data_driven, _ in driven.calls if data_driven]
        if delta < 0:  # still inside the gap: one session, open to the last row
            assert ends == [[(("ses",), 0, 161 + delta)]]
        else:  # the end fired before the third event was inserted
            assert ends[0] == [(("ses",), 0, 160)]
        if mode != "grid":
            assert_oracle(driven, queries, events)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_tracker_joining_exactly_on_a_grid_point(self, mode):
        """A tracker attached at stream time 200 — a punctuation already
        cut — has its first punctuation there, and it is still due: the
        next event, at 200 or later, must drain it before it inserts."""
        events = [Event(t, "b", 1.0) for t in (0, 150, 200, 200, 205, 269, 270)]
        driven = lockstep(mode, FIXED, events, {3: [joins_on_a_grid_point]})
        if mode == "grid":
            assert driven.runtime.grid.after(200) == 250
        late = [
            (r.start, r.end, r.event_count)
            for r in driven.sink.for_query("late-tum")
        ]
        if mode != "grid":
            assert late == [(200, 270, 3), (270, 340, 1)]

    def test_scan_mode_with_no_cached_due_time(self):
        """``_scan_next is None`` forces the rescan: at the first event,
        and at the first one after ``add_query`` reset it."""
        events = [Event(t, "b", 1.0) for t in (0, 10, 20, 30, 130)]
        new = Driven("scan", FIXED, GroupRuntime.process)
        assert new.runtime._scan_next is None
        new.feed(events[0])
        assert new.runtime._scan_next == 100
        new.feed(events[1])
        new.attach(LATE[0])  # tumbling(70) from 10 on: due at 10, then at 80
        assert new.runtime._scan_next is None
        new.feed(events[2])
        assert new.runtime._scan_next == 80
        lockstep("scan", FIXED, events, {2: [joins_on_a_grid_point]})


def counting(monkeypatch, *names: str) -> dict[str, int]:
    """Count entries into ``GroupRuntime`` methods (patched on the class,
    before any runtime binds them)."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(GroupRuntime, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(GroupRuntime, name, counted)
    return calls


class TestCallCounts:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_nothing_due_enters_no_drain_and_no_cut(self, mode, monkeypatch):
        calls = counting(
            monkeypatch, "_drain_heap", "_drain_grid", "_drain_scan", "_cut"
        )

        def drains() -> int:
            return sum(n for name, n in calls.items() if name != "_cut")

        driven = Driven(mode, list(FIXED) + [SESSION], GroupRuntime.process)
        driven.feed(Event(0, "a", 1.0))
        driven.feed(Event(101, "b", 1.0))
        # the fixed windows' opening cut, the session's, the one at 100
        assert calls["_cut"] == 3
        before = dict(calls)
        drained = drains()
        # next punctuations: the session's end as armed at 0 (150), then 200
        for time in (101, 120, 149, 149):
            driven.feed(Event(time, "a", 2.0))
            driven.feed(Event(time, "c", 2.0))
        assert calls == before
        # a stale session end is due — drained, found extended, no cut
        driven.feed(Event(150, "c", 0.0))
        assert (drains(), calls["_cut"]) == (drained + 1, before["_cut"])
        driven.feed(Event(200, "c", 0.0))
        assert (drains(), calls["_cut"]) == (drained + 2, before["_cut"] + 1)

    @pytest.mark.parametrize(
        "window",
        [
            WindowSpec.session(150),
            WindowSpec.tumbling(3, measure=WindowMeasure.COUNT),
            WindowSpec.user_defined(end_marker="end"),
        ],
        ids=["session", "count", "user-defined"],
    )
    def test_data_driven_passes_run_only_beside_a_data_driven_tracker(
        self, window, monkeypatch
    ):
        calls = counting(monkeypatch, "_open_data_driven", "_close_data_driven")
        engine = AggregationEngine(
            [Query.of("tum", WindowSpec.tumbling(200), AggFunction.AVERAGE)]
        )
        events = iter(Event(7 * i, "k", float(i)) for i in range(1_000))

        def feed(count: int) -> None:
            for _ in range(count):
                engine.process(next(events))

        feed(60)
        assert set(calls.values()) == {0}
        engine.add_query(Query.of("w", window, AggFunction.AVERAGE))
        assert engine.group_count == 1
        feed(1)
        assert set(calls.values()) == {1}
        feed(39)
        assert set(calls.values()) == {40}
        engine.add_query(Query.of("w2", window, AggFunction.SUM))  # same tracker
        engine.remove_query("w")
        feed(10)
        assert set(calls.values()) == {50}
        engine.remove_query("w2")
        feed(60)
        assert set(calls.values()) == {50}
