"""A session holds events between punctuations: lockstep against the
per-event engine.

``DesisSession.process`` holds an in-order event that fires no
punctuation (strictly before ``AggregationEngine.quiet_until()``) and
applies the held list through ``process_batch`` right before the first
event that may drain, at ``HOLD_CAP``, or before anything reads or
changes the engine.  None of that may show: after every call the rows so far (value,
order and ``emitted_at``) are those of an ``AggregationEngine`` fed the
same calls per event, stats read equal, and an out-of-order event or
watermark raises the same error in the same call.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine
from repro.core.errors import EngineError, OutOfOrderError
from repro.core.event import Event
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, SharingPolicy, WindowMeasure
from repro.interface import DesisSession
from repro.interface import session as session_module

F = AggFunction

#: fixed windows over whole, keyed, ranged and deduplicating contexts;
#: their punctuations sit on multiples of 10, where the streams tie
FIXED = [
    Query.of("tum", WindowSpec.tumbling(100), F.SUM),
    Query.of("sli-a", WindowSpec.sliding(200, 50), F.MAX,
             selection=Selection(key="a")),
    Query.of("sli-range", WindowSpec.sliding(150, 50), F.COUNT,
             selection=Selection(lo=2.0, hi=6.0)),
    Query.of("dedup", WindowSpec.tumbling(150), F.SUM,
             selection=Selection(deduplicate=True)),
    Query.of("med-b", WindowSpec.tumbling(100), F.MEDIAN,
             selection=Selection(key="b", deduplicate=True)),
    Query.of("avg-30", WindowSpec.tumbling(30), F.AVERAGE),
]
#: what a runtime ``submit`` draws from
LATE = [
    Query.of("late-avg", WindowSpec.tumbling(70), F.AVERAGE),
    Query.of("late-q", WindowSpec.sliding(120, 40), F.QUANTILE, quantile=0.25,
             selection=Selection(key="c")),
    Query.of("late-var", WindowSpec.tumbling(100), F.VARIANCE,
             selection=Selection(lo=0.0, hi=3.0, deduplicate=True)),
]

DTS = st.sampled_from([0, 0, 1, 3, 7, 10, 20, 25, 49, 50, 51, 100])
KEYS = st.sampled_from(["a", "b", "c"])

OPS = st.one_of(
    st.tuples(st.just("event"), DTS, KEYS, st.integers(0, 9), st.booleans()),
    st.tuples(st.just("late"), st.integers(1, 60), KEYS, st.integers(0, 9)),
    st.tuples(st.just("many"), st.lists(st.tuples(DTS, KEYS, st.integers(0, 9)),
                                        max_size=12)),
    st.tuples(st.just("advance"), st.integers(-20, 80)),
    st.tuples(st.just("submit"), st.integers(0, len(LATE) - 1)),
    st.tuples(st.just("remove"), st.integers(0, 20), st.booleans()),
    st.tuples(st.just("stats")),
)


def rows(results):
    return [(r.query_id, r.start, r.end, r.value, r.event_count, r.emitted_at)
            for r in results]


def same_call(session_call, engine_call):
    """Run both calls; they must return alike or raise the same error."""
    try:
        engine_call()
    except OutOfOrderError as exc:
        with pytest.raises(OutOfOrderError) as raised:
            session_call()
        assert str(raised.value) == str(exc)
    else:
        session_call()


class Lockstep:
    """A session and a per-event engine fed the same calls."""

    def __init__(self, queries, policy=SharingPolicy.FULL):
        self.session = DesisSession(config=EngineConfig(policy=policy))
        for query in queries:
            self.session.submit(query)
        self.engine = AggregationEngine(queries, config=EngineConfig(policy=policy))
        self.live = [query.query_id for query in queries]
        self.now = 0

    def event(self, time, key, value):
        event = Event(time, key, float(value))
        same_call(lambda: self.session.process(event),
                  lambda: self.engine.process(event))
        self.now = max(self.now, time)

    def apply(self, op):
        kind = op[0]
        if kind == "event":
            _, dt, key, value, twin = op
            self.event(self.now + dt, key, value)
            if twin:  # its exact twin: what a deduplicating context drops
                self.event(self.now, key, value)
        elif kind == "late":
            _, back, key, value = op
            self.event(self.now - back, key, value)
        elif kind == "many":
            events = []
            for dt, key, value in op[1]:
                self.now += dt
                events.append(Event(self.now, key, float(value)))
            self.session.process_many(events)
            for event in events:
                self.engine.process(event)
        elif kind == "advance":
            time = self.now + op[1]
            same_call(lambda: self.session.advance(time),
                      lambda: self.engine.advance(time))
            self.now = max(self.now, time)
        elif kind == "submit":
            query = LATE[op[1]]
            if query.query_id not in self.live:
                self.session.submit(query)
                self.engine.add_query(query)
                self.live.append(query.query_id)
        elif kind == "remove":
            _, index, drain = op
            if self.live:
                query_id = self.live.pop(index % len(self.live))
                self.session.remove(query_id, drain=drain)
                self.engine.remove_query(query_id, drain=drain)
        else:
            assert self.session.stats == self.engine.stats
        assert rows(self.session.results) == rows(self.engine.sink.results)
        # what the session holds by is never later than the engine's own
        # quiet time, read off the per-event twin (a change of queries
        # may have moved it earlier)
        if self.session._quiet is not None:
            quiet = self.engine.quiet_until()
            assert quiet is not None and self.session._quiet <= quiet

    def close(self):
        at = self.now + 500
        self.session.close(at)
        self.engine.close(at)
        assert rows(self.session.results) == rows(self.engine.sink.results)
        assert self.session.stats == self.engine.stats


class TestLockstep:
    @settings(deadline=None)
    @given(
        picked=st.sets(st.integers(0, len(FIXED) - 1), min_size=1),
        policy=st.sampled_from(tuple(SharingPolicy)),
        first=st.tuples(KEYS, st.integers(0, 9)),
        ops=st.lists(OPS, max_size=60),
        batch_min=st.sampled_from([1, session_module.BATCH_MIN]),
    )
    def test_random_calls_match_the_per_event_engine(
        self, picked, policy, first, ops, batch_min
    ):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(session_module, "BATCH_MIN", batch_min)
            pair = Lockstep([FIXED[i] for i in sorted(picked)], policy)
            pair.event(0, *first)
            for op in ops:
                pair.apply(op)
            pair.close()

    @settings(deadline=None)
    @given(ops=st.lists(OPS, max_size=60))
    def test_a_small_cap_flushes_often_and_shows_nothing(self, ops):
        """Every flush a batch, however short, and the cap hit often."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(session_module, "HOLD_CAP", 3)
            patch.setattr(session_module, "BATCH_MIN", 1)
            pair = Lockstep(FIXED[:3])
            pair.event(0, "a", 1)
            for op in ops:
                pair.apply(op)
            pair.close()

    def test_an_event_on_a_punctuation_emits_in_its_own_call(self):
        pair = Lockstep([FIXED[0]])
        for time in range(0, 100, 10):
            pair.event(time, "a", 1)
        assert pair.session.results == []
        assert len(pair.session._held) == 9
        pair.event(100, "a", 1)  # the tumbling window [0, 100) closes here
        assert rows(pair.session.results) == [("tum", 0, 100, 10.0, 10, 100)]
        assert pair.session._held == []

    def test_out_of_order_after_a_flush_still_raises(self):
        """Right after a flush the list is empty: the order check reads the
        last accepted time, not the list's tail."""
        pair = Lockstep([FIXED[0]])
        for time in (0, 50, 100):
            pair.event(time, "a", 1)
        assert pair.session._held == []
        with pytest.raises(OutOfOrderError,
                           match="t=99 arrived after stream time 100$"):
            pair.session.process(Event(99, "a", 1.0))
        pair.event(99, "a", 1)  # raises alike in both
        pair.apply(("stats",))
        pair.close()

    def test_out_of_order_applies_the_held_prefix_first(self):
        pair = Lockstep([FIXED[0]])
        for time in (0, 50, 60):
            pair.event(time, "a", 1)
        assert len(pair.session._held) == 2
        pair.event(55, "a", 1)  # raises alike in both: stream time 60
        assert pair.session._held == []
        pair.apply(("stats",))
        pair.close()


def spy(monkeypatch):
    """Record the size of every ``process_batch`` call and count the
    ``process`` calls of every ``AggregationEngine``."""
    batches: list[int] = []
    singles: list[int] = []
    process_batch = AggregationEngine.process_batch
    process = AggregationEngine.process

    def batched(self, events):
        batches.append(len(events))
        return process_batch(self, events)

    def single(self, event):
        singles.append(event.time)
        return process(self, event)

    monkeypatch.setattr(AggregationEngine, "process_batch", batched)
    monkeypatch.setattr(AggregationEngine, "process", single)
    return batches, singles


class TestCallCounts:
    def test_a_fixed_only_session_batches_only_when_a_flush_is_due(
        self, monkeypatch
    ):
        batches, singles = spy(monkeypatch)
        session = DesisSession()
        session.submit(Query.of("tum", WindowSpec.tumbling(100), F.SUM))
        for time in range(0, 1_000, 5):
            session.process(Event(time, "a", 1.0))
            if time % 100 == 95:  # held up to the next punctuation
                assert not batches or batches[-1] == 19
        # at each punctuation one batch of the 19 held events, then the
        # event at it alone
        assert singles == list(range(0, 1_000, 100))
        assert batches == [19] * 9
        session.process(Event(999, "a", 1.0))
        assert batches == [19] * 9
        assert session.stats.events == 201  # the read flushes first
        assert batches == [19] * 9 + [20]

    def test_the_cap_flushes_a_long_quiet_stretch(self, monkeypatch):
        batches, singles = spy(monkeypatch)
        monkeypatch.setattr(session_module, "HOLD_CAP", 16)
        session = DesisSession()
        session.submit(Query.of("tum", WindowSpec.tumbling(10_000), F.SUM))
        for time in range(100):
            session.process(Event(time, "a", 1.0))
        assert batches == [16] * 6
        session.close()
        # three left over: fewer than BATCH_MIN go per event
        assert batches == [16] * 6
        assert singles == [0, 97, 98, 99]

    @pytest.mark.parametrize("query", [
        Query.of("ses", WindowSpec.session(50), F.SUM),
        Query.of("cnt", WindowSpec.tumbling(5, measure=WindowMeasure.COUNT),
                 F.SUM),
        Query.of("trip", WindowSpec.user_defined("end"), F.SUM),
    ], ids=["session", "count", "user-defined"])
    def test_a_data_driven_query_holds_nothing(self, monkeypatch, query):
        batches, singles = spy(monkeypatch)
        session = DesisSession()
        session.submit(Query.of("tum", WindowSpec.tumbling(100), F.SUM))
        session.submit(query)
        for time in range(0, 1_000, 10):
            session.process(Event(time, "a", 1.0))
            assert session._held == []
        assert batches == []
        assert len(singles) == 100

    def test_removing_the_last_data_driven_query_starts_holding(
        self, monkeypatch
    ):
        batches, _ = spy(monkeypatch)
        session = DesisSession()
        session.submit(Query.of("tum", WindowSpec.tumbling(200), F.SUM))
        session.submit(Query.of("ses", WindowSpec.session(100), F.SUM))
        session.process(Event(0, "a", 1.0))
        session.remove("ses")
        for time in range(5, 200, 5):
            session.process(Event(time, "a", 1.0))
        # the removed session's end at 100 is still on the heap: a lower
        # bound, so one flush there, and the next one at 200
        assert batches == [19]
        assert len(session._held) == 19
        session.process(Event(200, "a", 1.0))
        assert batches == [19, 19]

    def test_a_query_submitted_after_a_stats_read_still_holds(
        self, monkeypatch
    ):
        """Reading ``stats`` builds the engine before any query; the one
        submitted next has no stream time to bootstrap at, so the quiet
        time is read again after the first event."""
        batches, singles = spy(monkeypatch)
        session = DesisSession()
        assert session.stats.events == 0
        session.submit(Query.of("tum", WindowSpec.tumbling(100), F.SUM))
        for time in range(0, 200, 5):
            session.process(Event(time, "a", 1.0))
        assert singles == [0, 100]
        assert batches == [19]
        assert len(session._held) == 19

    def test_a_sharded_session_holds_nothing(self):
        session = DesisSession(shards=2)
        assert session._quiet is None
        session.submit(Query.of("tum", WindowSpec.tumbling(100), F.SUM))
        try:
            for time in range(0, 300, 10):
                session.process(Event(time, "a", 1.0))
                assert session._held == []
        finally:
            session.close()

    def test_a_closed_session_holds_nothing_and_raises(self):
        session = DesisSession()
        session.submit(Query.of("tum", WindowSpec.tumbling(100), F.SUM))
        session.process(Event(0, "a", 1.0))
        session.close()
        with pytest.raises(Exception, match="closed"):
            session.process(Event(10, "a", 1.0))

    def test_a_closed_session_takes_no_query(self):
        session = DesisSession()
        session.submit(Query.of("tum", WindowSpec.tumbling(100), F.SUM))
        session.process(Event(0, "a", 1.0))
        session.close()
        with pytest.raises(EngineError, match="closed"):
            session.submit(Query.of("late", WindowSpec.tumbling(100), F.SUM))
        with pytest.raises(EngineError, match="closed"):
            session.remove("tum")
        assert [q.query_id for q in session.queries] == ["tum"]
