"""Shard-invariance parity: the sharded backend reproduces the engine.

The contract (DESIGN.md §13): for any fixed-time-window workload,
``ShardedEngine`` emits exactly the windows the in-process
``AggregationEngine`` would — byte-identical ``(query_id, start, end,
event_count, emitted_at)`` always; byte-identical values for operator
kinds whose merges are exact (count, extrema, sorted order statistics);
within 1e-9 relative for float folds, because the reduce recombines
per-shard partials in shard order rather than event order.  ``shards=1``
is byte-identical outright, and the same seed always yields the same
bytes.

The small cases here run in tier-1; the wide sweep is ``-m parallel``
(the weekly job).
"""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine
from repro.core.errors import EngineError, OutOfOrderError
from repro.core.event import Event
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure
from repro.datagen import DataGenerator, DataGeneratorConfig
from repro.interface import DesisSession
from repro.obs import TraceRecorder
from repro.parallel import ShardedEngine, shard_of

REL_TOL = 1e-9

#: float folds recombine across shards -> tolerance; everything else exact
FLOAT_FOLDS = {
    AggFunction.SUM,
    AggFunction.AVERAGE,
    AggFunction.PRODUCT,
    AggFunction.GEOMETRIC_MEAN,
    AggFunction.VARIANCE,
    AggFunction.STDDEV,
}


def stream(n=4_000, *, keys=6, rate=20_000.0, seed=7):
    config = DataGeneratorConfig(
        keys=tuple(f"k{i}" for i in range(keys)), rate=rate
    )
    return list(DataGenerator(config, seed=seed).events(n))


def queries_for(fn: AggFunction, *, quantile=None) -> list[Query]:
    return [
        Query.of("tum", WindowSpec.tumbling(500), fn, quantile=quantile),
        Query.of("sli", WindowSpec.sliding(800, 200), fn, quantile=quantile),
    ]


def rows_of(sink):
    rows = [
        (r.query_id, r.start, r.end, r.event_count, r.emitted_at, r.value)
        for r in sink.results
    ]
    rows.sort(key=lambda row: row[:5])
    return rows


def run_inline(queries, events):
    engine = AggregationEngine(queries)
    engine.process_batch(events)
    return rows_of(engine.close()), engine.stats


def run_sharded(queries, events, shards, **config):
    engine = ShardedEngine(
        queries, config=EngineConfig(shards=shards, **config)
    )
    engine.process_batch(events)
    sink = engine.close()
    return rows_of(sink), engine


def assert_rows_match(reference, rows, *, exact):
    assert len(reference) == len(rows)
    for ref, got in zip(reference, rows):
        assert ref[:5] == got[:5]
        rv, gv = ref[5], got[5]
        if exact or not isinstance(rv, float):
            assert rv == gv, (ref[:3], rv, gv)
        else:
            bound = REL_TOL * max(abs(rv), abs(gv), 1e-300)
            assert abs(gv - rv) <= bound, (ref[:3], rv, gv)


class TestParity:
    def test_shards_1_is_byte_identical_including_emitted_at(self):
        events = stream()
        queries = queries_for(AggFunction.AVERAGE)
        reference, ref_stats = run_inline(queries, events)
        rows, engine = run_sharded(queries, events, 1)
        assert rows == reference  # values bit-for-bit, emitted_at included
        assert engine.stats.events == ref_stats.events

    @pytest.mark.parametrize(
        "fn", [AggFunction.COUNT, AggFunction.MIN, AggFunction.MAX,
               AggFunction.MEDIAN]
    )
    def test_exact_kinds_are_byte_identical_at_4_shards(self, fn):
        events = stream()
        queries = queries_for(fn)
        reference, _ = run_inline(queries, events)
        rows, _ = run_sharded(queries, events, 4)
        assert_rows_match(reference, rows, exact=True)

    @pytest.mark.parametrize(
        "fn", [AggFunction.AVERAGE, AggFunction.SUM, AggFunction.VARIANCE]
    )
    def test_float_folds_stay_within_1e9_at_4_shards(self, fn):
        events = stream()
        queries = queries_for(fn)
        reference, _ = run_inline(queries, events)
        rows, _ = run_sharded(queries, events, 4)
        assert_rows_match(reference, rows, exact=False)

    def test_quantile_is_exact_across_shards(self):
        events = stream()
        queries = queries_for(AggFunction.QUANTILE, quantile=0.9)
        reference, _ = run_inline(queries, events)
        rows, _ = run_sharded(queries, events, 3)
        assert_rows_match(reference, rows, exact=True)

    def test_same_seed_same_bytes(self):
        queries = queries_for(AggFunction.AVERAGE)
        first, _ = run_sharded(queries, stream(), 4)
        second, _ = run_sharded(queries, stream(), 4)
        assert repr(first) == repr(second)

    @pytest.mark.parametrize("shards, keys", [(4, 6), (3, 7), (3, 3)])
    def test_per_shard_events_partition_the_stream(self, shards, keys):
        events = stream(keys=keys)
        queries = queries_for(AggFunction.COUNT)
        reference, _ = run_inline(queries, events)
        rows, engine = run_sharded(queries, events, shards)
        assert_rows_match(reference, rows, exact=True)
        ss = engine.shard_stats
        expected = [0] * shards
        for event in events:
            expected[shard_of(event.key, shards)] += 1
        if keys == 3:  # crc32 gives shard 2 of 3 no key: it idles all run
            assert expected[2] == 0
        assert ss.events == expected
        # each row crossed exactly one pipe (a broadcast would read S x N)
        assert ss.rows_shipped == expected
        assert sum(ss.rows_shipped) == engine.stats.events == len(events)


class TestPartitionedFrames:
    """Frames carry only the owner's rows, but every shard gets every
    frame's watermarks — that is what keeps the cut schedule shared."""

    def test_a_shard_without_rows_in_a_frame_still_advances(self):
        # Key-sorted bursts and a 16-row frame: most frames hold rows of
        # one shard only, so the other must close windows on the
        # watermark alone — same window set, same emission order.
        owners = {}
        for i in range(40):
            owners.setdefault(shard_of(f"k{i}", 2), f"k{i}")
        events = [
            Event(10 * i, owners[(i // 48) % 2], float(i % 17))
            for i in range(1_200)
        ]
        queries = queries_for(AggFunction.MAX)
        inline = AggregationEngine(queries)
        inline.process_batch(events)
        expected = [
            (r.query_id, r.start, r.end, r.event_count, r.emitted_at, r.value)
            for r in inline.close().results
        ]
        for shards in (1, 2):
            engine = ShardedEngine(
                queries, config=EngineConfig(shards=shards, shard_batch_size=16)
            )
            for i in range(0, len(events), 100):
                engine.process_batch(events[i:i + 100])
            got = [
                (r.query_id, r.start, r.end, r.event_count, r.emitted_at, r.value)
                for r in engine.close().results
            ]
            assert got == expected  # unsorted: emission order included
            assert engine.shard_stats.frames == 1_200 // 16 + 1  # + close
            assert sum(engine.shard_stats.rows_shipped) == len(events)

    def test_ragged_chunks_and_per_event_feed_cut_the_same_frames(self):
        events = stream(3_000)
        queries = queries_for(AggFunction.AVERAGE)
        outcomes = []
        for feed in ("batch", "ragged", "per-event"):
            engine = ShardedEngine(
                queries, config=EngineConfig(shards=2, shard_batch_size=256)
            )
            if feed == "batch":
                engine.process_batch(events)
            elif feed == "ragged":
                cuts = [0, 1, 255, 256, 257, 1_000, 1_001, 2_999, 3_000]
                for lo, hi in zip(cuts, cuts[1:]):
                    engine.process_batch(events[lo:hi])
            else:
                for event in events:
                    engine.process(event)
            rows = rows_of(engine.close())
            outcomes.append((rows, engine.shard_stats.frames,
                             engine.shard_stats.rows_shipped))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_markers_reach_the_owning_shards_dedup_signature(self):
        from repro.core.predicates import Selection

        events = []
        for i in range(400):
            key = f"k{i % 5}"
            events.append(Event(5 * i, key, float(i % 7)))
            events.append(Event(5 * i, key, float(i % 7), "m" if i % 2 else None))
        queries = [
            Query.of(
                "dd", WindowSpec.tumbling(250), AggFunction.COUNT,
                selection=Selection(deduplicate=True),
            )
        ]
        reference, ref_stats = run_inline(queries, events)
        rows, engine = run_sharded(queries, events, 3, shard_batch_size=64)
        assert_rows_match(reference, rows, exact=True)
        assert engine.stats.duplicates_dropped == ref_stats.duplicates_dropped == 200

    def test_batch_prefix_before_an_out_of_order_event_is_kept(self):
        queries = queries_for(AggFunction.COUNT)
        engine = ShardedEngine(queries, config=EngineConfig(shards=2))
        batch = [Event(10, "k0", 1.0), Event(20, "k1", 1.0), Event(15, "k0", 1.0)]
        with pytest.raises(OutOfOrderError):
            engine.process_batch(batch)
        with pytest.raises(OutOfOrderError):
            engine.process(Event(19, "k0", 1.0))  # the clock stands at 20
        engine.close()
        assert engine.stats.events == 2


class TestRestrictions:
    def test_session_windows_are_rejected(self):
        queries = [Query.of("s", WindowSpec.session(300), AggFunction.COUNT)]
        with pytest.raises(EngineError, match="fixed"):
            ShardedEngine(queries, config=EngineConfig(shards=2))

    def test_count_measure_windows_are_rejected(self):
        queries = [
            Query.of(
                "c",
                WindowSpec.tumbling(10, measure=WindowMeasure.COUNT),
                AggFunction.COUNT,
            )
        ]
        with pytest.raises(EngineError, match="fixed"):
            ShardedEngine(queries, config=EngineConfig(shards=2))

    def test_out_of_order_events_raise_in_the_parent(self):
        queries = queries_for(AggFunction.COUNT)
        engine = ShardedEngine(queries, config=EngineConfig(shards=2))
        engine.process(Event(100, "k0", 1.0))
        try:
            with pytest.raises(OutOfOrderError):
                engine.process(Event(50, "k1", 1.0))
        finally:
            engine.close()

    def test_trace_recorder_with_shards_is_rejected(self):
        with pytest.raises(EngineError, match="tracing"):
            DesisSession(
                config=EngineConfig(shards=2), recorder=TraceRecorder()
            )

    def test_submit_on_running_sharded_session_is_rejected(self):
        session = DesisSession(shards=2)
        session.submit("SELECT COUNT(value) FROM stream WINDOW TUMBLING 1s")
        session.process(Event(10, "k0", 1.0))
        try:
            with pytest.raises(EngineError):
                session.submit(
                    "SELECT AVG(value) FROM stream WINDOW TUMBLING 2s"
                )
        finally:
            session.close()


class TestSessionSurface:
    def test_session_shard_stats_and_results(self):
        session = DesisSession(shards=3)
        session.submit("SELECT AVG(value) FROM stream WINDOW TUMBLING 500ms")
        session.process_many(stream(2_000))
        results = session.close()
        assert results
        ss = session.shard_stats
        assert ss is not None and ss.shards == 3
        assert sum(ss.events) == 2_000
        assert session.stats.results == len(results)

    def test_session_shards_match_inline_session(self):
        text = "SELECT MAX(value) FROM stream WINDOW SLIDING 1s EVERY 250ms"
        inline = DesisSession()
        inline.submit(text)
        inline.process_many(stream(2_000))
        sharded = DesisSession(shards=2)
        sharded.submit(text)
        sharded.process_many(stream(2_000))
        assert rows_of(inline.close()) == rows_of(sharded.close())


@pytest.mark.parallel
class TestWideSweep:
    """The full function × shard-count sweep (weekly job)."""

    @pytest.mark.parametrize("shards", [2, 3, 4, 6])
    @pytest.mark.parametrize("fn", list(AggFunction))
    def test_every_function_every_width(self, fn, shards):
        quantile = 0.25 if fn is AggFunction.QUANTILE else None
        lo, hi = (0.5, 1.5) if fn in (
            AggFunction.PRODUCT, AggFunction.GEOMETRIC_MEAN
        ) else (0.0, 100.0)
        config = DataGeneratorConfig(
            keys=tuple(f"k{i}" for i in range(9)), rate=20_000.0,
            value_lo=lo, value_hi=hi,
        )
        events = list(DataGenerator(config, seed=11).events(8_000))
        queries = queries_for(fn, quantile=quantile)
        reference, _ = run_inline(queries, events)
        rows, _ = run_sharded(queries, events, shards)
        assert_rows_match(reference, rows, exact=fn not in FLOAT_FOLDS)
