"""Parity tests for the window close (repro.core.incmerge).

Three layers of evidence for the Two-Stacks contract (DESIGN.md §9):

* :class:`FifoAggregator` against a brute-force fold over the live items,
  under randomized push/evict/query schedules, and the shared close
  helper against the plain scan where it must fall back to it;
* seeded randomized query mixes (length, slide, function, key selection)
  compared with the seed replica and the naive oracle — identical
  bounds/counts/ids, exact equality for COUNT/extrema/sorted results,
  1e-9 relative for float accumulators;
* the seed replica itself (:func:`seed_reference`, an independent fold of
  the closed slices' partials with ``merge_many_partials``, exactly what
  the seed engine's ``_close_window`` did): whatever the contract keeps
  exact must match it *byte for byte*.
"""

from __future__ import annotations

import dataclasses
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.oracle import naive_results
from repro.core.engine import AggregationEngine, EngineStats, GroupRuntime
from repro.core.analyzer import analyze
from repro.core.functions import finalize
from repro.cluster.cells import CellStore
from repro.core.grid import PunctuationGrid
from repro.core.incmerge import (
    DECOMPOSABLE_MERGE_KINDS,
    FifoAggregator,
    IncrementalMergeLayer,
)
from repro.core.operators import merge_many_partials, merge_partials
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.results import ResultSink
from repro.core.slices import Slice, SliceStore
from repro.core.types import AggFunction, OperatorKind, SharingPolicy
from repro.datagen import DataGenerator, DataGeneratorConfig
from repro.network.messages import ContextPartial, SliceRecord

from tests.conftest import make_stream, plain_scan

# -- helpers ------------------------------------------------------------------------

#: functions whose finalized result rides only comparison/integer operators
#: and must therefore be *exactly* equal to the plain fold
EXACT_FUNCTIONS = (AggFunction.COUNT, AggFunction.MAX, AggFunction.MIN,
                   AggFunction.MEDIAN)
#: float-accumulator functions: 1e-9 relative to the plain fold
FLOAT_FUNCTIONS = (AggFunction.SUM, AggFunction.AVERAGE, AggFunction.VARIANCE,
                   AggFunction.STDDEV)


def run_engine(queries, events):
    engine = AggregationEngine(list(queries))
    engine.process_batch(list(events))
    engine.close()
    return engine


def rows(engine, query_id):
    return [
        (r.start, r.end, r.value, r.event_count)
        for r in engine.sink.for_query(query_id)
    ]


def assert_rows_within_contract(query, left, right):
    """Same windows; values exact for count/extrema/sorted results, float
    folds within 1e-9 relative."""
    assert len(left) == len(right), query.query_id
    strict = query.function.fn in EXACT_FUNCTIONS or (
        query.function.fn is AggFunction.QUANTILE
    )
    for (ls, le, lv, ln), (rs, re_, rv, rn) in zip(left, right):
        assert (ls, le, ln) == (rs, re_, rn), query.query_id
        if strict or lv is None:
            assert lv == rv, query.query_id
        else:
            assert math.isclose(lv, rv, rel_tol=1e-9, abs_tol=1e-9), (
                f"{query.query_id}: {lv!r} vs {rv!r} in [{ls}..{le})"
            )


def assert_seed_parity(queries, events):
    """The engine against the seed replica, within the contract."""
    engine = run_engine(queries, events)
    expected = seed_reference(queries, events)
    for query in queries:
        assert_rows_within_contract(
            query, expected[query.query_id], rows(engine, query.query_id)
        )
    return engine


def scan_merge_ops(queries, events):
    """The ``merge_ops`` of the same run with every window closed by the
    plain scan: the partials it reads."""
    with plain_scan():
        return run_engine(queries, events).stats.merge_ops


def assert_matches_oracle(engine, queries, events):
    for query in queries:
        expected = naive_results(query, events)
        got = rows(engine, query.query_id)
        assert len(got) == len(expected), query.query_id
        for (gs, ge, gv, gn), (es, ee, ev_, en) in zip(got, expected):
            assert (gs, ge, gn) == (es, ee, en), query.query_id
            if ev_ is None:
                assert gv is None, query.query_id
            else:
                assert gv == pytest.approx(ev_), query.query_id


# -- FifoAggregator vs brute force --------------------------------------------------


def brute_force(items, kinds):
    """Oldest-to-newest fold of ``(pos, ops, count)`` items, the spec the
    Two-Stacks structure must match."""
    merged: dict[OperatorKind, object] = {}
    count = 0
    for _, ops, item_count in items:
        count += item_count
        for kind in kinds:
            part = ops.get(kind)
            if part is None and kind is not OperatorKind.DECOMPOSABLE_SORT:
                continue
            if kind in merged:
                merged[kind] = merge_partials(kind, merged[kind], part)
            else:
                merged[kind] = part
    return merged, count


def random_item(rng, pos, kinds):
    ops = {}
    for kind in kinds:
        if kind is OperatorKind.SUM:
            ops[kind] = float(rng.randrange(-50, 50))
        elif kind is OperatorKind.COUNT:
            ops[kind] = rng.randrange(0, 9)
        elif kind is OperatorKind.MULTIPLICATION:
            ops[kind] = 1.0 + rng.randrange(0, 4) / 16.0
        elif kind is OperatorKind.SUM_OF_SQUARES:
            ops[kind] = float(rng.randrange(0, 100))
        elif kind is OperatorKind.DECOMPOSABLE_SORT:
            if rng.random() < 0.2:
                ops[kind] = None
            else:
                lo = float(rng.randrange(-30, 30))
                ops[kind] = (lo, lo + rng.randrange(0, 10))
    return pos, ops, rng.randrange(0, 5)


class TestFifoAggregator:
    KINDS = (
        OperatorKind.SUM,
        OperatorKind.COUNT,
        OperatorKind.MULTIPLICATION,
        OperatorKind.SUM_OF_SQUARES,
        OperatorKind.DECOMPOSABLE_SORT,
    )

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_schedule_matches_brute_force(self, seed):
        """Integer-valued partials make the fold exact, so any divergence
        from the brute force is a structural bug, not float noise."""
        rng = random.Random(seed)
        agg = FifoAggregator(self.KINDS)
        live: list[tuple] = []
        pos = 0
        for _ in range(400):
            action = rng.random()
            if action < 0.55 or not live:
                pos += rng.randrange(1, 4)
                item = random_item(rng, pos, self.KINDS)
                live.append(item)
                agg.push(*item)
            elif action < 0.8:
                cut = rng.randrange(0, len(live))
                bound = live[cut][0] + rng.choice((0, 1))
                agg.evict_below(bound)
                live = [item for item in live if item[0] >= bound]
            else:
                got_ops, got_count = agg.query()
                want_ops, want_count = brute_force(live, self.KINDS)
                assert got_count == want_count
                assert got_ops == want_ops
            assert len(agg) == len(live)
        got_ops, got_count = agg.query()
        want_ops, want_count = brute_force(live, self.KINDS)
        assert (got_ops, got_count) == (want_ops, want_count)

    def test_query_is_amortized_constant(self):
        """Total merge work over N pushes + N queries + N evictions stays
        O(N): the whole point of the structure."""
        kinds = (OperatorKind.SUM,)
        agg = FifoAggregator(kinds)
        n, window = 2_000, 64
        for pos in range(n):
            agg.evict_below(pos - window + 1)
            agg.push(pos, {OperatorKind.SUM: 1.0}, 1)
            merged, count = agg.query()
            assert count == min(pos + 1, window)
            assert merged[OperatorKind.SUM] == float(count)
        # push ≤1, flip ≤1 (amortized), query ≤1 merge per item
        assert agg.merge_ops <= 3 * n

    def test_evict_everything_then_query_empty(self):
        agg = FifoAggregator((OperatorKind.SUM, OperatorKind.COUNT))
        for pos in range(5):
            agg.push(pos, {OperatorKind.SUM: 2.0, OperatorKind.COUNT: 1}, 1)
        agg.evict_below(10)
        merged, count = agg.query()
        assert merged == {} and count == 0
        assert agg.floor == 10

    def test_non_decomposable_kinds_are_ignored(self):
        agg = FifoAggregator(
            (OperatorKind.SUM, OperatorKind.NON_DECOMPOSABLE_SORT)
        )
        assert agg.kinds == (OperatorKind.SUM,)

    def test_merge_window_refuses_behind_floor(self):
        """A window starting before its stream's eviction floor takes the
        plain scan, never a silently wrong aggregate — over slices and
        over cells alike, with decomposable kinds beside the sorted one:
        the same ops, events and merge-op count as
        ``merge_context_partials`` over the same range."""
        kinds = (OperatorKind.SUM, OperatorKind.COUNT,
                 OperatorKind.NON_DECOMPOSABLE_SORT)
        grid = PunctuationGrid([(0, 40, 10)])
        slices = SliceStore()
        cells = CellStore(grid, {0: kinds})
        for step in range(12):
            start = 10 * step
            values = [float(step), float(step * 3 % 7), 2.0]
            ops = {OperatorKind.SUM: sum(values), OperatorKind.COUNT: 3,
                   OperatorKind.NON_DECOMPOSABLE_SORT: sorted(values)}
            cells.fold(SliceRecord(
                start=start, end=start + 10,
                contexts={0: ContextPartial(count=3, ops=ops)},
            ))
            slice_ = Slice(grid.index(start), start)
            slice_.close(start + 10)
            slice_.partials[0] = dict(ops)
            slice_.insert_counts[0] = 3
            slices.add(slice_)

        def scan(store, first, last):
            return store.merge_context_partials(
                first, last, 0, kinds, merge_many_partials
            ) + (None,)

        first = grid.index(40)
        for store in (slices, cells):
            layer = IncrementalMergeLayer()
            merged, events, merge_ops, pushed = layer.close(
                store, first, first + 3, 0, kinds, 40, True
            )
            plain = scan(store, first, first + 3)
            # integer-valued sums: any association is exact
            assert (merged, events) == plain[:2]
            assert pushed == 4 and merge_ops < plain[2]
            behind = layer.close(store, first - 2, first + 4, 0, kinds, 40, True)
            assert behind == scan(store, first - 2, first + 4)
            assert behind[1] == 7 * 3 and behind[2] == 7 * 3


# -- FifoAggregator bit for bit ------------------------------------------------------

#: the NaN every invalid operation returns on this platform, so that a NaN
#: a merge makes (inf - inf, 0 * inf) has the bits of one it is handed
NAN = math.inf - math.inf

#: per kind, partials whose fold gives the same bits in every association,
#: so the brute force is the exact reference however Two-Stacks groups the
#: merges — but not in every operand order, nor from a seeded identity
#: (``0.0 + -0.0`` is ``0.0``).  Subnormals only sum exactly among
#: themselves, and lose a product against an infinity, so they stay in
#: SUM_OF_SQUARES and in the extrema.
EXACT_PARTIALS = {
    OperatorKind.SUM: (-math.inf, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, math.inf, NAN),
    OperatorKind.SUM_OF_SQUARES: (
        -math.inf, -5e-324, -0.0, 0.0, 5e-324, 1e-323, math.inf, NAN,
    ),
    OperatorKind.MULTIPLICATION: (
        -math.inf, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, math.inf, NAN,
    ),
}
#: the ends of extrema pairs
EXTREMA = (-math.inf, -1.0, -0.0, 0.0, 5e-324, 1.0, math.inf)
#: extrema that tie between 0.0 and -0.0, where the older operand must win
SIGNED_ZERO_PAIRS = ((0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0))


def exact_partial(kind):
    if kind is OperatorKind.COUNT:
        return st.integers(0, 9)
    if kind is OperatorKind.DECOMPOSABLE_SORT:
        end = st.sampled_from(EXTREMA)
        return st.none() | st.tuples(end, end).map(lambda pair: tuple(sorted(pair)))
    return st.sampled_from(EXACT_PARTIALS[kind])


def palette(kind):
    """The few partials of ``kind`` a schedule's items draw from; about
    half the schedules tie their extrema between zeros of both signs, so
    which operand a merge keeps shows in every query."""
    values = st.lists(exact_partial(kind), min_size=1, max_size=3)
    if kind is OperatorKind.DECOMPOSABLE_SORT:
        values |= st.just(SIGNED_ZERO_PAIRS)
    return values


@st.composite
def schedules(draw):
    """Rounds of (items pushed, items evicted, evict before the pushes,
    query).  Each schedule draws its items' partials from a
    :func:`palette` per kind, so tied extrema and windows of nothing but
    ``-0.0`` are common; any kind may be missing from an item (an operator planned
    after the slice closed, a record that never carried it)."""
    palettes = {
        kind: st.sampled_from(draw(palette(kind)))
        for kind in TestFifoAggregator.KINDS
    }
    item = st.tuples(st.fixed_dictionaries({}, optional=palettes), st.integers(0, 4))
    return draw(st.lists(
        st.tuples(st.lists(item, max_size=6), st.integers(0, 6),
                  st.booleans(), st.booleans()),
        max_size=40,
    ))


def bits(value):
    if isinstance(value, float):
        return struct.pack(">d", value)
    if isinstance(value, tuple):
        return tuple(map(bits, value))
    return value


def carries(ops, kind):
    """Whether an item takes part in ``kind``'s fold: the extrema always
    (a missing pair is ``None``), any other kind where present."""
    return kind is OperatorKind.DECOMPOSABLE_SORT or ops.get(kind) is not None


class EagerMergeCount:
    """The ``merge_partials`` calls of a Two-Stacks that folds its back
    prefix at every push, on the same schedule: a push merges each kind it
    carries into the back, a flip folds each kind's carriers into suffixes,
    and a query merges front and back where both carry the kind."""

    def __init__(self, kinds):
        self.kinds = kinds
        self.front: list[tuple] = []
        self.back: list[tuple] = []
        self.merge_ops = 0

    def _carriers(self, items, kind):
        return sum(carries(ops, kind) for _, ops, _ in items)

    def push(self, item):
        self.merge_ops += sum(
            carries(item[1], kind) and self._carriers(self.back, kind) > 0
            for kind in self.kinds
        )
        self.back.append(item)

    def evict_below(self, bound):
        while True:
            if self.front:
                if self.front[0][0] >= bound:
                    return
                self.front.pop(0)
            elif self.back and self.back[0][0] < bound:
                self.merge_ops += sum(
                    max(self._carriers(self.back, kind) - 1, 0)
                    for kind in self.kinds
                )
                self.front, self.back = self.back, []
            else:
                return

    def query(self):
        self.merge_ops += sum(
            self._carriers(self.front, kind) > 0
            and self._carriers(self.back, kind) > 0
            for kind in self.kinds
        )


class TestTwoStacksBitExact:
    @settings(deadline=None)
    @given(rounds=schedules())
    def test_schedule_matches_brute_force_bit_for_bit(self, rounds):
        """Every query equals the oldest-to-newest ``merge_partials`` fold of
        the live items in every bit — signed zeros, infinities, NaNs,
        subnormals, and which of two tied extrema wins; a kind no live item
        carries is absent.  Where every batch of pushes is queried before
        the next eviction (the engine's and the root's order), the merge
        count is the eager structure's; elsewhere it is at most that."""
        kinds = TestFifoAggregator.KINDS
        agg = FifoAggregator(kinds)
        eager = EagerMergeCount(kinds)
        live: list[tuple] = []
        pos = 0
        unqueried = False
        every_batch_queried = True

        def evict(drop):
            nonlocal live, every_batch_queried
            every_batch_queried &= not unqueried
            bound = live[drop][0] if drop < len(live) else pos
            agg.evict_below(bound)
            eager.evict_below(bound)
            live = live[drop:] if drop < len(live) else []

        for pushes, drop, evict_first, query in rounds:
            if evict_first:
                evict(drop)
            for ops, count in pushes:
                item = (pos, ops, count)
                pos += 1
                live.append(item)
                agg.push(*item)
                eager.push(item)
                unqueried = True
            if not evict_first:
                evict(drop)
            if query:
                got, got_count = agg.query()
                eager.query()
                unqueried = False
                want, want_count = brute_force(live, kinds)
                assert got_count == want_count
                assert {k: bits(v) for k, v in got.items()} == {
                    k: bits(v) for k, v in want.items()
                }
            assert len(agg) == len(live)
        if every_batch_queried and not unqueried:
            assert agg.merge_ops == eager.merge_ops
        else:
            assert agg.merge_ops <= eager.merge_ops


# -- pinned: the merge work of a group with several lengths and slides ---------------


def test_sliding_overlap_mix_merge_work_is_pinned():
    """The benchmark's ``sliding_overlap`` queries — lengths 1.28–12.8 s,
    slides of one to ten 20 ms slices, all at overlap 64 — over 20 000
    events: how many merges lazy folding across several-slice slides runs."""
    events = DataGenerator(
        DataGeneratorConfig(keys=tuple(f"k{i}" for i in range(10)), rate=5_000.0),
        seed=1,
    ).events(20_000)
    engine = run_engine(
        [
            Query.of(f"{fn.name.lower()}_{length}", WindowSpec.sliding(length, slide), fn)
            for length, slide in ((6400, 100), (3200, 50), (12800, 200), (1280, 20))
            for fn in (AggFunction.AVERAGE, AggFunction.MAX, AggFunction.SUM,
                       AggFunction.MIN)
        ],
        events,
    )
    stats = engine.stats
    assert (stats.merge_ops, stats.windows_closed, stats.results) == (6_492, 344, 1_376)


# -- randomized engine parity -------------------------------------------------------

RANDOM_FUNCTIONS = EXACT_FUNCTIONS + FLOAT_FUNCTIONS


def random_queries(rng, keys):
    queries = []
    for index in range(rng.randrange(3, 7)):
        slide = rng.choice((25, 50, 100, 200))
        overlap = rng.choice((1, 2, 4, 8, 16))
        if overlap == 1:
            spec = WindowSpec.tumbling(slide)
        else:
            spec = WindowSpec.sliding(slide * overlap, slide)
        selection = Selection()
        if rng.random() < 0.5:
            selection = Selection(key=rng.choice(keys))
        queries.append(
            Query.of(
                f"q{index}",
                spec,
                rng.choice(RANDOM_FUNCTIONS),
                selection=selection,
            )
        )
    return queries


class TestRandomizedParity:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_query_mixes(self, seed):
        rng = random.Random(1000 + seed)
        keys = ("a", "b", "c")
        events = make_stream(
            rng.randrange(600, 1200), seed=seed, keys=keys,
            value_mod=rng.choice((89, 101)),
        )
        queries = random_queries(rng, keys)
        engine = assert_seed_parity(queries, events)
        assert_matches_oracle(engine, queries, events)

    def test_high_overlap_many_functions(self):
        events = make_stream(1500, keys=("a", "b"), dt_choices=(2, 5))
        queries = [
            Query.of(f"q_{fn.name.lower()}", WindowSpec.sliding(640, 10), fn)
            for fn in (AggFunction.SUM, AggFunction.AVERAGE, AggFunction.COUNT,
                       AggFunction.MAX, AggFunction.MIN, AggFunction.VARIANCE)
        ]
        engine = assert_seed_parity(queries, events)
        assert_matches_oracle(engine, queries, events)
        # 64x overlap, all-decomposable operators: the layer must cut the
        # merge work by a wide margin.
        assert engine.stats.merge_ops * 5 <= scan_merge_ops(queries, events)

    def test_hybrid_median_keeps_kway_merge(self):
        """MEDIAN forces NON_DECOMPOSABLE_SORT onto the plain k-way scan
        while the decomposable kinds ride the layer; the combination must
        still match the oracle and still save work overall."""
        events = make_stream(1000, dt_choices=(2, 5))
        queries = [
            Query.of("med", WindowSpec.sliding(400, 25), AggFunction.MEDIAN),
            Query.of("avg", WindowSpec.sliding(400, 25), AggFunction.AVERAGE),
        ]
        engine = assert_seed_parity(queries, events)
        assert_matches_oracle(engine, queries, events)
        assert engine.stats.merge_ops < scan_merge_ops(queries, events)

    def test_multiplication_and_geomean(self):
        base = make_stream(900, dt_choices=(3, 7))
        # Values in [1, 2): products stay finite, relative error visible.
        events = [
            dataclasses.replace(e, value=1.0 + (e.value % 16.0) / 16.0)
            for e in base
        ]
        queries = [
            Query.of("prod", WindowSpec.sliding(400, 25), AggFunction.PRODUCT),
            Query.of("geo", WindowSpec.sliding(400, 50),
                     AggFunction.GEOMETRIC_MEAN),
        ]
        engine = assert_seed_parity(queries, events)
        assert_matches_oracle(engine, queries, events)

    def test_tumbling_takes_identical_plain_path(self):
        """Zero-regression guard: a tumbling window closes by the seed's
        own fold — the same merge work, the same bits — and no stream
        ever engages."""
        events = make_stream(800)
        queries = [
            Query.of("q", WindowSpec.tumbling(250), AggFunction.AVERAGE)
        ]
        engine = run_engine(queries, events)
        expected = seed_reference(queries, events)
        assert [repr(row) for row in rows(engine, "q")] == [
            repr(row) for row in expected["q"]
        ]
        assert engine.stats.merge_ops == scan_merge_ops(queries, events)
        for runtime in engine.groups:
            assert runtime.incmerge.windows == 0

    def test_sliding_with_runtime_add_and_remove(self):
        """Queries attached at stream time and removed mid-stream exercise
        the layer's late-start floor, and a removed tracker's stream goes
        with its last window instead of pinning that window's partials."""
        events = make_stream(1200, keys=("a", "b"))
        first = Query.of("early", WindowSpec.sliding(300, 25),
                         AggFunction.SUM)
        late = Query.of("late", WindowSpec.sliding(200, 25),
                        AggFunction.AVERAGE, selection=Selection(key="a"))
        cut = len(events) // 3

        def run(check):
            engine = AggregationEngine([first])
            engine.process_batch(events[:cut])
            engine.add_query(late)
            engine.process_batch(events[cut : 2 * cut])
            # "late" got a group of its own
            check(engine, [{(0, 300)}, {(0, 200)}])
            engine.remove_query("early")
            check(engine, [set(), {(0, 200)}])
            engine.process_batch(events[2 * cut :])
            engine.close()
            return engine

        def streams_are(engine, keys):
            assert [stream_keys(g) for g in engine.groups] == keys

        engine = run(streams_are)
        assert [len(g.incmerge._streams) for g in engine.groups] == [0, 1]
        with plain_scan():
            reference = run(lambda engine, keys: None)
        for query in (first, late):
            assert_rows_within_contract(
                query,
                rows(reference, query.query_id),
                rows(engine, query.query_id),
            )

    def test_draining_windows_keep_their_stream_until_the_last_closes(self):
        """``remove_query(drain=True)`` leaves the tracker's open windows
        to finish: they go on reusing the stream (no refold from scratch),
        and the stream is dropped with the last of them."""
        events = make_stream(900)
        engine = AggregationEngine(
            [
                Query.of("gone", WindowSpec.sliding(300, 25), AggFunction.SUM),
                # same context and length: shares the stream's key space
                Query.of("twin", WindowSpec.sliding(300, 50), AggFunction.SUM),
                Query.of("stay", WindowSpec.sliding(200, 25), AggFunction.SUM),
            ],
        )
        (runtime,) = engine.groups
        engine.process_batch(events[:300])
        assert stream_keys(runtime) == {(0, 300), (0, 200)}
        engine.remove_query("twin", drain=True)
        engine.remove_query("gone", drain=True)
        draining = [w for w in runtime.open_windows.values()
                    if w.end - w.start == 300]
        assert draining and stream_keys(runtime) == {(0, 300), (0, 200)}
        last_end = max(w.end for w in draining)
        pushed = runtime.incmerge.slices_pushed
        closed = runtime.stats.windows_closed
        for event in events[300:]:
            if event.time >= last_end:
                break
            engine.process(event)
            assert (0, 300) in stream_keys(runtime)
        # the draining closes rode the stream: at most the new slices
        # were pushed per close, never a window's whole span again
        closes = runtime.stats.windows_closed - closed
        assert closes > len(draining)
        assert runtime.incmerge.slices_pushed - pushed <= 2 * closes
        engine.process_batch([e for e in events[300:] if e.time >= last_end])
        assert stream_keys(runtime) == {(0, 200)}
        engine.close()
        assert stream_keys(runtime) == {(0, 200)}

    def test_removed_tracker_without_windows_drops_at_once(self):
        engine = AggregationEngine(
            [Query.of("q", WindowSpec.sliding(300, 25), AggFunction.SUM),
             Query.of("t", WindowSpec.tumbling(100), AggFunction.SUM)],
        )
        (runtime,) = engine.groups
        engine.process_batch(make_stream(400))
        engine.remove_query("q")  # discards q's open windows with it
        assert stream_keys(runtime) == set()
        assert not runtime._stale_streams

    def test_merge_reuse_trace_recorded(self):
        from repro.obs.tracing import TraceRecorder

        recorder = TraceRecorder()
        events = make_stream(600)
        engine = AggregationEngine(
            [Query.of("q", WindowSpec.sliding(200, 25), AggFunction.SUM)],
            recorder=recorder,
        )
        engine.process_batch(events)
        engine.close()
        reuses = list(recorder.events("merge.reuse"))
        assert reuses, "overlapping closes must record merge.reuse"
        event = reuses[-1]
        for field in ("ctx", "first_slice", "last_slice", "pushed",
                      "reused", "merge_ops"):
            assert field in event.data
        assert event.data["reused"] >= 0


def stream_keys(runtime) -> set[tuple[int, int]]:
    """The ``(ctx, length)`` of every Two-Stacks stream a runtime holds."""
    return {(ctx, length) for ctx, _, length in runtime.incmerge._streams}


# -- seed replica: what the contract keeps exact is byte-identical to it ----------


def seed_reference(queries, events, close_at=None):
    """Replicate the seed engine's merge path independently.

    A slicing-only :class:`GroupRuntime` (``assemble=False``) yields the
    closed slices and the punctuations of data-driven windows; it opens
    no fixed window, so those are enumerated from the query specs —
    ``[origin + k*slide, +length)`` from the first event on, over the
    slices that start inside them (every window start and end is a cut).
    Each window is then folded with ``merge_many_partials`` over its
    slices — operator buckets in slice order, exactly the pre-layer
    ``_close_window`` — and finalized per subscribed query.  Returns
    ``(start, end, value, count)`` rows per query, in emit order.
    """
    plan = analyze(queries, policy=SharingPolicy.FULL)
    out: dict[str, list[tuple]] = {q.query_id: [] for q in queries}
    final = close_at if close_at is not None else events[-1].time
    for group in plan.groups:
        slices: dict[int, object] = {}
        #: (subscribers, ctx, start, end, covered slice indices)
        closes: list[tuple] = []

        def slice_sink(closing, eps, spans, slices=slices, closes=closes):
            slices[closing.index] = closing
            for window, end_time in eps:
                closes.append((
                    window.queries, window.ctx, window.start, end_time,
                    range(window.first_slice, closing.index + 1),
                ))

        runtime = GroupRuntime(
            group,
            ResultSink(),
            EngineStats(),
            assemble=False,
            slice_sink=slice_sink,
        )
        for event in events:
            runtime.process(event)
        runtime.close(close_at)
        for query in group.queries:
            if not query.window.is_fixed_size or query.is_count_based:
                continue
            start = events[0].time
            while start <= final:
                end = start + query.window.length
                closes.append((
                    (query,), group.context_of[query.query_id], start, end,
                    [i for i, s in slices.items() if start <= s.start < end],
                ))
                start += query.window.effective_slide
        for subscribers, ctx, start, end, covered in closes:
            union = set()
            for query in subscribers:
                union.update(runtime.needed[query.query_id])
            kinds = tuple(k for k in runtime.operators if k in union)
            buckets = {kind: [] for kind in kinds}
            total = 0
            for index in covered:
                slice_ = slices.get(index)
                if slice_ is None:
                    continue
                parts = slice_.partials.get(ctx)
                if parts is None:
                    continue
                total += slice_.insert_counts.get(ctx, 0)
                for kind in kinds:
                    if kind in parts:
                        buckets[kind].append(parts[kind])
            merged = {
                kind: merge_many_partials(kind, bucket)
                for kind, bucket in buckets.items()
                if bucket
            }
            if total == 0:
                continue
            for query in subscribers:
                out[query.query_id].append(
                    (start, end, finalize(query.function, merged), total)
                )
    return out


class TestExactModeIsSeed:
    """Where the Two-Stacks contract promises exactness, the engine must
    reproduce the seed merge bit-for-bit (``repr`` equality on values, not
    just tolerance): every tumbling window, which the plain scan closes,
    and every count, extremum and median of any window."""

    @pytest.mark.parametrize("seed", range(4))
    def test_byte_identical_results(self, seed):
        rng = random.Random(7000 + seed)
        keys = ("a", "b", "c")
        events = make_stream(900, seed=seed, keys=keys)
        queries = random_queries(rng, keys)
        expected = seed_reference(queries, events)
        engine = run_engine(queries, events)
        exact = [
            query for query in queries
            if query.function.fn in EXACT_FUNCTIONS
            or query.window.effective_slide == query.window.length
        ]
        assert exact
        for query in exact:
            assert [repr(row) for row in rows(engine, query.query_id)] == [
                repr(row) for row in expected[query.query_id]
            ], query.query_id

    def test_decomposable_kinds_cover_the_operator_set(self):
        """Every operator kind is either decomposable (rides the layer) or
        explicitly excluded; a new kind must make a choice."""
        assert DECOMPOSABLE_MERGE_KINDS | {
            OperatorKind.NON_DECOMPOSABLE_SORT
        } == set(OperatorKind)
