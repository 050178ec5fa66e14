"""Tests for slices and the watermark-freed slice store."""

from __future__ import annotations

import pytest

from repro.core.analyzer import analyze
from repro.core.engine import EngineStats, GroupRuntime
from repro.core.errors import EngineError
from repro.core.event import Event
from repro.core.operators import merge_many_partials
from repro.core.query import Query, WindowSpec
from repro.core.results import ResultSink
from repro.core.slices import Slice, SliceStore
from repro.core.types import AggFunction, OperatorKind

K = OperatorKind
KINDS = (K.SUM, K.COUNT)


def closed_slice(index: int, values_by_ctx: dict[int, list[float]], span=(0, 10)):
    s = Slice(index=index, start=span[0])
    for ctx, values in values_by_ctx.items():
        for v in values:
            s.insert_run(ctx, (v,), KINDS)
    s.close(span[1])
    return s


class TestSlice:
    def test_lazy_context_creation(self):
        s = Slice(0, 0)
        assert not s.contexts
        s.insert_run(3, (1.0,), KINDS)
        assert set(s.contexts) == {3}

    def test_close_freezes_partials(self):
        s = closed_slice(0, {0: [1.0, 2.0], 1: [5.0]})
        assert s.partials[0][K.SUM] == 3.0
        assert s.partials[0][K.COUNT] == 2
        assert s.partials[1][K.SUM] == 5.0
        assert s.insert_counts == {0: 2, 1: 1}
        assert s.total_inserts == 3
        assert not s.contexts  # open state is discarded

    def test_double_close_raises(self):
        s = closed_slice(0, {})
        with pytest.raises(EngineError):
            s.close(20)

    def test_repr_mentions_state(self):
        s = Slice(7, 0)
        assert "open" in repr(s)
        s.close(5)
        assert "closed" in repr(s)


def runtime_for(*queries: Query) -> GroupRuntime:
    """One assembling runtime over ``queries`` (they share a group)."""
    (group,) = analyze(list(queries)).groups
    return GroupRuntime(group, ResultSink(), EngineStats())


def feed(runtime: GroupRuntime, *times: int) -> None:
    for time in times:
        runtime.process(Event(time, "k", 1.0))


class TestSliceStore:
    def test_rejects_open_slice(self):
        store = SliceStore()
        with pytest.raises(EngineError):
            store.add(Slice(0, 0))

    def test_free_below_frees_the_front(self):
        store = SliceStore()
        for i in range(3):
            store.add(closed_slice(i, {0: [float(i)]}))
        assert len(store) == 3
        store.free_below(2)
        assert len(store) == 1
        assert store.get(2) is not None
        assert store.freed == 2
        store.free_below(3)
        assert len(store) == 0
        assert store.freed == 3

    def test_gc_stops_at_live_slice(self):
        store = SliceStore()
        for i in (0, 1, 4):  # 2 and 3 closed with no window open
            store.add(closed_slice(i, {0: [1.0]}))
        store.free_below(1)
        assert sorted(store._slices) == [1, 4]
        store.free_below(1)  # idempotent
        store.free_below(0)  # the watermark never moves slices back in
        assert sorted(store._slices) == [1, 4]
        assert store.freed == 1
        store.free_below(3)  # a bound inside the gap frees up to it only
        assert sorted(store._slices) == [4]

    # The lifetime rules, through the runtime that applies them: a slice
    # lives while some open window started at or before it.

    def test_slice_with_no_open_window_is_dropped_at_once(self):
        runtime = runtime_for(
            Query.of("s", WindowSpec.session(gap=50), AggFunction.COUNT)
        )
        feed(runtime, 0, 10)  # the open cuts slice 0: nothing covers it
        assert (len(runtime.store), runtime.store.freed) == (0, 1)
        feed(runtime, 1_000)  # session end at 60, next open at 1000
        # slice 1 went with its session; slice 2 — the idle stretch
        # between the sessions — was never stored
        assert (len(runtime.store), runtime.store.freed) == (0, 3)
        assert runtime.stats.peak_live_slices == 1
        assert runtime.current.index == 3

    def test_only_the_front_is_freed(self):
        runtime = runtime_for(
            Query.of("long", WindowSpec.tumbling(1_000), AggFunction.SUM),
            Query.of("short", WindowSpec.tumbling(100), AggFunction.SUM),
        )
        feed(runtime, *range(0, 1_000, 50))
        # slice 0 closed at the bootstrap cut, before any window opened;
        # nine short windows ended since, but the long one, open from
        # slice 1, still covers them all
        assert runtime.stats.windows_closed == 9
        assert sorted(runtime.store._slices) == list(range(1, 10))
        assert runtime.store.freed == 1
        feed(runtime, 1_000)
        assert len(runtime.store) == 0
        assert runtime.store.freed == 11

    def test_freeing_stops_at_the_oldest_open_window(self):
        runtime = runtime_for(
            Query.of("q", WindowSpec.sliding(300, 100), AggFunction.SUM)
        )
        feed(runtime, *range(0, 301, 50))
        # [0,300) closed; [100,400) is the oldest open window and starts
        # at slice 2, so of the window's slices 1..3 only slice 1 went
        assert sorted(runtime.store._slices) == [2, 3]
        feed(runtime, 400)
        assert sorted(runtime.store._slices) == [3, 4]
        assert runtime.store.freed == 3

    def test_remove_without_drain_frees_the_discarded_windows_slices(self):
        runtime = runtime_for(
            Query.of("long", WindowSpec.tumbling(1_000), AggFunction.SUM),
            Query.of("short", WindowSpec.tumbling(100), AggFunction.SUM),
        )
        feed(runtime, *range(0, 560, 50))
        assert sorted(runtime.store._slices) == [1, 2, 3, 4, 5]
        runtime.remove_query("long")
        # the short window [500,600) left open started at slice 6
        assert runtime.current.index == 6
        assert (len(runtime.store), runtime.store.freed) == (0, 6)
        runtime.remove_query("short")
        feed(runtime, 700)
        assert (len(runtime.store), runtime.store.freed) == (0, 6)

    def test_slicing_only_runtime_never_touches_its_store(self):
        (group,) = analyze(
            [
                Query.of("q", WindowSpec.sliding(300, 100), AggFunction.SUM),
                Query.of("s", WindowSpec.session(gap=120), AggFunction.COUNT),
            ]
        ).groups
        closed = []
        runtime = GroupRuntime(
            group, ResultSink(), EngineStats(), assemble=False,
            slice_sink=lambda slice_, eps, spans: closed.append(slice_.index),
        )
        runtime.store = None  # any walk, add or free would raise
        feed(runtime, *range(0, 1_000, 70), *range(1_500, 2_000, 70))
        runtime.remove_query("s")
        runtime.close()
        assert closed == list(range(runtime.slice_seq))
        # two sessions opened, the gap closed one and the removal dropped
        # the other; the sliding query has punctuations, not windows
        assert runtime.stats.windows_opened == 2
        assert runtime.stats.windows_closed == 1
        assert runtime.stats.slices_closed > 20
        assert runtime.stats.peak_live_slices == 0

    def test_merge_context_partials(self):
        store = SliceStore()
        store.add(closed_slice(0, {0: [1.0, 2.0]}))
        store.add(closed_slice(1, {1: [9.0]}))  # other context
        store.add(closed_slice(2, {0: [3.0]}))
        merged, events, merge_ops = store.merge_context_partials(
            0, 2, ctx=0, kinds=KINDS, merge=merge_many_partials
        )
        assert merged[K.SUM] == 6.0
        assert merged[K.COUNT] == 3
        assert events == 3
        # two contributing slices, one partial each per kind
        assert merge_ops == 2 * len(KINDS)

    def test_merge_skips_missing_slices(self):
        store = SliceStore()
        store.add(closed_slice(5, {0: [4.0]}))
        merged, events, merge_ops = store.merge_context_partials(
            0, 9, ctx=0, kinds=(K.SUM,), merge=merge_many_partials
        )
        assert merged[K.SUM] == 4.0
        assert events == 1
        assert merge_ops == 1

    def test_merge_empty_context_returns_nothing(self):
        store = SliceStore()
        store.add(closed_slice(0, {1: [4.0]}))
        merged, events, merge_ops = store.merge_context_partials(
            0, 0, ctx=0, kinds=KINDS, merge=merge_many_partials
        )
        assert merged == {}
        assert events == 0
        assert merge_ops == 0
