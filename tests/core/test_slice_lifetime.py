"""Slice lifetime: the watermark frees exactly what reference counts did.

The engine frees closed slices below the first slice of its oldest open
window.  Before that, every closed slice carried a count of the windows
open when it closed, every window close walked its whole slice range to
decrement them, and a front-only sweep dropped the zeros.
:class:`RefcountStore` keeps that algorithm, verbatim, as the reference:
:func:`shadowed` mirrors every cut, window close and query removal of
every runtime into one, and the property holds the engine to it after
each call — the live slice set, the freed and peak counters, and the
results the reference's own slices fold to.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import AggregationEngine, GroupRuntime, required_kinds
from repro.core.functions import finalize
from repro.core.operators import merge_many_partials
from repro.core.query import Query
from repro.core.slices import SliceStore

from tests.core.test_engine_properties import query_lists, streams, window_specs


class RefcountStore:
    """The replaced ``SliceStore`` lifetime algorithm (the reference)."""

    # the reference folds its *own* slices with the engine's merge code
    covered = SliceStore.covered
    merge_context_partials = SliceStore.merge_context_partials

    def __init__(self) -> None:
        self._slices: OrderedDict = OrderedDict()
        self.refcount: dict[int, int] = {}
        self.freed = 0
        self.peak = 0
        self.rows: list[tuple] = []

    def add(self, slice_, refcount: int) -> None:
        if refcount == 0:
            self.freed += 1
            return
        self._slices[slice_.index] = slice_
        self.refcount[slice_.index] = refcount
        self.peak = max(self.peak, len(self._slices))

    def release(self, first: int, last: int) -> None:
        for index in range(first, last + 1):
            if index in self._slices:
                self.refcount[index] -= 1
        while self._slices:
            index = next(iter(self._slices))
            if self.refcount[index] > 0:
                break
            del self._slices[index]
            del self.refcount[index]
            self.freed += 1


@contextmanager
def shadowed():
    """Mirror every assembling runtime's slice traffic into a
    :class:`RefcountStore` at ``runtime.reference`` — patched on the class
    so groups created by ``add_query`` are shadowed from their first cut."""
    cut, close, remove = (
        GroupRuntime._cut, GroupRuntime._close_window, GroupRuntime.remove_query
    )

    def reference_of(runtime) -> RefcountStore:
        return runtime.__dict__.setdefault("reference", RefcountStore())

    def shadow_cut(self, time, eps, sps):
        # same object the engine is about to close and (maybe) store
        reference_of(self).add(self.current, len(self.open_windows))
        cut(self, time, eps, sps)

    def shadow_close(self, window, end, last_slice):
        reference = reference_of(self)
        union = set()
        for query in window.queries:
            union.update(required_kinds(query, self.operators))
        kinds = tuple(kind for kind in self.operators if kind in union)
        merged, events, _ = reference.merge_context_partials(
            window.first_slice, last_slice, window.ctx, kinds,
            merge_many_partials,
        )
        if events or self.emit_empty:
            for query in window.queries:
                reference.rows.append(
                    (query.query_id, window.start, end, events,
                     finalize(query.function, merged))
                )
        close(self, window, end, last_slice)
        reference.release(window.first_slice, last_slice)

    def shadow_remove(self, query_id, *, drain=False):
        before = dict(self.open_windows)
        remove(self, query_id, drain=drain)
        for uid, window in before.items():
            if uid not in self.open_windows:
                reference_of(self).release(
                    window.first_slice, self.current.index - 1
                )

    GroupRuntime._cut = shadow_cut
    GroupRuntime._close_window = shadow_close
    GroupRuntime.remove_query = shadow_remove
    try:
        yield
    finally:
        GroupRuntime._cut = cut
        GroupRuntime._close_window = close
        GroupRuntime.remove_query = remove


def assert_stores_agree(engine: AggregationEngine) -> None:
    peak = 0
    for runtime in engine.groups:
        reference = runtime.__dict__.setdefault("reference", RefcountStore())
        assert sorted(runtime.store._slices) == sorted(reference._slices)
        assert runtime.store.freed == reference.freed
        peak = max(peak, reference.peak)
    assert engine.stats.peak_live_slices == peak


def result_rows(engine: AggregationEngine) -> list[tuple]:
    return sorted(
        (r.query_id, r.start, r.end, r.event_count, r.value)
        for r in engine.sink
    )


@st.composite
def split_points(draw, n: int) -> list[int]:
    """Random batch boundaries over ``n`` events (single events too)."""
    cuts = draw(st.lists(st.integers(0, n), max_size=12))
    return sorted({0, n, *cuts})


@st.composite
def scenarios(draw):
    events = draw(streams(min_events=20, max_events=140))
    queries = draw(query_lists(max_queries=5))
    extra = Query.of(
        "added",
        draw(window_specs()),
        draw(st.sampled_from([q.function.fn for q in queries])),
    )
    bounds = draw(split_points(len(events)))
    # calls after which the one add_query / remove_query happen
    add_at = draw(st.integers(0, len(bounds) - 2))
    remove_at = draw(st.integers(0, len(bounds) - 2))
    victim = draw(st.sampled_from([q.query_id for q in queries]))
    return events, queries, extra, bounds, add_at, remove_at, victim


@settings(max_examples=120, deadline=None)
@given(scenario=scenarios())
def test_watermark_equals_refcounts(scenario):
    events, queries, extra, bounds, add_at, remove_at, victim = scenario
    with shadowed():
        engine = AggregationEngine(queries)
        for call, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            if hi - lo == 1:
                engine.process(events[lo])
            else:
                engine.process_batch(events[lo:hi])
            assert_stores_agree(engine)
            if call == add_at:
                engine.add_query(extra)
                assert_stores_agree(engine)
            if call == remove_at:
                engine.remove_query(victim, drain=False)
                assert_stores_agree(engine)
        engine.close()
        assert_stores_agree(engine)
    for runtime in engine.groups:
        assert len(runtime.store) == 0
    expected = sorted(
        row for runtime in engine.groups for row in runtime.reference.rows
    )
    got = result_rows(engine)
    # the reference folds by the plain scan: float folds within 1e-9
    assert [row[:4] for row in got] == [row[:4] for row in expected]
    assert [row[4] for row in got] == pytest.approx(
        [row[4] for row in expected], rel=1e-9, abs=1e-9
    )
