"""The oracle's tumbling and sliding windows against the per-window scan.

The oracle cuts each fixed window's values out of the matching events by
bisection on their times.  The reference below is the scan it replaced —
every matching event tested against every window — kept verbatim: both
must produce the same windows with the same value lists, in the same
order, so the naive aggregation over them cannot change.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.conformance.oracle import OracleWindow, _fixed_windows, _matching
from repro.core.event import Event
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction


def scanned_fixed_windows(query, events, final, origin):
    if origin is None:
        origin = events[0].time
    length = query.window.length
    slide = query.window.effective_slide
    matching = _matching(query, events)
    windows = []
    start = origin
    while start <= final:
        end = start + length
        if end <= final:
            values = [e.value for e in matching if start <= e.time < end]
        else:
            values = [e.value for e in matching if start <= e.time <= final]
        windows.append(OracleWindow(start, end, values))
        start += slide
    return windows


@st.composite
def cases(draw):
    n = draw(st.integers(1, 60))
    t = draw(st.integers(0, 50))
    events = []
    for _ in range(n):
        t += draw(st.integers(0, 40))  # ties included
        events.append(Event(t, draw(st.sampled_from("ab")),
                            float(draw(st.integers(-5, 5)))))
    length = draw(st.integers(1, 200))
    if draw(st.booleans()):
        window = WindowSpec.tumbling(length)
    else:
        window = WindowSpec.sliding(length, draw(st.integers(1, length)))
    selection = draw(st.sampled_from([
        Selection(), Selection(key="a"), Selection(lo=-2.0, hi=3.0),
    ]))
    query = Query.of("q", window, AggFunction.SUM, selection=selection)
    # the stream may end after its last event, or stop short of it
    final = events[-1].time + draw(st.integers(-30, 250))
    origin = draw(st.sampled_from([None, 0, events[0].time]))
    return query, events, max(final, 0), origin


@settings(max_examples=300, deadline=None)
@given(cases())
def test_bisection_equals_the_scan(case):
    query, events, final, origin = case
    assert _fixed_windows(query, events, final, origin) == scanned_fixed_windows(
        query, events, final, origin
    )
