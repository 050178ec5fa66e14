"""The rows of the shared non-decomposable sort over a stream with NaN.

``list.sort`` leaves a run that holds a NaN out of order (every
comparison with NaN is false), so such a run cannot be read by rank: a
window that holds one must read its ranks off the merge of its runs,
exactly as the merge leaves them.  The 13 query texts of
``test_pinned_sort_rows`` run over a seeded stream of its tie-heavy
values with about 5 % NaN, drawn in bursts: one 700 ms stretch in four
draws a NaN for a fifth of its events, so some runs hold a NaN and some
do not.  The windows' punctuations (every 200 and every 500 ms) cut the
slices, so a window of 400 ms or more holds two runs or more.  Every row
is hashed with its value's IEEE-754 bits (every NaN alike), through
``process_many`` in chunks that cut mid-slice and through ``process``.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from repro.core.event import Event
from repro.interface import DesisSession

from tests.core.test_pinned_sort_rows import CHUNK, INFINITIES, TEXTS, TIES, bits

EVENTS = 20_000

#: (rows emitted, sha256 of their ``(query, start, end, count, bits)``
#: reprs in emission order)
PINNED = (372, "46af8455aa97fa7daae3237951ab93e4986b3ba30929a7f0952bf86963d3c87f")


def make_events(seed: int = 35) -> list[Event]:
    rng = random.Random(seed)
    events = []
    time = 0
    for i in range(EVENTS):
        time += rng.randint(0, 1)
        draw = rng.random()
        if time // 700 % 4 == 0 and draw < 0.2:
            value = math.nan
        elif draw < 0.6:
            value = rng.choice(TIES)
        elif draw < 0.61:
            value = rng.choice(INFINITIES)
        else:
            value = round(rng.uniform(-50.0, 50.0), rng.randint(0, 3))
        events.append(Event(time, f"k{i % 10}", value))
    return events


def run(path: str):
    session = DesisSession()
    for i, text in enumerate(TEXTS):
        session.submit(text, query_id=f"q{i}")
    events = make_events()
    if path == "batched":
        for at in range(0, len(events), CHUNK):
            session.process_many(events[at:at + CHUNK])
    else:
        for event in events:
            session.process(event)
    session.close()
    rows = [
        repr((r.query_id, r.start, r.end, r.event_count, bits(r.value)))
        for r in session.results
    ]
    return rows, session.stats


@pytest.mark.parametrize("path", ["batched", "per-event"])
def test_sort_rows_with_nan_are_pinned(path):
    rows, stats = run(path)
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert (len(rows), digest) == PINNED
    # windows of two or more runs really are merged, not just copied
    assert stats.merge_ops > stats.windows_closed
