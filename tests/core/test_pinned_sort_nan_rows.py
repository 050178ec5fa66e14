"""A stream with NaN in it is refused at its first NaN, whatever the path.

``min``, ``max`` and ``sort`` over NaN depend on input order, and the
order a window sees depends on where the slices are cut, which every
registered query moves: rows read over NaN changed when an unrelated
query was added.  NaN is refused where a value enters instead.  The 13
query texts of ``test_pinned_sort_rows`` are submitted, and its seeded
stream of tie-heavy values with about 5 % NaN (one 700 ms stretch in four
draws a NaN for a fifth of its events) is fed through ``process_many`` in
chunks that cut mid-slice and through ``process``: building the first
event that holds a NaN raises, before it reaches the engine and before
any row is emitted.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.errors import NaNValueError
from repro.core.event import Event
from repro.interface import DesisSession

from tests.core.test_pinned_sort_rows import CHUNK, INFINITIES, TEXTS, TIES

EVENTS = 20_000

#: (index, time) of the stream's first NaN, and how many it holds
FIRST_NAN = (4, 4)
NANS = 1_095


def make_rows(seed: int = 35) -> list[tuple[int, str, float]]:
    rng = random.Random(seed)
    rows = []
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
        rows.append((time, f"k{i % 10}", value))
    return rows


def run(session: DesisSession, path: str) -> None:
    rows = make_rows()
    if path == "batched":
        for at in range(0, len(rows), CHUNK):
            session.process_many([Event(*row) for row in rows[at:at + CHUNK]])
    else:
        for row in rows:
            session.process(Event(*row))


def test_the_stream_holds_nan():
    rows = make_rows()
    nans = [(i, time) for i, (time, _, value) in enumerate(rows) if value != value]
    assert nans[0] == FIRST_NAN
    assert len(nans) == NANS


@pytest.mark.parametrize("path", ["batched", "per-event"])
def test_sort_rows_with_nan_are_pinned(path):
    session = DesisSession()
    for i, text in enumerate(TEXTS):
        session.submit(text, query_id=f"q{i}")
    index, time = FIRST_NAN
    with pytest.raises(NaNValueError, match=f"t={time}:"):
        run(session, path)
    # the batched path never built its first chunk; the per-event path
    # took every event before the NaN
    assert session.stats.events == (0 if path == "batched" else index)
    assert list(session.results) == []
