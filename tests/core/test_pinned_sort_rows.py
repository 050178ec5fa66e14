"""The rows of the shared non-decomposable sort, pinned bit for bit.

The 13 query texts of the ``sort_functions`` benchmark workload — MEDIAN,
QUANTILE and MAX over tumbling windows, and a sliding MEDIAN — run over a
seeded stream whose values are drawn from a tie-heavy set: signed zeros,
duplicates, infinities, denormals and ordinary floats.  Slices are cut
every 100 ms, so a 1 000 ms window closes by merging ten sorted runs;
ties between runs (``-0.0`` against ``0.0``) are where a merge could
reorder without ``==`` noticing.  Every row is hashed with its value's
IEEE-754 bits, through ``process_many`` in chunks that cut mid-slice and
through ``process``: a change to how a window's runs merge moves the
digest.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct

import pytest

from repro.core.event import Event
from repro.interface import DesisSession

TEXTS = (
    [
        f"SELECT MEDIAN(value) FROM stream WINDOW TUMBLING {length} MS"
        for length in (200, 500, 1000)
    ]
    + [
        f"SELECT QUANTILE({(k + 1) / 10})(value) FROM stream "
        f"WINDOW TUMBLING {200 * (k % 5 + 1)} MS"
        for k in range(8)
    ]
    + [
        "SELECT MAX(value) FROM stream WINDOW TUMBLING 400 MS",
        "SELECT MEDIAN(value) FROM stream WINDOW SLIDING 1000 MS EVERY 200 MS",
    ]
)

#: ties a merge could reorder (``-0.0 == 0.0``, duplicates), the ends of
#: the order, and denormals; the infinities are drawn rarely so that most
#: quantiles stay finite
TIES = [-0.0, 0.0, -0.0, 0.0, 1.0, 1.0, -2.5, -2.5, 5e-324, -5e-324,
        2.2250738585072014e-308]
INFINITIES = [math.inf, -math.inf]

EVENTS = 20_000
CHUNK = 333  # not a divisor of any slice: batches end mid-slice

#: (rows emitted, sha256 of their ``(query, start, end, count, bits)``
#: reprs in emission order)
PINNED = (372, "9d01cab5180b59563c63e98bf1bff3655d2db19acd7afa2a39e82045e27f2e50")


def make_events(seed: int = 34) -> list[Event]:
    rng = random.Random(seed)
    events = []
    time = 0
    for i in range(EVENTS):
        time += rng.randint(0, 1)
        draw = rng.random()
        if draw < 0.6:
            value = rng.choice(TIES)
        elif draw < 0.61:
            value = rng.choice(INFINITIES)
        else:
            value = round(rng.uniform(-50.0, 50.0), rng.randint(0, 3))
        events.append(Event(time, f"k{i % 10}", value))
    return events


def bits(value):
    if value is None:
        return None
    # A NaN here comes from a finalizer's ``inf * 0.0``, and its sign bit
    # is the FPU's, not the merge's: hash every NaN alike.
    if math.isnan(value):
        return "nan"
    return struct.pack(">d", value).hex()


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
def test_sort_rows_are_pinned(path):
    rows, stats = run(path)
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert (len(rows), digest) == PINNED
    # windows of two or more runs really are merged, not just copied
    assert stats.merge_ops > stats.windows_closed
