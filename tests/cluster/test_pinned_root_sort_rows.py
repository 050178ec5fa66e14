"""The rows the root emits for the shared non-decomposable sort, pinned.

A seeded :class:`~repro.cluster.DesisCluster` run of the 13 query texts
of ``tests/core/test_pinned_sort_rows.py`` over ``three_tier(3, 1)``,
every local drawing its values from that file's tie-heavy set: signed
zeros, duplicates, infinities, denormals and ordinary floats.  The root
folds the shipped sorted runs into cells on the punctuation grid (every
200 and every 500 ms), so a MEDIAN or QUANTILE window of 600 ms or more
reads three cells or more, and ties between cells (``-0.0`` against
``0.0``) are where a merge could reorder without ``==`` noticing.  Every
row is hashed with its value's IEEE-754 bits in emission order.

Disco ships each window's merged values upward in a string message: the
same run checks that what it ships is a plain ``list``.
"""

from __future__ import annotations

import hashlib
import random

from repro.core.event import Event
from repro.cluster import ClusterConfig, DesisCluster, DiscoCluster
from repro.interface.parser import parse_query
from repro.network.messages import WindowPartialMessage
from repro.network.topology import three_tier

from tests.core.test_pinned_sort_rows import INFINITIES, TEXTS, TIES, bits

QUERIES = [parse_query(text, query_id=f"q{i}") for i, text in enumerate(TEXTS)]

LOCALS = 3
EVENTS = 6_000  # per local: ~1 000 a second, so a 1 000 ms window holds ~3 000

#: (rows emitted, sha256 of their ``(query, start, end, count, bits)``
#: reprs in emission order)
PINNED = (229, "1b18671a8377803f0abe0fb3fe22ceef8e08c3b1b3081d5e9946bed91b153819")


def make_streams(seed: int = 36) -> dict[str, list[Event]]:
    rng = random.Random(seed)
    streams = {}
    for i in range(LOCALS):
        time = 0
        events = []
        for _ in range(EVENTS):
            time += rng.randint(0, 2)
            draw = rng.random()
            if draw < 0.6:
                value = rng.choice(TIES)
            elif draw < 0.61:
                value = rng.choice(INFINITIES)
            else:
                value = round(rng.uniform(-50.0, 50.0), rng.randint(0, 3))
            events.append(Event(time, "k", value))
        streams[f"local-{i}"] = events
    return streams


def rows_of(sink) -> list[str]:
    return [
        repr((r.query_id, r.start, r.end, r.event_count, bits(r.value)))
        for r in sink
    ]


def test_root_sort_rows_are_pinned():
    cluster = DesisCluster(
        QUERIES, three_tier(LOCALS, 1), config=ClusterConfig(tick_interval=100)
    )
    result = cluster.run(make_streams())
    rows = rows_of(result.sink)
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert (len(rows), digest) == PINNED
    # the 1 000 ms MEDIAN windows read six cells each
    grid = cluster.root.assemblers[0].cells.grid
    spans = {
        grid.index(r.end - 1) - grid.index(r.start) + 1
        for r in result.sink
        if r.query_id == "q2"
    }
    assert min(spans) >= 3


def test_disco_ships_plain_lists():
    cluster = DiscoCluster(
        QUERIES, three_tier(LOCALS, 1), config=ClusterConfig(tick_interval=100)
    )
    shipped = []
    send = cluster.net.send

    def spy(sender, receiver, message):
        if isinstance(message, WindowPartialMessage) and message.values is not None:
            shipped.append(message.values)
        return send(sender, receiver, message)

    cluster.net.send = spy
    result = cluster.run(make_streams())
    assert len(result.sink) > 0
    assert shipped and all(type(values) is list for values in shipped)
    assert any(len(values) > 1_000 for values in shipped)
