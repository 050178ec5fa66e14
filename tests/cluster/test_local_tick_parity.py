"""A local node's batched ingest against per-event ingest, tick by tick.

``LocalNode.on_events`` drives its groups through the slice-run kernel.
The reference is a second node built from the same plan whose groups take
the same events one at a time through ``GroupRuntime.process``.  Both get
the same ticks, and after every tick they must have shipped the same
records -- start, end, contexts in order, counts, partials bit for bit,
spans, timed pairs, user-defined ends -- and hold the same
``EngineStats`` and slice sequences.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.config import ClusterConfig
from repro.cluster.local import LocalNode
from repro.core.analyzer import analyze
from repro.core.event import Event
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure
from repro.network.messages import PartialBatchMessage

TICK = 100


class Outbox:
    """The network a tick ships into: it only keeps what was sent."""

    def __init__(self) -> None:
        self.sent: list = []

    def send(self, src, dst, message) -> None:
        if isinstance(message, PartialBatchMessage):
            self.sent.append(message)


#: the query pool a draw picks from: pass-all and keyed sessions (one
#: whose gap is the tick, so the batch length), count windows, markers
#: and a deduplicating twin of a whole context
POOL = (
    Query.of("t", WindowSpec.tumbling(200), AggFunction.SUM),
    Query.of("x", WindowSpec.tumbling(300), AggFunction.MAX),
    Query.of("s_tick", WindowSpec.session(TICK), AggFunction.COUNT),
    Query.of("s_short", WindowSpec.session(30), AggFunction.AVERAGE),
    Query.of("s_long", WindowSpec.session(170), AggFunction.MIN),
    Query.of("s_keyed", WindowSpec.session(TICK), AggFunction.SUM,
             selection=Selection(key="a")),
    Query.of("s_range", WindowSpec.session(60), AggFunction.SUM,
             selection=Selection(lo=2.0, hi=6.0)),
    Query.of("m", WindowSpec.tumbling(200), AggFunction.MEDIAN),
    Query.of("m_twin", WindowSpec.tumbling(200), AggFunction.MEDIAN,
             selection=Selection(deduplicate=True)),
    Query.of("c", WindowSpec.tumbling(3, measure=WindowMeasure.COUNT),
             AggFunction.SUM, selection=Selection(key="b")),
    Query.of("u", WindowSpec.user_defined(end_marker="end"), AggFunction.SUM),
    Query.of("u_keyed", WindowSpec.user_defined(start_marker="go",
                                                end_marker="end"),
             AggFunction.COUNT, selection=Selection(key="b")),
)


def per_tick(events: list[Event], splits: list[int]):
    """The events in the batches a simulated local takes them in -- up to
    and including each tick -- each further split at ``splits`` (row
    counts into the batch), with the tick that follows."""
    batches: dict[int, list[Event]] = {}
    for event in events:
        batches.setdefault(-(-event.time // TICK) * TICK, []).append(event)
    last = max(batches, default=0) + 2 * TICK
    draws = iter(splits)
    for tick in range(TICK, last + TICK, TICK):
        batch = batches.get(tick, [])
        parts = []
        while batch:
            size = max(1, next(draws, len(batch)))
            parts.append(batch[:size])
            batch = batch[size:]
        yield parts, tick


def shipped(node: LocalNode, outbox: Outbox):
    """What a tick shipped and what the node holds after it, exactly
    (``repr`` tells ``-0.0`` from ``0.0`` and shows context order)."""
    batches, outbox.sent = outbox.sent, []
    return (
        [repr(batch) for batch in batches],
        repr(node.stats),
        [group.runtime.slice_seq for group in node.groups],
    )


@settings(deadline=None)
@given(
    picks=st.lists(st.sampled_from(POOL), min_size=1, max_size=5, unique=True),
    steps=st.lists(
        st.one_of(
            st.sampled_from([0, 0, 0, 1, 2]),
            # a pause of a session gap, or of one around a batch length
            st.sampled_from([29, 30, 31, 59, 60, 99, 100, 101, 170, 230]),
            st.integers(0, 40),
        ),
        max_size=60,
    ),
    twins=st.lists(st.booleans(), max_size=60),
    splits=st.lists(st.integers(0, 6), max_size=12),
    seed=st.integers(0, 2**16),
)
@example(
    # a pass-all session whose gap is the batch length, rows on the ticks
    picks=[POOL[2], POOL[0]],
    steps=[0, 100, 0, 100, 100, 50, 50, 100, 1],
    twins=[], splits=[], seed=0,
)
def test_node_ingest_matches_per_event_reference(picks, steps, twins, splits, seed):
    rng = random.Random(seed)
    events = []
    time = rng.randrange(TICK)
    for i, step in enumerate(steps):
        time += step
        event = Event(
            time, rng.choice("abc"), rng.choice((0.0, -0.0, 1.5, 3.0, 5.0, 7.25)),
            rng.choice((None, None, None, "end", "go")),
        )
        events.append(event)
        if i < len(twins) and twins[i]:
            events.append(replace(event))  # a deduplication twin
    plan = analyze(picks, decentralized=True)
    config = ClusterConfig(tick_interval=TICK)
    node = LocalNode("n", "p", plan, config)
    reference = LocalNode("n", "p", plan, config)
    node_out, reference_out = Outbox(), Outbox()
    for parts, tick in per_tick(events, splits):
        for part in parts:
            node.on_events(part, tick, node_out)
            for group in reference.groups:
                for event in part:
                    group.runtime.process(event)
            reference.stats.events += len(part)
        node.on_tick(tick, node_out)
        reference.on_tick(tick, reference_out)
        assert shipped(node, node_out) == shipped(reference, reference_out), tick
    node.on_finish(tick, node_out)
    reference.on_finish(tick, reference_out)
    assert shipped(node, node_out) == shipped(reference, reference_out)
