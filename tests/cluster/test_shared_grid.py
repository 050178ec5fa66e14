"""Locals and root read one punctuation grid per query-group: built from
the same fixed queries on every node, and rebuilt alike when one goes."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.event import Event
from repro.core.grid import PunctuationGrid
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.cluster import ClusterConfig, DesisCluster
from repro.network.messages import PartialBatchMessage
from repro.network.topology import three_tier

from tests.cluster.test_desis_parity import make_streams

WINDOWS = st.sampled_from([
    WindowSpec.tumbling(100), WindowSpec.tumbling(200), WindowSpec.tumbling(1_000),
    WindowSpec.sliding(400, 100), WindowSpec.sliding(400, 200),
    WindowSpec.sliding(250, 100), WindowSpec.sliding(130, 60),
    WindowSpec.session(300),
])
#: decomposable ones are pushed down, MEDIAN is evaluated at the root
FUNCTIONS = st.sampled_from([AggFunction.AVERAGE, AggFunction.MAX, AggFunction.MEDIAN])


def grids(cluster, group_id):
    """The group's grid at the root and at every local."""
    return [cluster.root.assemblers[group_id].cells.grid] + [
        node.groups[group_id].runtime.grid for node in cluster.locals.values()
    ]


def assert_one_grid(cluster):
    for group in cluster.plan.groups:
        root, *local = grids(cluster, group.group_id)
        assert all(grid == root for grid in local), (group.group_id, root, local)


class TestLocalsAndRootShareTheGrid:
    @settings(max_examples=60, deadline=None)
    @given(
        specs=st.lists(st.tuples(WINDOWS, FUNCTIONS), min_size=1, max_size=6),
        origin=st.sampled_from([0, 300, 1_700]),
        removed=st.lists(st.integers(0, 5), max_size=3, unique=True),
        late=st.tuples(WINDOWS, FUNCTIONS),
    )
    def test_same_grid_after_every_plan_change(self, specs, origin, removed, late):
        queries = [
            Query.of(f"q{i}", window, function)
            for i, (window, function) in enumerate(specs)
        ]
        cluster = DesisCluster(
            queries, three_tier(2, 1),
            config=ClusterConfig(tick_interval=100, origin=origin),
        )
        assert_one_grid(cluster)

        def remove(cluster):
            for index in removed:
                if index < len(queries):
                    cluster.remove_query(f"q{index}")
                    assert_one_grid(cluster)

        def attach(cluster):
            # its own group, anchored at the tick the deployment has reached
            cluster.add_query(Query.of("late", *late))
            assert_one_grid(cluster)
            root, *_ = grids(cluster, len(cluster.plan.groups) - 1)
            if late[0].is_fixed_size:
                assert root.progressions[0][0] == origin + 700
            else:
                assert root == PunctuationGrid()

        streams = {
            node: [Event(e.time + origin, e.key, e.value) for e in events]
            for node, events in make_streams(2, 300).items()
        }
        cluster.run(streams, actions=[(origin + 250, remove), (origin + 730, attach)])
        assert len(cluster.plan.groups[-1].queries) == 1  # ``late`` got there

    def test_a_removed_schedule_leaves_the_grid_everywhere(self):
        cluster = DesisCluster(
            [
                Query.of("fine", WindowSpec.tumbling(100), AggFunction.AVERAGE),
                Query.of("coarse", WindowSpec.tumbling(1_000), AggFunction.MAX),
                Query.of("fine-m", WindowSpec.tumbling(100), AggFunction.MEDIAN),
                Query.of("coarse-m", WindowSpec.tumbling(1_000), AggFunction.MEDIAN),
            ],
            three_tier(2, 1),
            config=ClusterConfig(tick_interval=100),
        )
        cluster.remove_query("fine")
        cluster.remove_query("fine-m")
        coarse = PunctuationGrid([(0, 1_000, 1_000)])
        for group in cluster.plan.groups:
            assert grids(cluster, group.group_id) == [coarse] * 3


class TestRootEvaluatedGroupStopsCuttingForARemovedQuery:
    """Ticks every second, so they do not hide the 100 ms cuts."""

    QUERIES = [
        Query.of("slow", WindowSpec.tumbling(1_000), AggFunction.MEDIAN),
        Query.of("fast", WindowSpec.tumbling(100), AggFunction.MEDIAN),
    ]

    def run(self, queries, actions=None):
        cluster = DesisCluster(
            queries, three_tier(2, 1), config=ClusterConfig(tick_interval=1_000)
        )
        cuts = []  # the intervals of the records the locals ship
        send = cluster.net.send

        def capture(src, dst, message):
            if src in cluster.locals and isinstance(message, PartialBatchMessage):
                cuts.extend((record.start, record.end) for record in message.records)
            send(src, dst, message)

        cluster.net.send = capture
        result = cluster.run(make_streams(2, 1_500), actions=actions)
        rows = [
            (r.start, r.end, r.value, r.event_count)
            for r in result.sink.for_query("slow")
        ]
        return cuts, rows

    def test_later_records_follow_the_survivors_punctuations(self):
        cuts, rows = self.run(
            self.QUERIES, actions=[(3_000, lambda c: c.remove_query("fast"))]
        )
        before = [cut for cut in cuts if cut[1] <= 3_000]
        after = [cut for cut in cuts if cut[0] >= 3_000]
        assert {end - start for start, end in before} == {100}
        assert len(after) > 4
        assert all(
            start % 1_000 == 0 and end == start + 1_000 for start, end in after
        )
        alone, alone_rows = self.run(self.QUERIES[:1])
        assert rows == alone_rows and len(rows) > 4
        assert all(end - start == 1_000 for start, end in alone)
