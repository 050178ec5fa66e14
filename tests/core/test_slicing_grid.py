"""A slicing-only runtime cuts on its punctuation grid exactly where the
heap of window instances it used to schedule made it cut.

:class:`HeapScheduled` keeps that schedule — every fixed tracker pushing
its next window start, every opened window its end, one cut per distinct
due time — verbatim, test-side, as the reference; the runtime under test
must hand its slice sink the same slices, one for one.
"""

from __future__ import annotations

import heapq

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.analyzer import analyze
from repro.core.engine import EngineStats, GroupRuntime
from repro.core.errors import EngineError
from repro.core.event import Event
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.results import ResultSink
from repro.core.types import AggFunction
from repro.core.windows import FixedWindowTracker
from repro.cluster.config import ClusterConfig
from repro.cluster.local import LocalNode

_SP_FIXED, _EP, _SESSION_EP = 0, 1, 2


class HeapScheduled(GroupRuntime):
    """The slicing-only runtime as it was before the grid (commit ba802b7):
    the methods below are that commit's, heap branch only.  Without a grid,
    a fixed tracker joining at runtime pushes its first start onto the
    heap, as that commit's ``add_query`` did."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        del self._drain  # back to the method below
        self.grid = None

    def _bootstrap(self, origin: int) -> None:
        self._bootstrapped = True
        self.current.start = origin
        for tracker in self.fixed:
            start = tracker.bootstrap(origin)
            self._push(start, _SP_FIXED, tracker)

    def _drain(self, now: int) -> None:
        heap = self._heap
        while heap and heap[0][0] <= now:
            time = heap[0][0]
            eps: list = []
            sps: list = []
            while heap and heap[0][0] == time:
                _, _, tag, payload = heapq.heappop(heap)
                self._classify(time, tag, payload, eps, sps)
            if eps or sps:
                self._cut(time, eps, sps)

    def _classify(self, time: int, tag: int, payload, eps: list, sps: list) -> None:
        if tag == _EP:
            window = payload
            if window.uid in self.open_windows:
                eps.append((window, time))
            return
        if tag == _SP_FIXED:
            tracker = payload
            if tracker in self.fixed:  # ignore punctuations of removed queries
                sps.append(self._make_fixed_opener(tracker, time))
            return
        if tag == _SESSION_EP:
            tracker, generation = payload
            tracker.armed = False
            if tracker.window is None:
                return
            if tracker.generation == generation:
                eps.append((tracker.window, time))
                tracker.window = None
            else:
                # Stale: newer events extended the session; re-arm lazily.
                tracker.armed = True
                self._push(
                    tracker.tentative_end,
                    _SESSION_EP,
                    (tracker, tracker.generation),
                )
            return
        raise EngineError(f"unknown punctuation tag: {tag!r}")

    def _make_fixed_opener(self, tracker: FixedWindowTracker, time: int):
        def open_fixed() -> None:
            window = self._open_window(
                tracker.snapshot(), tracker.ctx, time, time + tracker.length,
                slide=tracker.slide,
            )
            self._push(window.end, _EP, window)
            self._push(tracker.advance(), _SP_FIXED, tracker)

        return open_fixed

    def _next_punctuation(self) -> int | None:
        return self._heap[0][0] if self._heap else None

    def close(self, at_time: int | None = None) -> None:
        final = at_time if at_time is not None else (self.stream_time or 0)
        self.advance(final)
        if not self.open_windows:
            return
        eps = []
        for window in list(self.open_windows.values()):
            end = window.end if window.end is not None else final
            eps.append((window, min(end, final) if window.end is None else end))
        for tracker in self.sessions:
            tracker.window = None
        for tracker in self.userdef:
            if tracker.window is not None:
                tracker.window = None
                self._userdef_closed.append(tracker)
        for tracker in self.counts:
            tracker.open_windows.clear()
        self._cut(final, eps, [])


class Cuts:
    """What one runtime hands its slice sink, call by call."""

    def __init__(self, runtime_cls, queries) -> None:
        (group,) = analyze(queries).groups
        self.calls: list[tuple] = []
        self.stats = EngineStats()
        self.runtime = runtime_cls(
            group, ResultSink(keep=False), self.stats, assemble=False,
            slice_sink=self._on_cut,
        )

    def _on_cut(self, closed, eps, spans, timed) -> None:
        # what ``_LocalGroup._on_cut`` reads: user-defined ends (and, here,
        # every other data-driven end: sessions)
        data_driven = [
            (tuple(q.query_id for q in window.queries), window.start, end)
            for window, end in eps
            if window.slide is None
        ]
        self.calls.append((
            closed.index, closed.start, closed.end,
            {ctx: dict(ops) for ctx, ops in closed.partials.items()},
            dict(closed.insert_counts), data_driven,
            {ctx: tuple(span) for ctx, span in spans.items()},
            {ctx: list(pairs) for ctx, pairs in timed.items()},
        ))

    def attach(self, query: Query) -> None:
        """``AggregationEngine.add_query`` for a query that fits the group."""
        self.runtime.group._admit(query)
        self.runtime.add_query(query)

    def detach(self, query_id: str) -> None:
        # as ``_LocalGroup.remove_query``: a slicing-only runtime has no
        # tracker for a count-window query
        if query_id in self.runtime.tracker_by_query:
            self.runtime.remove_query(query_id)
        self.runtime.group.remove_query(query_id)

    def replay(self, events, splits, actions, close_at) -> None:
        """Feed ``events`` — one by one when ``splits`` is None, else in
        the batches it delimits — applying ``actions`` (index -> callback)
        between rows."""
        stops = sorted({*actions, len(events), *(splits or range(len(events)))})
        at = 0
        for stop in stops:
            if stop > at:
                if splits is None:
                    for event in events[at:stop]:
                        self.runtime.process(event)
                else:
                    self.runtime.process_batch(events[at:stop])
                at = stop
            for action in actions.get(stop, ()):
                action(self)
        self.runtime.close(close_at)


FUNCTIONS = (AggFunction.SUM, AggFunction.COUNT, AggFunction.AVERAGE, AggFunction.MAX)


@st.composite
def windows(draw, userdef: bool):
    kind = draw(st.sampled_from(
        ["tumbling", "sliding", "ragged", "session"] + ["userdef"] * userdef
    ))
    if kind == "tumbling":
        return WindowSpec.tumbling(draw(st.sampled_from([50, 100, 200, 1_000])))
    if kind == "sliding":
        return draw(st.sampled_from(
            [WindowSpec.sliding(400, 100), WindowSpec.sliding(400, 200),
             WindowSpec.sliding(300, 50)]
        ))
    if kind == "ragged":  # length % slide != 0: ends off the starts
        return draw(st.sampled_from(
            [WindowSpec.sliding(250, 100), WindowSpec.sliding(130, 60)]
        ))
    if kind == "session":
        return WindowSpec.session(gap=draw(st.sampled_from([40, 120, 300])))
    return WindowSpec.user_defined(
        end_marker="end", start_marker=draw(st.sampled_from([None, "go"]))
    )


LATE_WINDOWS = (
    WindowSpec.tumbling(70), WindowSpec.tumbling(150),
    WindowSpec.sliding(210, 70), WindowSpec.sliding(160, 70),
    WindowSpec.session(gap=90), WindowSpec.user_defined(end_marker="go"),
)


@st.composite
def scenarios(draw):
    userdef = draw(st.booleans())  # a marker window forces the per-event path
    keyed = draw(st.booleans())
    keys = ("a", "b") if keyed else (None,)

    def query(name, window):
        return Query.of(
            name, window, draw(st.sampled_from(FUNCTIONS)),
            selection=Selection(key=draw(st.sampled_from(keys))),
        )

    queries = [
        query(f"q{i}", draw(windows(userdef)))
        for i in range(draw(st.integers(1, 5)))
    ]
    # A late query brings a window nothing else has.  (One that joined a
    # running tracker, whose open windows then lost every subscriber of
    # their own, is where the heap skipped a window end — the instance
    # went with its subscribers — and the grid, like the root's, does not.)
    late = [
        query(f"late{i}", window)
        for i, window in enumerate(
            draw(st.permutations(LATE_WINDOWS[: len(LATE_WINDOWS) - (not userdef)]))
            [: draw(st.integers(0, 2))]
        )
    ]
    gaps = draw(st.lists(
        st.sampled_from([0, 1, 3, 10, 35, 60, 140, 450, 1_300]),
        min_size=1, max_size=70,
    ))
    time = draw(st.sampled_from([0, 7, 300]))
    events = []
    for gap in gaps:
        time += gap
        events.append(Event(
            time, draw(st.sampled_from(["a", "b", "c"])),
            float(draw(st.integers(-5, 50))),
            draw(st.sampled_from([None, None, None, "end", "go"])),
        ))
    index = st.integers(0, len(events))
    actions: dict[int, list] = {}
    for q in late:
        actions.setdefault(draw(index), []).append(
            lambda cuts, q=q: cuts.attach(q)
        )
    removable = [q.query_id for q in queries + late]
    for query_id in draw(st.lists(st.sampled_from(removable), unique=True,
                                  max_size=2)):
        # a query can only go once it is there: late ones are attached at
        # or before ``len(events)``, where removals come last
        at = len(events) if query_id.startswith("late") else draw(index)
        actions.setdefault(at, []).append(
            lambda cuts, query_id=query_id: cuts.detach(query_id)
        )
    splits = draw(st.one_of(
        st.none(), st.lists(index, max_size=6).map(sorted),
    ))
    close_at = draw(st.sampled_from([None, 0, 90, 2_000]))
    fixed_only = all(q.window.is_fixed_size for q in queries + late)
    return queries, events, splits, actions, close_at, fixed_only


class TestGridCutsWhereTheHeapCut:
    @settings(max_examples=300, deadline=None)
    @given(scenario=scenarios())
    def test_random_mixes(self, scenario):
        queries, events, splits, actions, close_at, fixed_only = scenario
        assume(len(analyze(queries).groups) == 1)
        close_at = None if close_at is None else events[-1].time + close_at
        reference = Cuts(HeapScheduled, queries)
        reference.replay(events, splits, actions, close_at)
        grid = Cuts(GroupRuntime, queries)
        grid.replay(events, splits, actions, close_at)
        assert grid.calls == reference.calls
        for name in ("inserts", "calculations", "selection_checks",
                     "slices_closed", "duplicates_dropped"):
            assert getattr(grid.stats, name) == getattr(reference.stats, name)
        assert grid.runtime.slice_seq == reference.runtime.slice_seq
        if fixed_only:  # only data-driven windows ever open on the grid
            assert grid.stats.windows_opened == 0

    def test_empty_slices_keep_their_ids(self):
        """A gap passes many punctuations: each is a cut, so slice ids
        keep counting punctuations."""
        queries = [Query.of("q", WindowSpec.sliding(250, 100), AggFunction.SUM)]
        events = [Event(0, "k", 1.0), Event(1_000, "k", 2.0)]
        grid = Cuts(GroupRuntime, queries)
        grid.replay(events, None, {}, None)
        reference = Cuts(HeapScheduled, queries)
        reference.replay(events, None, {}, None)
        assert grid.calls == reference.calls
        assert [(start, end) for _, start, end, *_ in grid.calls][:6] == [
            (0, 0), (0, 100), (100, 200), (200, 250), (250, 300), (300, 350)
        ]


class TestLocalNodeOpensNoFixedWindow:
    def test_fixed_only_plan(self):
        plan = analyze(
            [
                Query.of("t", WindowSpec.tumbling(100), AggFunction.AVERAGE),
                Query.of("s", WindowSpec.sliding(250, 100), AggFunction.MAX),
                Query.of("m", WindowSpec.tumbling(200), AggFunction.MEDIAN),
            ],
            decentralized=True,
        )
        node = LocalNode("local-0", "root", plan, ClusterConfig(tick_interval=100))
        events = [Event(7 * i, "k", float(i % 11)) for i in range(300)]
        node.on_events(events[:150], 0, None)
        for event in events[150:]:
            for group in node.groups:
                group.runtime.process(event)
        for group in node.groups:
            group.drain(2_200)
        assert node.stats.windows_opened == 0
        assert node.stats.windows_closed == 0
        assert node.stats.peak_open_windows == 0
        assert node.stats.slices_closed > 40
