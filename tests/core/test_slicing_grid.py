"""Every runtime cuts on its punctuation grid exactly where the heap of
window instances it used to schedule made it cut.

:class:`HeapScheduled` keeps that schedule — every fixed tracker pushing
its next window start, every opened window its end, one cut per distinct
due time — verbatim, test-side, as the reference.  A slicing-only runtime
under test must hand its slice sink the same slices, one for one; an
assembling one must also emit the same rows and count the same work.

Two differences are the grid's, and documented (DESIGN.md §3):

* a window whose snapshot subscribers were all removed while later
  subscribers kept its tracker alive lost its end punctuation in the
  heap; the grid still cuts there;
* a session's end and a fixed window's end on the same time close in the
  order the heap and the grid hand them over, so rows of a group with
  sessions are compared as sets.
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
from repro.core.types import AggFunction, WindowMeasure, WindowType
from repro.core.windows import FixedWindowTracker
from repro.cluster.config import ClusterConfig
from repro.cluster.local import LocalNode

_SP_FIXED, _EP, _SESSION_EP = 0, 1, 2


class HeapScheduled(GroupRuntime):
    """The heap schedule of commit 910a3f7's assembling runtimes (and of
    slicing-only ones before the grid, commit ba802b7): the methods below
    are that code's, heap branch only.  Without a grid, a fixed tracker
    joining at runtime pushes its first start onto the heap, as that
    code's ``add_query`` did; it never hops a session."""

    def _sync_kernel(self) -> None:
        super()._sync_kernel()
        self._hops = []

    def _regrid(self, now: int) -> None:
        # No grid: the trackers bootstrapped at ``now`` push their first
        # starts instead, in join order.
        for tracker in self._joining:
            self._push(now, _SP_FIXED, tracker)
        self._joining = []

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
            # the tracker's next start (``tracker.advance()`` then)
            self._push(time + tracker.slide, _SP_FIXED, tracker)

        return open_fixed

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
    """What one runtime hands its slice sink, call by call, and its rows."""

    def __init__(self, runtime_cls, queries, *, assemble: bool = False,
                 emit_empty: bool = False) -> None:
        (group,) = analyze(queries).groups
        self.calls: list[tuple] = []
        self.stats = EngineStats()
        self.sink = ResultSink()
        #: whether a removal left a window's end to a tracker that lives on
        #: (the first documented difference)
        self.skipped_end = False
        self.runtime = runtime_cls(
            group, self.sink, self.stats, assemble=assemble,
            emit_empty=emit_empty, slice_sink=self._on_cut,
        )

    def _on_cut(self, closed, eps, spans, timed) -> None:
        # what ``_LocalGroup._on_cut`` reads: user-defined ends (and, here,
        # every other data-driven end: sessions and counts)
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

    def rows(self) -> list[tuple]:
        return [
            (r.query_id, r.start, r.end, r.value, r.event_count, r.emitted_at)
            for r in self.sink.results
        ]

    def attach(self, query: Query) -> None:
        """``AggregationEngine.add_query`` for a query that fits the group."""
        self.runtime.group._admit(query)
        self.runtime.add_query(query)

    def detach(self, query_id: str, drain: bool = False) -> None:
        # as ``_LocalGroup.remove_query``: a slicing-only runtime has no
        # tracker for a count-window query
        runtime = self.runtime
        tracker = runtime.tracker_by_query.get(query_id)
        if tracker is not None:
            before = set(runtime.open_windows)
            runtime.remove_query(query_id, drain=drain)
            if tracker in runtime.fixed and before - set(runtime.open_windows):
                self.skipped_end = True
        runtime.group.remove_query(query_id)

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
        ["tumbling", "sliding", "ragged", "session", "count"] + ["userdef"] * userdef
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
    if kind == "count":
        return draw(st.sampled_from(
            [WindowSpec.tumbling(3, measure=WindowMeasure.COUNT),
             WindowSpec.sliding(4, 2, measure=WindowMeasure.COUNT)]
        ))
    return WindowSpec.user_defined(
        end_marker="end", start_marker=draw(st.sampled_from([None, "go"]))
    )


#: windows only a late query brings: they add punctuations nothing else has
LATE_WINDOWS = (
    WindowSpec.tumbling(70), WindowSpec.tumbling(150),
    WindowSpec.sliding(210, 70), WindowSpec.sliding(160, 70),
    WindowSpec.session(gap=90), WindowSpec.user_defined(end_marker="go"),
)


@st.composite
def scenarios(draw):
    assemble = draw(st.booleans())
    userdef = draw(st.booleans())
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
    # A late query brings a window nothing else has, or subscribes to a
    # running tracker: one whose open windows then lose every subscriber
    # of their own is where the heap skipped a window end.
    late_windows = draw(st.permutations(
        LATE_WINDOWS[: len(LATE_WINDOWS) - (not userdef)]
    ))[: draw(st.integers(0, 2))]
    if draw(st.booleans()):
        late_windows.append(draw(st.sampled_from(queries)).window)
    late = [query(f"late{i}", window) for i, window in enumerate(late_windows)]
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
                                  max_size=3)):
        # a query can only go once it is there: late ones are attached at
        # or before ``len(events)``, where removals come last.  Only an
        # assembling runtime has windows to drain.
        at = len(events) if query_id.startswith("late") else draw(index)
        drain = assemble and draw(st.booleans())
        actions.setdefault(at, []).append(
            lambda cuts, query_id=query_id, drain=drain: cuts.detach(query_id, drain)
        )
    splits = draw(st.one_of(
        st.none(), st.lists(index, max_size=6).map(sorted),
    ))
    close_at = draw(st.sampled_from([None, 0, 90, 2_000]))
    return (queries + late, assemble, draw(st.booleans()), events, splits,
            actions, close_at)


def replay_both(scenario) -> tuple[Cuts, Cuts]:
    """The reference and the runtime under test, through one scenario."""
    queries, assemble, emit_empty, events, splits, actions, close_at = scenario
    base = [q for q in queries if not q.query_id.startswith("late")]
    assume(len(analyze(queries).groups) == 1)
    close_at = None if close_at is None else events[-1].time + close_at
    runs = []
    for runtime_cls in (HeapScheduled, GroupRuntime):
        cuts = Cuts(runtime_cls, base, assemble=assemble, emit_empty=emit_empty)
        cuts.replay(events, splits, actions, close_at)
        runs.append(cuts)
    return runs[0], runs[1]


class TestGridCutsWhereTheHeapCut:
    # 300 examples, or the nightly profile's 2 000
    @settings(deadline=None, max_examples=max(300, settings.default.max_examples))
    @given(scenario=scenarios())
    def test_random_mixes(self, scenario):
        reference, grid = replay_both(scenario)
        queries, assemble = scenario[:2]
        if reference.skipped_end:
            # the heap skipped an end the grid cuts at: the grid's slices
            # refine the heap's, and the windows are the same
            assert {c[2] for c in reference.calls} <= {c[2] for c in grid.calls}
            assert sorted(grid.rows()) == sorted(reference.rows())
            return
        assert grid.calls == reference.calls
        assert grid.runtime.slice_seq == reference.runtime.slice_seq
        if not assemble:
            # the reference opens fixed windows a slicing-only runtime does
            # not, so only the slicing counters compare
            for name in ("inserts", "calculations", "selection_checks",
                         "slices_closed", "duplicates_dropped"):
                assert getattr(grid.stats, name) == getattr(reference.stats, name)
            if all(q.window.is_fixed_size for q in queries):
                assert grid.stats.windows_opened == 0
            return
        assert grid.stats == reference.stats
        if any(q.window.window_type is WindowType.SESSION for q in queries):
            assert sorted(grid.rows()) == sorted(reference.rows())
        else:
            assert grid.rows() == reference.rows()

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


class TestAssemblingOrder:
    """The two ordering rules, each on a case where a plain walk of the
    trackers would break it."""

    def run(self, queries, events, actions=None) -> tuple[Cuts, Cuts]:
        runs = []
        for runtime_cls in (HeapScheduled, GroupRuntime):
            cuts = Cuts(runtime_cls, queries, assemble=True)
            cuts.replay(events, None, actions or {}, None)
            runs.append(cuts)
        return runs[0], runs[1]

    def test_trackers_open_in_the_order_their_previous_windows_opened(self):
        # at 100 the slower tracker's last window (opened at 0) precedes
        # the faster one's (opened at 50), though the faster one is listed
        # first: its window [100, 300) opens, and so closes, second
        queries = [
            Query.of("fast", WindowSpec.sliding(200, 50), AggFunction.SUM),
            Query.of("slow", WindowSpec.sliding(200, 100), AggFunction.MAX),
        ]
        events = [Event(t, "k", float(t)) for t in range(0, 420, 10)]
        reference, grid = self.run(queries, events)
        assert grid.rows() == reference.rows()
        assert [r[0] for r in grid.rows() if r[1:3] == (0, 200)] == ["fast", "slow"]
        assert [r[0] for r in grid.rows() if r[1:3] == (100, 300)] == ["slow", "fast"]

    def test_a_drained_window_closes_in_opening_order(self):
        # "gone" is removed with drain=True: its open windows end through
        # the heap and still close among the grid's in opening order
        queries = [
            Query.of("stay", WindowSpec.sliding(300, 100), AggFunction.SUM),
            Query.of("gone", WindowSpec.sliding(200, 100), AggFunction.SUM),
        ]
        events = [Event(t, "k", 1.0) for t in range(0, 700, 25)]
        actions = {10: [lambda cuts: cuts.detach("gone", drain=True)]}
        reference, grid = self.run(queries, events, actions)
        assert grid.rows() == reference.rows()
        assert grid.stats == reference.stats
        assert [r[:3] for r in grid.rows() if r[0] == "gone"][-2:] == [
            ("gone", 100, 300), ("gone", 200, 400)
        ]
        assert [r[0] for r in grid.rows() if r[2] == 300] == ["stay", "gone"]


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
