"""Per-query window bookkeeping: instances and punctuation trackers.

The aggregation engine cuts a slice whenever any member query has a window
start (*sp*) or window end (*ep*) punctuation (Sec 4.1).  The classes here
track when those punctuations occur:

* :class:`FixedWindowTracker` — tumbling and sliding time-based windows.
  Their punctuations form a deterministic schedule from the tracker's
  origin, so the engine reads them off its group's punctuation grid
  instead of checking every event — this "calculate window ends in
  advance" behaviour is why Desis beats the per-event-checking baselines
  in Fig 6b.  The tracker keeps its open windows in opening order, which
  is also their closing order.
* :class:`SessionWindowTracker` — session windows.  Ends are data-driven:
  a window closes ``gap`` ms after its last matching event.  The tracker
  keeps one *tentative* end punctuation alive in the engine's heap and
  refreshes it lazily when it fires stale.
* :class:`UserDefinedWindowTracker` — windows delimited by marker events
  (e.g. car trips); ends fire right after the end-marker event.
* :class:`CountWindowTracker` — count-based tumbling/sliding windows;
  punctuations fire at matching-event indices rather than times.

**Window deduplication.**  Every tracker serves *all* queries of its group
that share the same window specification and selection context — the
mechanism that lets Desis scale to very large query counts (the paper's
"millions of queries"): a thousand identical windows cost one tracker and
one window instance; only the final result materialization is per query
(the effect dominating Fig 13a beyond ~10K queries).

Trackers only track; the engine performs the actual slice cuts and window
lifecycle transitions.
"""

from __future__ import annotations

from collections import deque

from repro.core.query import Query, WindowSpec
from repro.core.types import WindowType

__all__ = [
    "WindowInstance",
    "FixedWindowTracker",
    "SessionWindowTracker",
    "UserDefinedWindowTracker",
    "CountWindowTracker",
]


class WindowInstance:
    """One concrete open window, subscribed to by one or more queries."""

    __slots__ = ("uid", "queries", "ctx", "start", "end", "first_slice",
                 "start_count", "slide")

    def __init__(
        self,
        uid: int,
        queries: tuple[Query, ...],
        ctx: int,
        start: int,
        end: int | None,
        first_slice: int,
        start_count: int = 0,
        slide: int | None = None,
    ) -> None:
        self.uid = uid
        #: snapshot of the tracker's subscribers at window open; queries
        #: added later only join subsequently opened windows
        self.queries = queries
        self.ctx = ctx
        self.start = start
        #: known in advance for fixed windows, assigned at close otherwise
        self.end = end
        #: index of the first slice belonging to this window
        self.first_slice = first_slice
        #: for count-based windows: matching-event index at window start
        self.start_count = start_count
        #: the tracker's slide for fixed time windows, ``None`` for
        #: data-driven windows — the signal the incremental merge layer
        #: keys off (overlapping fixed windows reuse shared-slice merges)
        self.slide = slide

    def __repr__(self) -> str:
        ids = ",".join(q.query_id for q in self.queries[:3])
        return f"WindowInstance({ids} #{self.uid} [{self.start}..{self.end}))"


class _TrackerBase:
    """Common subscriber bookkeeping for all tracker kinds."""

    __slots__ = ("spec", "ctx", "_subscribers", "_snapshot")

    def __init__(self, query: Query, ctx: int) -> None:
        self.spec: WindowSpec = query.window
        self.ctx = ctx
        #: query id -> query, in subscription order
        self._subscribers: dict[str, Query] = {query.query_id: query}
        self._snapshot: tuple[Query, ...] | None = None

    def subscribe(self, query: Query) -> None:
        self._subscribers[query.query_id] = query
        self._snapshot = None

    def unsubscribe(self, query_id: str) -> bool:
        """Drop a subscriber; returns True when the tracker is now empty."""
        del self._subscribers[query_id]
        self._snapshot = None
        return not self._subscribers

    def snapshot(self) -> tuple[Query, ...]:
        """The subscribers: one tuple object until they change, by which
        the engine keys what a window of theirs merges."""
        if self._snapshot is None:
            self._snapshot = tuple(self._subscribers.values())
        return self._snapshot


class FixedWindowTracker(_TrackerBase):
    """Deterministic schedule for tumbling/sliding time windows: one
    starts at ``origin + k * slide`` for every ``k >= 0``."""

    __slots__ = ("length", "slide", "origin", "windows", "opened")

    def __init__(self, query: Query, ctx: int) -> None:
        super().__init__(query, ctx)
        assert query.window.length is not None
        self.length = query.window.length
        self.slide = query.window.effective_slide
        self.origin: int | None = None
        #: the windows it opened that have not ended, oldest first (so
        #: in the order they end)
        self.windows: deque[WindowInstance] = deque()
        #: uid of the last window opened, ``0`` before the first
        self.opened = 0

    def bootstrap(self, origin: int) -> int:
        """Set (and return) the first window start at the stream origin."""
        self.origin = origin
        return origin


class SessionWindowTracker(_TrackerBase):
    """Gap-driven session windows (Sec 2.1).

    ``generation`` invalidates tentative end punctuations: each matching
    event bumps it, so a heap entry scheduled for an older generation is
    stale and is re-armed at the current ``last_time + gap`` when it fires.
    """

    __slots__ = ("gap", "window", "last_time", "generation", "armed")

    def __init__(self, query: Query, ctx: int) -> None:
        super().__init__(query, ctx)
        assert query.window.gap is not None
        self.gap = query.window.gap
        self.window: WindowInstance | None = None
        self.last_time: int | None = None
        self.generation = 0
        #: whether a tentative end punctuation is currently in the heap
        self.armed = False

    def touch(self, time: int, rows: int = 1) -> None:
        """Record ``rows`` matching events, the last at ``time``
        (post-insert)."""
        self.last_time = time
        self.generation += rows

    @property
    def tentative_end(self) -> int:
        assert self.last_time is not None
        return self.last_time + self.gap


class UserDefinedWindowTracker(_TrackerBase):
    """Marker-delimited windows (Sec 2.1).

    With no ``start_marker`` the windows are back-to-back: a new window
    opens at the first relevant event after the previous window closed.
    Marker relevance honours the query's key selection but ignores value
    bounds — a trip-end marker ends the trip regardless of the reading
    it is attached to.
    """

    __slots__ = ("start_marker", "end_marker", "key", "window")

    def __init__(self, query: Query, ctx: int) -> None:
        super().__init__(query, ctx)
        self.start_marker = query.window.start_marker
        self.end_marker = query.window.end_marker
        self.key = query.selection.key
        self.window: WindowInstance | None = None

    def relevant(self, key: str | None) -> bool:
        return self.key is None or key == self.key

    def opens_at(self, key: str | None, marker: str | None) -> bool:
        """Whether an event with ``key`` and ``marker`` should open a
        window (checked pre-insert)."""
        if self.window is not None or not self.relevant(key):
            return False
        if self.start_marker is None:
            return True
        return marker == self.start_marker

    def closes_at(self, key: str | None, marker: str | None) -> bool:
        """Whether an event with ``key`` and ``marker`` ends the open
        window (checked post-insert)."""
        return (
            self.window is not None
            and self.relevant(key)
            and marker == self.end_marker
        )


class CountWindowTracker(_TrackerBase):
    """Count-based tumbling/sliding windows.

    ``seen`` counts events matching the query's selection context.  Window
    *m* covers matching events ``[m * slide, m * slide + length)``; its
    start punctuation fires before the first covered event and its end
    punctuation right after the last one.
    """

    __slots__ = ("length", "slide", "seen", "open_windows")

    def __init__(self, query: Query, ctx: int) -> None:
        super().__init__(query, ctx)
        assert query.window.length is not None
        self.length = query.window.length
        self.slide = query.window.effective_slide
        self.seen = 0
        self.open_windows: list[WindowInstance] = []

    def opens_now(self) -> bool:
        """Whether a window starts at the current matching event (pre-insert)."""
        return self.seen % self.slide == 0

    def next_punctuation(self) -> tuple[int, bool]:
        """Which matching event from now (0: the next) punctuates next,
        and whether it opens a window (pre-insert) or fills one
        (post-insert); one that does both opens."""
        opens = -self.seen % self.slide
        if self.open_windows:
            fills = self.open_windows[0].start_count + self.length - self.seen - 1
            if fills < opens:
                return fills, False
        return opens, True

    def record(self, rows: int = 1) -> list[WindowInstance]:
        """Count ``rows`` matching events (post-insert); return windows now
        full."""
        self.seen += rows
        full = [
            window
            for window in self.open_windows
            if self.seen - window.start_count >= self.length
        ]
        if full:
            self.open_windows = [w for w in self.open_windows if w not in full]
        return full
