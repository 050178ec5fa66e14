"""Per-query window bookkeeping: instances and punctuation trackers.

The aggregation engine cuts a slice whenever any member query has a window
start (*sp*) or window end (*ep*) punctuation (Sec 4.1).  The classes here
track when those punctuations occur:

* :class:`FixedWindowTracker` — tumbling and sliding time-based windows.
  Their punctuations form a deterministic schedule, so the engine keeps
  only the *next* start in a heap instead of checking every event — this
  "calculate window ends in advance" behaviour is why Desis beats the
  per-event-checking baselines in Fig 6b.
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

from repro.core.event import Event
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

    __slots__ = ("spec", "ctx", "queries")

    def __init__(self, query: Query, ctx: int) -> None:
        self.spec: WindowSpec = query.window
        self.ctx = ctx
        self.queries: tuple[Query, ...] = (query,)

    def subscribe(self, query: Query) -> None:
        self.queries += (query,)

    def unsubscribe(self, query_id: str) -> bool:
        """Drop a subscriber; returns True when the tracker is now empty."""
        self.queries = tuple(q for q in self.queries if q.query_id != query_id)
        return not self.queries

    def serves(self, query_id: str) -> bool:
        return any(q.query_id == query_id for q in self.queries)

    def snapshot(self) -> tuple[Query, ...]:
        """The subscribers: one tuple object until they change, by which
        the engine keys what a window of theirs merges."""
        return self.queries


class FixedWindowTracker(_TrackerBase):
    """Deterministic start schedule for tumbling/sliding time windows."""

    __slots__ = ("length", "slide", "next_start")

    def __init__(self, query: Query, ctx: int) -> None:
        super().__init__(query, ctx)
        assert query.window.length is not None
        self.length = query.window.length
        self.slide = query.window.effective_slide
        self.next_start: int | None = None

    def bootstrap(self, origin: int) -> int:
        """Set (and return) the first window start at the stream origin."""
        self.next_start = origin
        return origin

    def advance(self) -> int:
        """Consume the pending start and return the following one."""
        assert self.next_start is not None
        self.next_start += self.slide
        return self.next_start


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

    def touch(self, time: int) -> None:
        """Record a matching event at ``time`` (post-insert)."""
        self.last_time = time
        self.generation += 1

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

    def relevant(self, event: Event) -> bool:
        return self.key is None or event.key == self.key

    def opens_at(self, event: Event) -> bool:
        """Whether ``event`` should open a window (checked pre-insert)."""
        if self.window is not None or not self.relevant(event):
            return False
        if self.start_marker is None:
            return True
        return event.marker == self.start_marker

    def closes_at(self, event: Event) -> bool:
        """Whether ``event`` ends the open window (checked post-insert)."""
        return (
            self.window is not None
            and self.relevant(event)
            and event.marker == self.end_marker
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

    def record(self) -> list[WindowInstance]:
        """Count one matching event (post-insert); return windows now full."""
        self.seen += 1
        full = [
            window
            for window in self.open_windows
            if self.seen - window.start_count >= self.length
        ]
        if full:
            self.open_windows = [w for w in self.open_windows if w not in full]
        return full
