"""Window result records and sinks."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator

__all__ = ["WindowResult", "ResultSink"]


@dataclass(slots=True, frozen=True, init=False)
class WindowResult:
    """The final aggregate of one window of one query.

    Attributes:
        query_id: the query this window belongs to.
        start: window start (ms, inclusive).
        end: window end (ms; exclusive for time-based windows, the time of
            the last contained event for count/user-defined windows).
        value: the aggregation result; ``None`` when the function is
            undefined on an empty window (e.g. average of nothing).
        event_count: number of events that matched the query's selection
            within the window.
        emitted_at: stream time at which the result was produced; in the
            decentralized setting this is simulated network time, so
            ``emitted_at - end`` is the event-time result latency.
        shed_slices: coverage intervals that overload control shed from
            this window's input: ``(node_id, start, end)`` tuples clipped
            to the window span (DESIGN.md §12).  Empty unless load
            shedding touched the window.
        completeness: fraction of the window span whose coverage was NOT
            shed — ``1.0`` for every fully assembled window; a degraded
            window carries ``completeness < 1.0`` and the shed intervals
            that explain the gap, instead of a silently wrong total.
    """

    query_id: str
    start: int
    end: int
    value: float | int | None
    event_count: int = 0
    emitted_at: int = 0
    shed_slices: tuple[tuple[str, int, int], ...] = ()
    completeness: float = 1.0

    def __init__(self, query_id, start, end, value, event_count=0, emitted_at=0,
                 shed_slices=(), completeness=1.0) -> None:
        # Straight through the slot descriptors: the generated frozen
        # __init__ pays an object.__setattr__ (a lookup by name) per field.
        _set_query_id(self, query_id)
        _set_start(self, start)
        _set_end(self, end)
        _set_value(self, value)
        _set_event_count(self, event_count)
        _set_emitted_at(self, emitted_at)
        _set_shed_slices(self, shed_slices)
        _set_completeness(self, completeness)

    @property
    def degraded(self) -> bool:
        return self.completeness < 1.0

    def __str__(self) -> str:
        base = (
            f"{self.query_id}[{self.start}..{self.end})="
            f"{self.value!r} (n={self.event_count})"
        )
        if self.completeness < 1.0:
            base += f" [degraded: completeness={self.completeness:.3f}]"
        return base


(
    _set_query_id, _set_start, _set_end, _set_value, _set_event_count,
    _set_emitted_at, _set_shed_slices, _set_completeness,
) = (WindowResult.__dict__[f.name].__set__ for f in fields(WindowResult))


@dataclass(slots=True)
class ResultSink:
    """Collects window results; the default sink used by engines and nodes.

    Benchmarks that only need counts can set ``keep=False`` to avoid
    accumulating millions of result records.
    """

    keep: bool = True
    results: list[WindowResult] = field(default_factory=list)
    count: int = 0

    def emit(self, result: WindowResult) -> None:
        self.count += 1
        if self.keep:
            self.results.append(result)

    def __iter__(self) -> Iterator[WindowResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return self.count

    def for_query(self, query_id: str) -> list[WindowResult]:
        return [r for r in self.results if r.query_id == query_id]
