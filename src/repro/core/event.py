"""Event and watermark records.

Events mirror the four fields of the paper's data generator (Sec 6.1.2):
``time``, ``key``, ``value``, and ``event`` (a user-defined window marker,
called ``marker`` here to avoid clashing with the class name).

Timestamps are integers in milliseconds of event time.  All engines in this
package consume streams ordered by ``time``; helpers below validate and merge
ordered streams.

NaN is refused where a value enters, here: by :class:`Event`, and by
:func:`holds_nan` for a value column offered without events (DESIGN.md
§9, "NaN").  ±inf, ±0.0 and subnormals are ordinary values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import isnan
from typing import Iterable, Iterator, Sequence

from repro.core.errors import NaNValueError, OutOfOrderError

__all__ = ["Event", "Watermark", "ensure_ordered", "holds_nan", "merge_streams"]


@dataclass(slots=True, frozen=True)
class Event:
    """A single stream event.

    Attributes:
        time: event timestamp in milliseconds (event time).
        key: the event's key, e.g. a sensor or player id.
        value: the numeric payload that aggregation functions consume.
        marker: optional user-defined window marker (e.g. ``"trip_end"``);
            ``None`` for ordinary events.

    Raises :class:`~repro.core.errors.NaNValueError` if ``value`` is NaN.
    """

    time: int
    key: str
    value: float
    marker: str | None = None

    def __post_init__(self) -> None:
        if self.value != self.value:
            raise NaNValueError(f"event at t={self.time}: NaN value refused")


@dataclass(slots=True, frozen=True)
class Watermark:
    """A progress marker: no event with ``time < self.time`` will follow.

    Watermarks let the root node terminate session and user-defined windows
    whose ends would otherwise wait for the next event (Sec 5.1.2).
    """

    time: int


def holds_nan(values: Sequence[float]) -> bool:
    """Whether ``values`` holds a NaN: summed in C, and confirmed item by
    item only when the sum is NaN, which a NaN-free column also reaches
    when it holds both infinities."""
    return isnan(sum(values)) and any(map(isnan, values))


def ensure_ordered(events: Iterable[Event]) -> Iterator[Event]:
    """Yield ``events`` unchanged, raising :class:`OutOfOrderError` on regress.

    The check is per-stream and inclusive: equal timestamps are allowed,
    strictly decreasing ones are not.
    """
    last = None
    for event in events:
        if last is not None and event.time < last:
            raise OutOfOrderError(
                f"event at t={event.time} arrived after stream time {last}"
            )
        last = event.time
        yield event


def merge_streams(*streams: Iterable[Event]) -> Iterator[Event]:
    """Merge several time-ordered streams into one time-ordered stream.

    This models the event order a centralized root observes when every local
    node forwards its stream.  Ties are broken by stream index so the merge
    is deterministic.
    """
    return heapq.merge(*streams, key=lambda event: event.time)
