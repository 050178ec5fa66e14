"""The conformance reference oracle and its tolerance policies.

The oracle computes window results directly from the full event list with
no slicing, no sharing, and no incremental state — the most obviously
correct implementation possible: the independent reference every engine,
baseline, and cluster deployment is differentially checked against.

Semantics mirrored from the engine:

* Tumbling/sliding time windows align to the first event's timestamp (or
  an explicit ``origin``, matching a cluster's global time origin) and
  fire when stream time passes their end; windows still open at close time
  are emitted with their declared end but only the observed events.
* Session windows close ``gap`` ms after their last matching event (an
  event exactly at ``last + gap`` starts a new session).
* User-defined windows (no start marker) open at the first key-relevant
  event after the previous window closed and close with the end-marker
  event inclusive.
* Count windows cover ``length`` matching events, advancing every
  ``slide`` matching events.
* Empty windows are not emitted.

Tolerance policies
------------------

Differential comparison needs to know how close is close enough.  The
contract (DESIGN.md §9, §10):

* Two runs of the one engine — per-event or batched, either punctuation
  mode — close every window through the same slices and the same
  Two-Stacks streams, so they are **byte-identical**: zero tolerance.
* Cross-implementation comparisons (a distributed fold vs a centralized
  one, or either vs this oracle) re-order float additions, so float-valued
  operator kinds (sum, multiplication, sum-of-squares — i.e.
  SUM/AVERAGE/PRODUCT/GEOMETRIC_MEAN/VARIANCE/STDDEV) are compared within
  ``1e-9`` **relative**; count, extrema, and sorted-value functions
  (COUNT/MAX/MIN/MEDIAN/QUANTILE) stay exact because their partials carry
  the original values unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.core.event import Event
from repro.core.query import Query
from repro.core.types import AggFunction, WindowMeasure, WindowType

__all__ = [
    "OracleWindow",
    "TolerancePolicy",
    "EXACT",
    "FLOAT_FOLD_FUNCTIONS",
    "tolerance_for",
    "values_match",
    "naive_value",
    "naive_windows",
    "naive_results",
]


# -- tolerance policies ------------------------------------------------------

#: Functions whose finalized value is produced by re-associable float
#: arithmetic (sum / product / sum-of-squares operator folds).
FLOAT_FOLD_FUNCTIONS = frozenset(
    {
        AggFunction.SUM,
        AggFunction.AVERAGE,
        AggFunction.PRODUCT,
        AggFunction.GEOMETRIC_MEAN,
        AggFunction.VARIANCE,
        AggFunction.STDDEV,
    }
)


@dataclass(frozen=True, slots=True)
class TolerancePolicy:
    """How close two finalized window values must be to count as equal.

    ``rel_tol == abs_tol == 0`` demands byte-identical values.
    """

    rel_tol: float = 0.0
    abs_tol: float = 0.0

    @property
    def exact(self) -> bool:
        return self.rel_tol == 0.0 and self.abs_tol == 0.0


#: The zero-tolerance policy (byte-identical).
EXACT = TolerancePolicy()

#: 1e-9 relative: the contract for float folds in different orders.
_CROSS_FOLD_FLOAT = TolerancePolicy(rel_tol=1e-9, abs_tol=1e-12)


def tolerance_for(query: Query, *, cross_fold: bool = False) -> TolerancePolicy:
    """The comparison policy for one query's finalized values.

    Byte-identical unless the comparison crosses independently-ordered
    folds (``cross_fold=True``: distributed vs centralized, engine vs
    oracle), which re-associate float additions and get the 1e-9-relative
    float-fold allowance of DESIGN.md §9; count/extrema/sorted functions
    are exact either way because their partials carry original values
    unchanged.
    """
    if cross_fold and query.function.fn in FLOAT_FOLD_FUNCTIONS:
        return _CROSS_FOLD_FLOAT
    return EXACT


def values_match(expected, got, policy: TolerancePolicy = EXACT) -> bool:
    """Whether two finalized window values agree under ``policy``; two
    NaNs agree (``inf - inf`` is NaN whoever folds it)."""
    if expected is None or got is None:
        return expected is got
    if expected != expected and got != got:
        return True
    if policy.exact:
        return expected == got
    if isinstance(expected, bool) or isinstance(got, bool):
        return expected == got
    try:
        return expected == got or math.isclose(
            float(expected), float(got),
            rel_tol=policy.rel_tol, abs_tol=policy.abs_tol,
        )
    except (TypeError, OverflowError, ValueError):
        return expected == got


# -- the naive oracle --------------------------------------------------------


@dataclass
class OracleWindow:
    start: int
    end: int
    values: list[float]


def naive_value(query: Query, values: list[float]):
    """Directly compute the aggregation function over ``values``."""
    fn = query.function.fn
    if fn is AggFunction.SUM:
        return sum(values)
    if fn is AggFunction.COUNT:
        return len(values)
    if fn is AggFunction.AVERAGE:
        return sum(values) / len(values) if values else None
    if fn is AggFunction.PRODUCT:
        return math.prod(values)
    if fn is AggFunction.GEOMETRIC_MEAN:
        product = math.prod(values)
        if not values or product < 0.0:
            return None  # undefined, as the engine finalizes it
        return product ** (1.0 / len(values))
    if fn is AggFunction.MAX:
        return max(values) if values else None
    if fn is AggFunction.MIN:
        return min(values) if values else None
    if fn in (AggFunction.VARIANCE, AggFunction.STDDEV):
        if not values:
            return None
        mean = sum(values) / len(values)
        variance = max(
            sum(v * v for v in values) / len(values) - mean * mean, 0.0
        )
        return variance if fn is AggFunction.VARIANCE else variance**0.5
    if not values:
        return None
    q = 0.5 if fn is AggFunction.MEDIAN else query.function.quantile
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction


def _matching(query: Query, events: list[Event]) -> list[Event]:
    return [event for event in events if query.selection.matches(event)]


def _fixed_windows(
    query: Query, events: list[Event], final: int, origin: int | None
) -> list[OracleWindow]:
    if origin is None:
        origin = events[0].time
    length = query.window.length
    slide = query.window.effective_slide
    matching = _matching(query, events)
    # events come in time order: a window's values are one run of them
    times = [e.time for e in matching]
    values = [e.value for e in matching]
    windows = []
    start = origin
    while start <= final:
        end = start + length
        lo = bisect_left(times, start)
        hi = bisect_left(times, end) if end <= final else bisect_right(times, final)
        windows.append(OracleWindow(start, end, values[lo:hi]))
        start += slide
    return windows


def _session_windows(query: Query, events: list[Event], final: int) -> list[OracleWindow]:
    gap = query.window.gap
    matching = _matching(query, events)
    windows: list[OracleWindow] = []
    current: OracleWindow | None = None
    last = None
    for event in matching:
        if current is None:
            current = OracleWindow(event.time, event.time, [event.value])
        elif event.time - last >= gap:
            current.end = last + gap
            windows.append(current)
            current = OracleWindow(event.time, event.time, [event.value])
        else:
            current.values.append(event.value)
        last = event.time
    if current is not None:
        current.end = min(last + gap, final)
        windows.append(current)
    return windows


def _userdef_windows(query: Query, events: list[Event], final: int) -> list[OracleWindow]:
    spec = query.window
    key = query.selection.key
    windows: list[OracleWindow] = []
    current: OracleWindow | None = None
    for event in events:
        relevant = key is None or event.key == key
        if not relevant:
            continue
        if current is None:
            opens = (
                spec.start_marker is None or event.marker == spec.start_marker
            )
            if not opens:
                continue
            current = OracleWindow(event.time, event.time, [])
        if query.selection.matches(event):
            current.values.append(event.value)
        if event.marker == spec.end_marker:
            current.end = event.time
            windows.append(current)
            current = None
    if current is not None:
        current.end = final
        windows.append(current)
    return windows


def _count_windows(query: Query, events: list[Event], final: int) -> list[OracleWindow]:
    length = query.window.length
    slide = query.window.effective_slide
    matching = _matching(query, events)
    windows = []
    start_index = 0
    while start_index < len(matching):
        chunk = matching[start_index : start_index + length]
        if not chunk:
            break
        end = chunk[-1].time if len(chunk) == length else final
        windows.append(
            OracleWindow(chunk[0].time, end, [e.value for e in chunk])
        )
        start_index += slide
    return windows


def naive_windows(
    query: Query,
    events: list[Event],
    final: int | None = None,
    *,
    origin: int | None = None,
) -> list[OracleWindow]:
    """All (possibly empty) windows of ``query`` over ``events`` (in time
    order, as a stream delivers them).

    ``origin`` anchors fixed-window schedules explicitly (a cluster's
    global time origin); ``None`` keeps the classic first-event anchor.
    """
    if not events:
        return []
    if final is None:
        final = events[-1].time
    if query.window.measure is WindowMeasure.COUNT:
        return _count_windows(query, events, final)
    kind = query.window.window_type
    if kind in (WindowType.TUMBLING, WindowType.SLIDING):
        return _fixed_windows(query, events, final, origin)
    if kind is WindowType.SESSION:
        return _session_windows(query, events, final)
    return _userdef_windows(query, events, final)


def naive_results(
    query: Query,
    events: list[Event],
    final: int | None = None,
    *,
    origin: int | None = None,
) -> list[tuple[int, int, object, int]]:
    """Emitted results: ``(start, end, value, event_count)`` per window.

    Empty windows are skipped, matching the engine's default.
    """
    out = []
    for window in naive_windows(query, events, final, origin=origin):
        if not window.values:
            continue
        out.append(
            (window.start, window.end, naive_value(query, window.values), len(window.values))
        )
    return out
