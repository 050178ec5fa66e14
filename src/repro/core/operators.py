"""Shared aggregate operators (Sec 4.2.1, Table 1).

An *operator* is the smallest unit of aggregation work the engine executes.
Aggregation functions are broken into operators so that queries with
different functions can still share per-event work: an ``average`` and a
``sum`` query over the same slice both read the one shared ``sum`` operator.

Each operator has two representations:

* a mutable *state* (:class:`SumState` etc.) updated once per event inside
  the currently open slice, and
* an immutable *partial result* produced when the slice is terminated.

Partial results are plain Python values (floats, ints, tuples, lists) so
they can be merged associatively across slices and across nodes, and can be
serialized by :mod:`repro.network.codec`:

=========================  =======================================
operator                   partial result
=========================  =======================================
``SUM``                    ``float`` (identity ``0.0``)
``COUNT``                  ``int`` (identity ``0``)
``MULTIPLICATION``         ``float`` (identity ``1.0``)
``DECOMPOSABLE_SORT``      ``(min, max)`` tuple or ``None`` if empty
``NON_DECOMPOSABLE_SORT``  sorted ``list[float]`` (identity ``[]``)
=========================  =======================================

The decomposable sort drops events as it goes (it only keeps the running
extrema) and can be shared between ``min`` and ``max``.  The non-decomposable
sort keeps every value and sorts on slice termination; its result can be
shared between ``min``, ``max``, ``median``, and ``quantile``.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Sequence

from repro.core.errors import EngineError
from repro.core.types import OperatorKind

__all__ = [
    "SumState",
    "CountState",
    "MultiplicationState",
    "DecomposableSortState",
    "NonDecomposableSortState",
    "SumOfSquaresState",
    "OperatorSetState",
    "make_state",
    "empty_partial",
    "merge_partials",
    "merge_many_partials",
]


class SumState:
    """Running sum of inserted values."""

    __slots__ = ("total",)
    kind = OperatorKind.SUM

    def __init__(self) -> None:
        self.total = 0.0

    def insert(self, value: float) -> None:
        self.total += value

    def insert_many(self, values: Sequence[float]) -> None:
        # Sequential accumulation in a local: bit-identical to repeated
        # insert() (float addition is order-sensitive), one write-back.
        total = self.total
        for value in values:
            total += value
        self.total = total

    def partial(self) -> float:
        return self.total


class CountState:
    """Running count of inserted values."""

    __slots__ = ("count",)
    kind = OperatorKind.COUNT

    def __init__(self) -> None:
        self.count = 0

    def insert(self, value: float) -> None:
        self.count += 1

    def insert_many(self, values: Sequence[float]) -> None:
        self.count += len(values)

    def partial(self) -> int:
        return self.count


class MultiplicationState:
    """Running product of inserted values (for product / geometric mean)."""

    __slots__ = ("product",)
    kind = OperatorKind.MULTIPLICATION

    def __init__(self) -> None:
        self.product = 1.0

    def insert(self, value: float) -> None:
        self.product *= value

    def insert_many(self, values: Sequence[float]) -> None:
        product = self.product
        for value in values:
            product *= value
        self.product = product

    def partial(self) -> float:
        return self.product


class DecomposableSortState:
    """Incremental sort that drops events: keeps only the running extrema."""

    __slots__ = ("lo", "hi")
    kind = OperatorKind.DECOMPOSABLE_SORT

    def __init__(self) -> None:
        self.lo: float | None = None
        self.hi: float | None = None

    def insert(self, value: float) -> None:
        if self.lo is None:
            self.lo = value
            self.hi = value
            return
        if value < self.lo:
            self.lo = value
        elif value > self.hi:  # type: ignore[operator]
            self.hi = value

    def insert_many(self, values: Sequence[float]) -> None:
        # The same comparison sequence as repeated insert() (min()/max()
        # would treat NaNs differently), run on locals.
        lo = self.lo
        hi = self.hi
        for value in values:
            if lo is None:
                lo = value
                hi = value
            elif value < lo:
                lo = value
            elif value > hi:
                hi = value
        self.lo = lo
        self.hi = hi

    def partial(self) -> tuple[float, float] | None:
        if self.lo is None:
            return None
        return (self.lo, self.hi)  # type: ignore[return-value]


class SumOfSquaresState:
    """Running sum of squared values (backs variance and stddev).

    An example of the paper's user-defined operators: a new basic operator
    lets new algebraic functions share per-event work with the built-ins
    (variance reuses the shared ``sum`` and ``count``).
    """

    __slots__ = ("total",)
    kind = OperatorKind.SUM_OF_SQUARES

    def __init__(self) -> None:
        self.total = 0.0

    def insert(self, value: float) -> None:
        self.total += value * value

    def insert_many(self, values: Sequence[float]) -> None:
        total = self.total
        for value in values:
            total += value * value
        self.total = total

    def partial(self) -> float:
        return self.total


class NonDecomposableSortState:
    """Full sort executed lazily when the slice terminates.

    Values are buffered unsorted during the slice; :meth:`partial` sorts once.
    Downstream merges (across slices or nodes) merge already-sorted runs.
    """

    __slots__ = ("values",)
    kind = OperatorKind.NON_DECOMPOSABLE_SORT

    def __init__(self) -> None:
        self.values: list[float] = []

    def insert(self, value: float) -> None:
        self.values.append(value)

    def insert_many(self, values: Sequence[float]) -> None:
        self.values.extend(values)

    def partial(self) -> list[float]:
        self.values.sort()
        return self.values


_STATE_FACTORIES = {
    OperatorKind.SUM: SumState,
    OperatorKind.COUNT: CountState,
    OperatorKind.MULTIPLICATION: MultiplicationState,
    OperatorKind.DECOMPOSABLE_SORT: DecomposableSortState,
    OperatorKind.NON_DECOMPOSABLE_SORT: NonDecomposableSortState,
    OperatorKind.SUM_OF_SQUARES: SumOfSquaresState,
}

_EMPTY_PARTIALS: dict[OperatorKind, Any] = {
    OperatorKind.SUM: 0.0,
    OperatorKind.COUNT: 0,
    OperatorKind.MULTIPLICATION: 1.0,
    OperatorKind.DECOMPOSABLE_SORT: None,
    OperatorKind.NON_DECOMPOSABLE_SORT: [],
    OperatorKind.SUM_OF_SQUARES: 0.0,
}


def make_state(kind: OperatorKind):
    """Create a fresh mutable state for ``kind``."""
    try:
        return _STATE_FACTORIES[kind]()
    except KeyError:
        raise EngineError(f"unknown operator kind: {kind!r}") from None


def empty_partial(kind: OperatorKind) -> Any:
    """The identity partial result for ``kind`` (merging with it is a no-op)."""
    value = _EMPTY_PARTIALS[kind]
    if kind is OperatorKind.NON_DECOMPOSABLE_SORT:
        return []  # fresh list: callers may extend partials in place
    return value


def merge_partials(kind: OperatorKind, left: Any, right: Any) -> Any:
    """Merge two partial results of the same operator kind.

    Merging is associative and commutative with :func:`empty_partial` as the
    identity, which is what makes decentralized aggregation correct: partials
    can be combined in any tree shape (Sec 5.1).
    """
    if kind is OperatorKind.SUM or kind is OperatorKind.SUM_OF_SQUARES:
        return left + right
    if kind is OperatorKind.COUNT:
        return left + right
    if kind is OperatorKind.MULTIPLICATION:
        return left * right
    if kind is OperatorKind.DECOMPOSABLE_SORT:
        if left is None:
            return right
        if right is None:
            return left
        return (min(left[0], right[0]), max(left[1], right[1]))
    if kind is OperatorKind.NON_DECOMPOSABLE_SORT:
        if not left:
            return right
        if not right:
            return left
        # Two sorted runs back to back are what Timsort is built for: it
        # finds both and merges them galloping, in C, and being stable it
        # orders ties as the k-way ``heapq.merge`` of
        # :func:`merge_many_partials` does (left before right).
        merged = left + right
        merged.sort()
        return merged
    raise EngineError(f"unknown operator kind: {kind!r}")


def merge_many_partials(kind: OperatorKind, parts: Iterable[Any]) -> Any:
    """Merge an iterable of partial results of the same kind.

    For the non-decomposable sort this performs one k-way merge of all sorted
    runs instead of repeated pairwise merges.  Single-element lists skip the
    fold entirely (``x + 0.0`` is bit-identical to ``sum([x], 0.0)``,
    including for ``-0.0``), the common case for tumbling windows.
    """
    if kind is OperatorKind.SUM or kind is OperatorKind.SUM_OF_SQUARES:
        if isinstance(parts, list) and len(parts) == 1:
            return parts[0] + 0.0
        return sum(parts, 0.0)
    if kind is OperatorKind.COUNT:
        if isinstance(parts, list) and len(parts) == 1:
            return parts[0] + 0
        return sum(parts, 0)
    if kind is OperatorKind.MULTIPLICATION:
        product = 1.0
        for part in parts:
            product *= part
        return product
    if kind is OperatorKind.DECOMPOSABLE_SORT:
        # Inline (min, max) fold — same comparisons as the pairwise
        # ``merge_partials`` chain, without the per-pair dispatch.
        lo = hi = None
        for part in parts:
            if part is None:
                continue
            if lo is None:
                lo, hi = part
            else:
                plo, phi = part
                if plo < lo:
                    lo = plo
                if phi > hi:
                    hi = phi
        return None if lo is None else (lo, hi)
    if kind is OperatorKind.NON_DECOMPOSABLE_SORT:
        runs = [part for part in parts if part]
        if not runs:
            return []
        if len(runs) == 1:
            return runs[0]
        return list(heapq.merge(*runs))
    raise EngineError(f"unknown operator kind: {kind!r}")


class OperatorSetState:
    """The shared operator states of one selection context in one slice.

    ``insert`` applies an event's value to every operator exactly once; this
    is the paper's core sharing mechanism — no matter how many queries need
    a ``sum``, the slice holds a single :class:`SumState`.
    """

    __slots__ = ("kinds", "states", "inserts", "_inserts")

    def __init__(self, kinds: Sequence[OperatorKind]) -> None:
        self.kinds = tuple(kinds)
        self.states = tuple(make_state(kind) for kind in kinds)
        self.inserts = 0
        #: each state's ``insert``, bound once instead of once per value
        self._inserts = tuple(state.insert for state in self.states)

    def insert(self, value: float) -> None:
        self.inserts += 1
        for insert in self._inserts:
            insert(value)

    def insert_many(self, values: Sequence[float]) -> None:
        """Apply a run of values to every operator.

        Equivalent to repeated :meth:`insert` — including float rounding,
        since every state accumulates in the same order — but each state
        pays the Python dispatch once per run instead of once per event.
        """
        self.inserts += len(values)
        for state in self.states:
            state.insert_many(values)

    def partials(self) -> dict[OperatorKind, Any]:
        """Freeze this state set into per-operator partial results."""
        return {state.kind: state.partial() for state in self.states}

    @property
    def calculations(self) -> int:
        """Operator executions performed so far (inserts × operators)."""
        return self.inserts * len(self.states)
