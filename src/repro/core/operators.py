"""Shared aggregate operators (Sec 4.2.1, Table 1).

An *operator* is the smallest unit of aggregation work the engine executes.
Aggregation functions are broken into operators so that queries with
different functions can still share per-event work: an ``average`` and a
``sum`` query over the same slice both read the one shared ``sum`` operator.

Each operator has two representations:

* a mutable *state* (:class:`SumState` etc.) that folds the values of the
  currently open slice, and
* an immutable *partial result* produced when the slice is terminated:
  ``partial()`` reads it off an open state, ``take()`` takes it and
  leaves the state as new, so a slice's states serve the next slice.

A state has one way in, the bulk ``insert_many`` fold.  The values of one
selection context are buffered by its :class:`OperatorSetState` — at most
:data:`PENDING_CAP` of them — and folded through every state at once, so
an event pays no Python call per operator; a run from the batched path is
folded directly.  Every fold is the sequential left fold (same float
order, same extrema comparisons), so the partials do not depend on where
the stream was chunked.

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

Sorted runs merge one way, two or k at a time: concatenated in order,
sorted once.  Timsort merges the runs in C and, being stable, keeps ties
(``-0.0 == 0.0``, duplicates) in run order as ``heapq.merge`` would: no
bit of a value depends on how runs were grouped.  The merged list is
what travels: the sorted batches shipped upward, the cells, sessions and
intermediate folds.  A window finalized in place reads only a rank or
two, so its close hands the finalizer a :class:`SortedRuns` view instead
(:func:`read_many_partials`): item ``k`` is found by bisection across the
runs and is the merged list's item ``k``, the same object.  Both rest on
every run being in order, which holds because no value is NaN
(:mod:`repro.core.event` refuses it).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

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
    "PENDING_CAP",
    "make_state",
    "empty_partial",
    "merge_partials",
    "merge_many_partials",
    "read_many_partials",
    "SortedRuns",
]


class SumState:
    """Running sum of inserted values."""

    __slots__ = ("total",)
    kind = OperatorKind.SUM

    def __init__(self) -> None:
        self.total = 0.0

    def insert_many(self, values: Sequence[float]) -> None:
        # A sequential left fold in a local (float addition is
        # order-sensitive, so chunking a stream never moves a bit), one
        # write-back.
        total = self.total
        for value in values:
            total += value
        self.total = total

    def partial(self) -> float:
        return self.total

    def take(self) -> float:
        total = self.total
        self.total = 0.0
        return total


class CountState:
    """Running count of inserted values."""

    __slots__ = ("count",)
    kind = OperatorKind.COUNT

    def __init__(self) -> None:
        self.count = 0

    def insert_many(self, values: Sequence[float]) -> None:
        self.count += len(values)

    def partial(self) -> int:
        return self.count

    def take(self) -> int:
        count = self.count
        self.count = 0
        return count


class MultiplicationState:
    """Running product of inserted values (for product / geometric mean)."""

    __slots__ = ("product",)
    kind = OperatorKind.MULTIPLICATION

    def __init__(self) -> None:
        self.product = 1.0

    def insert_many(self, values: Sequence[float]) -> None:
        product = self.product
        for value in values:
            product *= value
        self.product = product

    def partial(self) -> float:
        return self.product

    def take(self) -> float:
        product = self.product
        self.product = 1.0
        return product


class DecomposableSortState:
    """Incremental sort that drops events: keeps only the running extrema."""

    __slots__ = ("lo", "hi")
    kind = OperatorKind.DECOMPOSABLE_SORT

    def __init__(self) -> None:
        self.lo: float | None = None
        self.hi: float | None = None

    def insert_many(self, values: Sequence[float]) -> None:
        # C min()/max() over the old extremum chained to the run: each
        # keeps its current item unless a later one compares strictly
        # less (greater), which is the per-value fold in stream order,
        # ties (``-0.0`` vs ``0.0``) included.  Taking the run's extremum
        # first and then comparing would not be: a run that opens with a
        # NaN would yield that NaN, which the fold skips.
        if not values:
            return
        if self.lo is None:
            self.lo = min(values)
            self.hi = max(values)
        else:
            self.lo = min(chain((self.lo,), values))
            self.hi = max(chain((self.hi,), values))

    def partial(self) -> tuple[float, float] | None:
        if self.lo is None:
            return None
        return (self.lo, self.hi)  # type: ignore[return-value]

    def take(self) -> tuple[float, float] | None:
        if self.lo is None:
            return None
        extrema = (self.lo, self.hi)
        self.lo = self.hi = None
        return extrema  # type: ignore[return-value]


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

    def insert_many(self, values: Sequence[float]) -> None:
        total = self.total
        for value in values:
            total += value * value
        self.total = total

    def partial(self) -> float:
        return self.total

    def take(self) -> float:
        total = self.total
        self.total = 0.0
        return total


class NonDecomposableSortState:
    """Full sort executed lazily when the slice terminates.

    Values are buffered unsorted during the slice; :meth:`partial` sorts once.
    Downstream merges (across slices or nodes) merge already-sorted runs.
    """

    __slots__ = ("values",)
    kind = OperatorKind.NON_DECOMPOSABLE_SORT

    def __init__(self) -> None:
        self.values: list[float] = []

    def insert_many(self, values: Sequence[float]) -> None:
        self.values.extend(values)

    def partial(self) -> list[float]:
        self.values.sort()
        return self.values

    def take(self) -> list[float]:
        values = self.values
        values.sort()
        self.values = []
        return values


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
        return _merge_sorted_runs((left, right))
    raise EngineError(f"unknown operator kind: {kind!r}")


def merge_many_partials(kind: OperatorKind, parts: Iterable[Any]) -> Any:
    """Merge an iterable of partial results of the same kind.

    The non-decomposable sort's runs are sorted once, together: a left
    fold of :func:`merge_partials`, bit for bit.  Single-element lists skip
    the fold entirely (``x + 0.0`` is bit-identical to ``sum([x], 0.0)``,
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
        return _merge_sorted_runs(parts)
    raise EngineError(f"unknown operator kind: {kind!r}")


def _merge_sorted_runs(parts: Iterable[list[float]]) -> list[float]:
    """The sorted ``parts`` as one sorted list: a lone non-empty run as
    is, two or more concatenated in order into a new list, sorted once.
    This is the list a window ships; one finalized in place reads its
    ranks off :class:`SortedRuns` instead (:func:`read_many_partials`)."""
    runs = [part for part in parts if part]
    if len(runs) < 2:
        return runs[0] if runs else []
    merged = []
    for run in runs:
        merged.extend(run)
    merged.sort()
    return merged


def read_many_partials(kind: OperatorKind, parts: list) -> Any:
    """:func:`merge_many_partials` for a window finalized in place: two
    or more non-empty sorted runs come back as a :class:`SortedRuns`
    view rather than merged."""
    if kind is OperatorKind.NON_DECOMPOSABLE_SORT:
        runs = [part for part in parts if part]
        if len(runs) > 1:
            return SortedRuns(runs, sum(map(len, runs)))
    return merge_many_partials(kind, parts)


class SortedRuns:
    """Read-only view of the stable merge of sorted runs.

    Item ``k`` is the very object the merged list
    (:func:`_merge_sorted_runs`) holds at ``k``: values in order, ties
    (``-0.0 == 0.0``, duplicates) in run order and, within a run, in
    position order.  :func:`_select` finds it in O(m log n) bisects for
    ``m`` runs of ``n`` values, ending on a sorted block of the ranks
    around it, which the view keeps: a quantile's neighbouring rank is
    read off that block.  Iteration walks the merged list.
    """

    __slots__ = ("runs", "_len", "_base", "_block")

    def __init__(self, runs: list[list[float]], length: int) -> None:
        self.runs = runs
        self._len = length
        #: the ranks ``_base ..`` of the merge, in order (the last select's)
        self._base = 0
        self._block: list[float] = []

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> float:
        length = self._len
        if k < 0:
            k += length
        if not 0 <= k < length:
            raise IndexError("SortedRuns index out of range")
        at = k - self._base
        if 0 <= at < len(self._block):
            return self._block[at]
        runs = self.runs
        if k == length - 1:
            # the greatest last item, the latest run's on ties
            best = runs[0]
            for run in runs:
                if not run[-1] < best[-1]:
                    best = run
            return best[-1]
        self._base, self._block = _select(runs, k)
        return self._block[k - self._base]

    def __iter__(self) -> Iterator[float]:
        return iter(_merge_sorted_runs(self.runs))


#: :func:`_select` sorts what is left once this many values per run, on
#: average, are live
_BLOCK_PER_RUN = 32


def _select(runs: list[list[float]], k: int) -> tuple[int, list[float]]:
    """A block of ranks ``base ..`` of the stable merge of ``runs`` that
    holds rank ``k``, as ``(base, block)``.

    Each round takes the middle of every run's live range, picks the
    median of those middles weighted by their ranges' sizes, and counts
    the items before it with one bisect per run: ties with an earlier
    run come before it, ties with a later run after.  Its rank drops the
    items on the wrong side of it, at least a quarter of the live ones,
    so O(log n) rounds of ``m`` bisects leave few enough to sort: the
    live ranges, concatenated in run order and sorted stably, are the
    merge's ranks from the sum of their starts on.
    """
    m = len(runs)
    lo = [0] * m
    hi = [len(run) for run in runs]
    live = sum(hi)
    floor = _BLOCK_PER_RUN * m
    while live > floor:
        middles = []
        for i in range(m):
            size = hi[i] - lo[i]
            if size:
                middle = lo[i] + (size >> 1)
                middles.append((runs[i][middle], i, middle, size))
        if len(middles) == 1:
            break
        middles.sort()
        half = live >> 1
        for item, i, middle, size in middles:
            half -= size
            if half < 0:
                break
        cut = [bisect_right(runs[j], item, lo[j], hi[j]) for j in range(i)]
        cut.append(middle)
        cut.extend(bisect_left(runs[j], item, lo[j], hi[j]) for j in range(i + 1, m))
        rank = sum(cut)
        if rank == k:
            return k, [item]
        if rank < k:
            cut[i] = middle + 1
            lo = cut
        else:
            hi = cut
        live = sum(hi) - sum(lo)
    block = []
    for i, run in enumerate(runs):
        block += run[lo[i]:hi[i]]
    block.sort()
    return sum(lo), block


#: values an :class:`OperatorSetState` buffers before it folds them: the
#: bound on an open context's buffer, and the run each state's dispatch is
#: paid once for on the per-event path
PENDING_CAP = 256


class OperatorSetState:
    """The shared operator states of one selection context in one slice.

    Every value is applied to every operator exactly once; this is the
    paper's core sharing mechanism — no matter how many queries need a
    ``sum``, the slice holds a single :class:`SumState`.

    A value reaches the states one way, through their ``insert_many``
    folds: :meth:`insert` buffers it in ``pending`` (at most
    :data:`PENDING_CAP` values), and the buffer is folded when it fills,
    before a run from :meth:`insert_many`, and when :meth:`partials` reads
    the states.
    """

    __slots__ = ("kinds", "states", "inserts", "pending")

    def __init__(self, kinds: Sequence[OperatorKind]) -> None:
        self.kinds = tuple(kinds)
        self.states = tuple(make_state(kind) for kind in kinds)
        self.inserts = 0
        #: values inserted one at a time and not folded yet, in order
        self.pending: list[float] = []

    def insert(self, value: float) -> None:
        self.inserts += 1
        pending = self.pending
        pending.append(value)
        if len(pending) >= PENDING_CAP:
            self.fold()

    def insert_many(self, values: Sequence[float]) -> None:
        """Apply a run of values to every operator, after the buffered
        ones: each state pays its dispatch once per run."""
        if self.pending:
            self.fold()
        self.inserts += len(values)
        for state in self.states:
            state.insert_many(values)

    def fold(self) -> None:
        """Apply the buffered values to every operator and empty the
        buffer."""
        pending = self.pending
        for state in self.states:
            state.insert_many(pending)
        pending.clear()

    def partials(self) -> dict[OperatorKind, Any]:
        """Freeze this state set into per-operator partial results."""
        if self.pending:
            self.fold()
        return {state.kind: state.partial() for state in self.states}

    def take(self) -> dict[OperatorKind, Any]:
        """:meth:`partials`, leaving the set as a new one is (no value,
        no insert), so the next slice can take it over instead of
        building its own."""
        if self.pending:
            self.fold()
        self.inserts = 0
        return {state.kind: state.take() for state in self.states}

    @property
    def calculations(self) -> int:
        """Operator executions performed so far (inserts × operators)."""
        return self.inserts * len(self.states)
