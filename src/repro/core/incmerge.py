"""Window close: the plain scan, and Two-Stacks FIFO aggregation for
overlapping fixed windows.

Desis assembles every window result by merging the partial results of the
window's covered slices.  A plain scan re-merges the full
``[first_slice, last_slice]`` range at every window close, so a sliding
window of length ``L`` and slide ``s`` would pay O(L/s) merge work per
window even though consecutive windows share ``L/s - 1`` slices.  This
module removes that redundancy with the classic *Two-Stacks*
FIFO-aggregation structure (Tangwongsan et al., "In-Order Sliding-Window
Aggregation in Worst-Case Constant Time"): each closed slice is pushed
once, evicted once, and a window close costs O(1) merges regardless of
overlap.

The structure is *order-preserving*: partials are always combined
oldest-to-newest, only the association changes.  That makes COUNT, the
extrema of ``DECOMPOSABLE_SORT``, and every comparison-based result
identical to the plain fold; float accumulators (SUM, MULTIPLICATION,
SUM_OF_SQUARES) may differ from it in the last bits because float
addition and multiplication are not associative — the Two-Stacks
contract (DESIGN.md §9): within 1e-9 relative of the plain fold, which
the tests keep as the reference.

The stacks are *columns*, so that merging is one C-level pass per
operator kind, not a ``merge_partials`` dispatch per item.  The front —
the last flipped batch, oldest first — holds per kind a suffix column
built by one ``itertools.accumulate`` (entry ``i`` merges the batch's
items ``i..``, each step ``older ⊕ newer``), and eviction moves a head
index along it.  The back holds its items raw; a query folds those pushed
since the previous query into the back prefix with one
``functools.reduce`` per kind, then merges the front's head entry with
that prefix.  ``merge_ops`` counts ``merge_partials``-equivalent merges:
per kind, a flip's carriers less one, a prefix fold's new carriers (less
one into an empty prefix), and one per query where both stacks carry it.  When every batch of
pushes is queried before the next flip, as both callers do, that is the
count of a Two-Stacks folding its prefix at every push; a batch flipped
unqueried is never prefix-folded, nor counted.

``NON_DECOMPOSABLE_SORT`` is excluded: its partials are whole sorted
value lists, so a FIFO aggregate would *copy* the merged list at every
push/flip (there is no O(1) "uncombine").  That kind takes the plain scan
and joins the Two-Stacks result: the scan hands over the window's runs as
a view whose ranks are read by bisection
(:meth:`~repro.core.slices.SliceStore.read_context_partials`).

Two cooperating layers live here:

* :class:`FifoAggregator` — one Two-Stacks instance over an ordered
  stream of partial dicts, each with a position (the slice index)
  eviction bounds refer to.
* :class:`IncrementalMergeLayer` — the registry: one aggregator per
  ``(ctx, kinds, window length)`` stream, fed lazily from a
  :class:`~repro.core.slices.SliceStore` at window close.  Its
  :meth:`~IncrementalMergeLayer.close` is the one way a window closes,
  for both callers: the engine over its slices, and the cluster root
  over its cells (:mod:`repro.cluster.cells`), which are slices too.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import accumulate
from typing import Any, Sequence

from repro.core.types import OperatorKind

__all__ = [
    "DECOMPOSABLE_MERGE_KINDS",
    "FifoAggregator",
    "IncrementalMergeLayer",
]


def _extrema(older: Any, newer: Any) -> Any:
    """``merge_partials`` of two DECOMPOSABLE_SORT partials: ``None`` is
    the identity, and a tie keeps the older bound."""
    if older is None:
        return newer
    if newer is None:
        return older
    return (min(older[0], newer[0]), max(older[1], newer[1]))


#: per kind, ``merge_partials`` as ``(fold, step)``: ``fold(older, newer)``
#: and, for ``accumulate`` running newest to oldest, ``step(newer, older)``.
#: Both keep its operand order, so every result has its bits — down to
#: which NaN or which of two tied zeros survives.
_MERGES = {
    OperatorKind.SUM: (operator.add, lambda newer, older: older + newer),
    OperatorKind.COUNT: (operator.add, lambda newer, older: older + newer),
    OperatorKind.SUM_OF_SQUARES: (operator.add, lambda newer, older: older + newer),
    OperatorKind.MULTIPLICATION: (operator.mul, lambda newer, older: older * newer),
    OperatorKind.DECOMPOSABLE_SORT: (
        _extrema, lambda newer, older: _extrema(older, newer)
    ),
}

#: operator kinds whose partials merge in O(1) and can ride the
#: incremental structure; NON_DECOMPOSABLE_SORT partials are whole sorted
#: lists, read by the plain scan (module docstring).
DECOMPOSABLE_MERGE_KINDS = frozenset(_MERGES)


def _sparse(parts: list, merge):
    """For a kind some of ``parts`` lack (``None``): how many have it, and
    ``merge`` made to pass over the others."""
    return len(parts) - parts.count(None), lambda acc, part: (
        acc if part is None else part if acc is None else merge(acc, part)
    )


class FifoAggregator:
    """Two-Stacks FIFO aggregate over (position, partials, count) items.

    ``push`` appends the newest item, ``evict_below`` drops the oldest
    items, and ``query`` returns the oldest-to-newest merge of everything
    currently held — each amortized O(1) merges per item per operator
    kind.  Eviction bounds must be non-decreasing, and the items with a
    position below a bound must be a *prefix* of push order — positions
    themselves need not be monotone.  Both hold for window closes of one
    ``(ctx, kinds, length)`` stream: the engine and the cluster root both
    close windows in end-time order, and equal lengths make their
    first-slice (at the root: first-cell) positions monotone.  The column
    layout and the ``merge_ops`` rule are the module docstring's.

    An item *carries* a kind it has a partial for; every item carries the
    extrema (a missing pair is ``None``).  A kind no live item carries is
    absent from the query, and ``None`` in a column or the back prefix
    marks such a kind.
    """

    __slots__ = (
        "kinds", "_plan", "_front_pos", "_front_counts", "_front", "_head",
        "_back_pos", "_back_items", "_back_counts", "_back", "_back_count",
        "_folded", "floor", "merge_ops",
    )

    def __init__(self, kinds: Sequence[OperatorKind]) -> None:
        self.kinds = tuple(
            kind for kind in kinds if kind in DECOMPOSABLE_MERGE_KINDS
        )
        #: per kind: (kind, carried by every item, fold, step)
        self._plan = tuple(
            (kind, kind is OperatorKind.DECOMPOSABLE_SORT, *_MERGES[kind])
            for kind in self.kinds
        )
        #: the flipped batch — positions, suffix counts, suffix columns of
        #: the kinds it carries; items below ``_head`` are evicted
        self._front_pos: list = []
        self._front_counts: list[int] = []
        self._front: dict[OperatorKind, list] = {}
        self._head = 0
        #: items pushed since the flip; the first ``_folded`` of them are
        #: merged into ``_back`` (per kind) and ``_back_count``
        self._back_pos: list = []
        self._back_items: list[dict[OperatorKind, Any]] = []
        self._back_counts: list[int] = []
        self._back: dict[OperatorKind, Any] = {}
        self._back_count = 0
        self._folded = 0
        #: highest eviction bound seen; pushes below it are caller bugs
        self.floor: Any = None
        #: cumulative merges (the work counter the ``merge_ops`` stats are
        #: built from)
        self.merge_ops = 0

    def __len__(self) -> int:
        return len(self._front_pos) - self._head + len(self._back_pos)

    def push(self, pos: Any, ops: dict[OperatorKind, Any], count: int) -> None:
        """Append the newest item; it is merged at the next query or flip."""
        self._back_pos.append(pos)
        self._back_items.append(ops)
        self._back_counts.append(count)

    def _flip(self) -> None:
        """Make the back batch the front: its suffix columns, accumulated
        newest to oldest."""
        items = self._back_items
        front = {}
        merges = 0
        for kind, always, _, step in self._plan:
            parts = [ops.get(kind) for ops in reversed(items)]
            carried = len(parts)
            if not always and None in parts:
                carried, step = _sparse(parts, step)
                if not carried:
                    continue
            column = list(accumulate(parts, step))
            column.reverse()
            front[kind] = column
            merges += carried - 1
        self.merge_ops += merges
        counts = list(accumulate(reversed(self._back_counts)))
        counts.reverse()
        self._front, self._front_counts = front, counts
        self._front_pos, self._head = self._back_pos, 0
        self._back_pos, self._back_items, self._back_counts = [], [], []
        self._back, self._back_count, self._folded = {}, 0, 0

    def evict_below(self, bound: Any) -> None:
        """Drop all items with ``position < bound``."""
        if self.floor is None or bound > self.floor:
            self.floor = bound
        while True:
            positions = self._front_pos
            head = self._head
            while head < len(positions) and positions[head] < bound:
                head += 1
            self._head = head
            if head < len(positions) or not (
                self._back_pos and self._back_pos[0] < bound
            ):
                return
            self._flip()

    def query(self) -> tuple[dict[OperatorKind, Any], int]:
        """Merge everything currently held, oldest to newest.

        Returns a fresh ``{kind: partial}`` dict (kinds with no activity
        are absent, matching the plain path) and the total event count.
        """
        back = self._back
        merges = 0
        folded = self._folded
        if folded < len(self._back_items):
            pending = self._back_items[folded:]
            for kind, always, fold, _ in self._plan:
                parts = [ops.get(kind) for ops in pending]
                carried = len(parts)
                if not always and None in parts:
                    carried, fold = _sparse(parts, fold)
                    if not carried:
                        continue
                if kind in back:
                    back[kind] = reduce(fold, parts, back[kind])
                    merges += carried
                else:
                    back[kind] = reduce(fold, parts)
                    merges += carried - 1
            self._back_count += sum(self._back_counts[folded:])
            self._folded = len(self._back_items)
        head = self._head
        if head == len(self._front_pos):
            self.merge_ops += merges
            return dict(back), self._back_count
        front = self._front
        merged = {}
        for kind, always, fold, _ in self._plan:
            part = front[kind][head] if kind in front else None
            if part is None and not always:
                if kind in back:
                    merged[kind] = back[kind]
            elif kind in back:
                merged[kind] = fold(part, back[kind])
                merges += 1
            else:
                merged[kind] = part
        self.merge_ops += merges
        return merged, self._front_counts[head] + self._back_count


class IncrementalMergeLayer:
    """Per query-group window close over closed slices.

    One :class:`FifoAggregator` per ``(ctx, kinds, window length)``
    stream: windows of equal length over one context close in
    non-decreasing ``[first_slice, last_slice]`` order, which is exactly
    the FIFO discipline the aggregator needs.  Slices are pulled lazily
    from the group's :class:`~repro.core.slices.SliceStore` at window
    close — the store is freed only after a cut's windows have closed, so
    every covered slice is still there and nothing extra is retained.
    """

    __slots__ = ("_streams", "_splits", "windows", "slices_pushed")

    def __init__(self) -> None:
        #: (ctx, kinds, length) -> [its aggregator, the next slice to push]
        self._streams: dict[tuple, list] = {}
        #: kinds tuple -> (decomposable kinds, the rest), in kinds order
        self._splits: dict[tuple, tuple[tuple, tuple]] = {}
        #: window closes served by a stream
        self.windows = 0
        #: slice partials pushed (each slice is pushed once per stream)
        self.slices_pushed = 0

    def close(
        self,
        store,
        first: int,
        last: int,
        ctx: int,
        kinds: tuple[OperatorKind, ...],
        length: int,
        overlap: bool,
    ) -> tuple[dict[OperatorKind, Any], int, int, int | None]:
        """Merge context ``ctx``'s ``kinds`` across slices ``first..last``.

        An ``overlap``-ping window (a fixed window sharing slices with the
        next one of its tracker) merges its decomposable kinds through the
        Two-Stacks stream of ``(ctx, those kinds, length)`` and the rest by
        the plain scan.  Every other window — tumbling, data-driven, or
        behind its stream's eviction floor (where the layer refuses to
        guess rather than return a wrong aggregate) — takes the plain scan
        of :meth:`~repro.core.slices.SliceStore.read_context_partials`.

        Returns ``(merged, events, merge_ops, pushed)``: ``merged`` is
        for finalizing in place, its sorted values possibly a
        :class:`~repro.core.operators.SortedRuns` view (``list()`` makes
        the merged list); ``merge_ops`` counts the merges this close ran
        (partials the scan read, and the stream's ``merge_partials``
        calls); ``pushed`` is ``None`` unless a stream served the window.
        """
        split = self._splits.get(kinds)
        if split is None:
            fifo = tuple(k for k in kinds if k in DECOMPOSABLE_MERGE_KINDS)
            rest = tuple(k for k in kinds if k not in DECOMPOSABLE_MERGE_KINDS)
            split = self._splits[kinds] = (fifo, rest)
        fifo, rest = split
        if overlap and fifo:
            key = (ctx, fifo, length)
            stream = self._streams.get(key)
            if stream is None:
                stream = self._streams[key] = [FifoAggregator(fifo), first]
            agg, next_push = stream
            if agg.floor is None or first >= agg.floor:
                before = agg.merge_ops
                agg.evict_below(first)
                pushed = 0
                # (slices skipped below ``first`` would be evicted at once)
                for index in range(max(next_push, first), last + 1):
                    slice_ = store.get(index)
                    parts = None if slice_ is None else slice_.partials.get(ctx)
                    if parts is not None:
                        agg.push(index, parts, slice_.insert_counts.get(ctx, 0))
                        pushed += 1
                stream[1] = max(next_push, last + 1)
                merged, events = agg.query()
                merge_ops = agg.merge_ops - before
                self.windows += 1
                self.slices_pushed += pushed
                if rest:
                    extra, extra_events, scanned = store.read_context_partials(
                        first, last, ctx, rest
                    )
                    merged.update(extra)
                    merge_ops += scanned
                    # The plain scan sees the same slices, so counts agree.
                    events = max(events, extra_events)
                return merged, events, merge_ops, pushed
        merged, events, merge_ops = store.read_context_partials(
            first, last, ctx, kinds
        )
        return merged, events, merge_ops, None

    def retain(self, live: set[tuple[int, int]]) -> None:
        """Forget every stream whose ``(ctx, length)`` is not in ``live``
        (query removal): it would pin its last window's partials."""
        for key in [k for k in self._streams if (k[0], k[2]) not in live]:
            del self._streams[key]
