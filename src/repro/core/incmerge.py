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

``NON_DECOMPOSABLE_SORT`` is excluded: its partials are whole sorted
value lists, so a FIFO aggregate would have to *copy* the merged list at
every push/flip (there is no O(1) "uncombine"), making the incremental
structure strictly worse than the existing single k-way run merge.  That
kind goes through the plain scan and joins the Two-Stacks result for the
decomposable kinds.

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

from typing import Any, Sequence

from repro.core.operators import merge_many_partials, merge_partials
from repro.core.types import OperatorKind

__all__ = [
    "DECOMPOSABLE_MERGE_KINDS",
    "FifoAggregator",
    "IncrementalMergeLayer",
]

#: operator kinds whose partials merge in O(1) and can ride the
#: incremental structure; NON_DECOMPOSABLE_SORT partials are whole sorted
#: lists and stay on the plain k-way merge (module docstring).
DECOMPOSABLE_MERGE_KINDS = frozenset(
    (
        OperatorKind.SUM,
        OperatorKind.COUNT,
        OperatorKind.MULTIPLICATION,
        OperatorKind.SUM_OF_SQUARES,
        OperatorKind.DECOMPOSABLE_SORT,
    )
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
    first-slice (at the root: first-cell) positions monotone.

    Invariant (the classic two stacks): ``_front`` holds older items with
    precomputed *suffix* aggregates (top of stack = oldest item, its
    aggregate covering the whole flipped batch); ``_back`` holds newer raw
    items plus one running *prefix* aggregate.  A query merges the front
    top's suffix aggregate with the back prefix aggregate — at most one
    merge per kind.
    """

    __slots__ = (
        "kinds",
        "_front",
        "_back",
        "_back_ops",
        "_back_count",
        "floor",
        "merge_ops",
    )

    def __init__(self, kinds: Sequence[OperatorKind]) -> None:
        self.kinds = tuple(
            kind for kind in kinds if kind in DECOMPOSABLE_MERGE_KINDS
        )
        #: older items: (position, suffix-merged ops, suffix count);
        #: the list tail is the *oldest* live item
        self._front: list[tuple[Any, dict[OperatorKind, Any], int]] = []
        #: newer raw items: (position, ops, count) in arrival order
        self._back: list[tuple[Any, dict[OperatorKind, Any], int]] = []
        self._back_ops: dict[OperatorKind, Any] = {}
        self._back_count = 0
        #: highest eviction bound seen; pushes below it are caller bugs
        self.floor: Any = None
        #: cumulative ``merge_partials`` executions (the work counter the
        #: ``merge_ops`` stats are built from)
        self.merge_ops = 0

    def __len__(self) -> int:
        return len(self._front) + len(self._back)

    def push(self, pos: Any, ops: dict[OperatorKind, Any], count: int) -> None:
        """Append the newest item.  Skip items with no activity entirely —
        their partials are the merge identities."""
        self._back.append((pos, ops, count))
        self._back_count += count
        back_ops = self._back_ops
        for kind in self.kinds:
            part = ops.get(kind)
            if part is None and kind is not OperatorKind.DECOMPOSABLE_SORT:
                continue
            if kind in back_ops:
                back_ops[kind] = merge_partials(kind, back_ops[kind], part)
                self.merge_ops += 1
            else:
                back_ops[kind] = part

    def _flip(self) -> None:
        """Move the back batch into the front stack, precomputing suffix
        aggregates newest-to-oldest (so the oldest ends on top)."""
        front = self._front
        agg: dict[OperatorKind, Any] = {}
        count = 0
        kinds = self.kinds
        for pos, ops, item_count in reversed(self._back):
            for kind in kinds:
                part = ops.get(kind)
                if part is None and kind is not OperatorKind.DECOMPOSABLE_SORT:
                    continue
                if kind in agg:
                    # older ⊕ newer: keeps the oldest-to-newest order
                    agg[kind] = merge_partials(kind, part, agg[kind])
                    self.merge_ops += 1
                else:
                    agg[kind] = part
            count += item_count
            front.append((pos, dict(agg), count))
        self._back = []
        self._back_ops = {}
        self._back_count = 0

    def evict_below(self, bound: Any) -> None:
        """Drop all items with ``position < bound``."""
        if self.floor is None or bound > self.floor:
            self.floor = bound
        front = self._front
        while True:
            if front:
                if front[-1][0] < bound:
                    front.pop()
                    continue
                return
            if self._back and self._back[0][0] < bound:
                self._flip()
                continue
            return

    def query(self) -> tuple[dict[OperatorKind, Any], int]:
        """Merge everything currently held, oldest to newest.

        Returns a fresh ``{kind: partial}`` dict (kinds with no activity
        are absent, matching the plain path) and the total event count.
        """
        front = self._front
        if front:
            _, front_ops, front_count = front[-1]
            merged = dict(front_ops)
            count = front_count
        else:
            merged = {}
            count = 0
        back_ops = self._back_ops
        if back_ops:
            for kind, part in back_ops.items():
                if kind in merged:
                    merged[kind] = merge_partials(kind, merged[kind], part)
                    self.merge_ops += 1
                else:
                    merged[kind] = part
        return merged, count + self._back_count


class _SliceStream:
    """One aggregator plus its push cursor into the slice index space."""

    __slots__ = ("agg", "next_push")

    def __init__(self, kinds: Sequence[OperatorKind], first: int) -> None:
        self.agg = FifoAggregator(kinds)
        self.next_push = first

    def advance(self, store, first: int, last: int, ctx: int) -> int:
        """Evict the slices below ``first`` and push those up to ``last``
        not pushed yet; returns how many were pushed."""
        agg = self.agg
        agg.evict_below(first)
        pushed = 0
        start = self.next_push
        if start < first:
            start = first  # skipped slices would be evicted immediately
        for index in range(start, last + 1):
            slice_ = store.get(index)
            if slice_ is None:
                continue
            parts = slice_.partials.get(ctx)
            if parts is None:
                continue
            agg.push(index, parts, slice_.insert_counts.get(ctx, 0))
            pushed += 1
        if last + 1 > self.next_push:
            self.next_push = last + 1
        return pushed


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
        self._streams: dict[tuple, _SliceStream] = {}
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
        of :meth:`~repro.core.slices.SliceStore.merge_context_partials`.

        Returns ``(merged, events, merge_ops, pushed)``: ``merge_ops``
        counts the merges this close ran (partials the scan read, and the
        stream's ``merge_partials`` calls); ``pushed`` is ``None`` unless a
        stream served the window.
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
                stream = self._streams[key] = _SliceStream(fifo, first)
            agg = stream.agg
            if agg.floor is None or first >= agg.floor:
                before = agg.merge_ops
                pushed = stream.advance(store, first, last, ctx)
                merged, events = agg.query()
                merge_ops = agg.merge_ops - before
                self.windows += 1
                self.slices_pushed += pushed
                if rest:
                    extra, extra_events, scanned = store.merge_context_partials(
                        first, last, ctx, rest, merge_many_partials
                    )
                    merged.update(extra)
                    merge_ops += scanned
                    # The k-way scan sees the same slices, so counts agree.
                    events = max(events, extra_events)
                return merged, events, merge_ops, pushed
        merged, events, merge_ops = store.merge_context_partials(
            first, last, ctx, kinds, merge_many_partials
        )
        return merged, events, merge_ops, None

    def retain(self, live: set[tuple[int, int]]) -> None:
        """Forget every stream whose ``(ctx, length)`` is not in ``live``
        (query removal): it would pin its last window's partials."""
        for key in [k for k in self._streams if (k[0], k[2]) not in live]:
            del self._streams[key]
