"""Slices and the slice store (Sec 4.1).

A :class:`Slice` is the stretch of stream between two consecutive
punctuations of a query-group.  While open, it holds one mutable
:class:`~repro.core.operators.OperatorSetState` per selection context that
received events; closing it freezes those states into partial results.

The :class:`SliceStore` keeps closed slices alive exactly as long as some
open window still needs them.  A window covers every slice from its
``first_slice`` on and windows open at non-decreasing slice indices, so the
live slices are those at or above the *oldest* open window's first slice:
a slice is stored only while a window is open, and whenever a window ends
the runtime frees the store's front below that watermark
(:meth:`SliceStore.free_below`) — O(slices freed), not O(window span).
Memory stays bounded by the span of the longest open window, the behaviour
Section 2.3 motivates slicing with.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.errors import EngineError
from repro.core.operators import OperatorSetState, read_many_partials
from repro.core.types import OperatorKind

__all__ = ["Slice", "SliceStore"]

#: A frozen slice's payload: context index -> operator kind -> partial.
Partials = dict[int, dict[OperatorKind, Any]]


class Slice:
    """One slice of the stream for one query-group."""

    __slots__ = (
        "index",
        "start",
        "end",
        "contexts",
        "partials",
        "insert_counts",
        "closed",
        "spare",
    )

    def __init__(self, index: int, start: int,
                 spare: dict[int, OperatorSetState] | None = None) -> None:
        self.index = index
        self.start = start
        self.end: int | None = None
        #: open state: context index -> operator states (created lazily)
        self.contexts: dict[int, OperatorSetState] = {}
        #: the emptied states of the slice before, by context: a context
        #: takes its own over at its first value instead of a new set
        self.spare: dict[int, OperatorSetState] = spare if spare is not None else {}
        #: closed state: context index -> operator kind -> partial result
        self.partials: Partials = {}
        #: context index -> number of events inserted
        self.insert_counts: dict[int, int] = {}
        self.closed = False

    def insert_run(
        self, ctx: int, values: Sequence[float], kinds: Sequence[OperatorKind]
    ) -> None:
        """Apply a run of values to context ``ctx`` in one bulk update,
        creating its operator states on the first run.

        Produces exactly the state one :meth:`OperatorSetState.insert`
        per value would — the per-event path inserts that way, and the
        batched path relies on the equivalence.
        """
        state = self.contexts.get(ctx)
        if state is None:
            state = self.contexts[ctx] = (
                self.spare.pop(ctx, None) or OperatorSetState(kinds)
            )
        state.insert_many(values)

    def close(self, end: int) -> dict[int, OperatorSetState]:
        """Freeze the slice: compute partial results for every context.
        Returns the operator states, emptied, for the next slice."""
        if self.closed:
            raise EngineError(f"slice {self.index} closed twice")
        self.end = end
        partials = self.partials
        counts = self.insert_counts
        for ctx, state in self.contexts.items():
            counts[ctx] = state.inserts
            partials[ctx] = state.take()
        spare = self.spare
        spare.update(self.contexts)
        self.contexts = {}
        self.spare = {}
        self.closed = True
        return spare

    def __repr__(self) -> str:
        status = "closed" if self.closed else "open"
        return f"Slice(#{self.index} [{self.start}..{self.end}) {status})"


class SliceStore:
    """Closed slices of one query-group, freed from the front by watermark."""

    __slots__ = ("_slices", "freed")

    def __init__(self) -> None:
        self._slices: OrderedDict[int, Slice] = OrderedDict()
        self.freed = 0

    def add(self, slice_: Slice, _holders: int = 1) -> None:
        """Store a closed slice some open window covers.  ``_holders`` is
        ignored: benchmarks/e2e still passes the former reference count."""
        if not slice_.closed:
            raise EngineError("only closed slices can be stored")
        self._slices[slice_.index] = slice_

    def get(self, index: int) -> Slice | None:
        return self._slices.get(index)

    def covered(self, first: int, last: int) -> Iterator[Slice]:
        """Yield stored slices with ``first <= index <= last`` in order."""
        for index in range(first, last + 1):
            slice_ = self._slices.get(index)
            if slice_ is not None:
                yield slice_

    def free_below(self, low: int) -> None:
        """No open window reaches below slice ``low``: drop the front."""
        slices = self._slices
        while slices and next(iter(slices)) < low:
            slices.popitem(last=False)
            self.freed += 1

    def __len__(self) -> int:
        return len(self._slices)

    def merge_context_partials(
        self,
        first: int,
        last: int,
        ctx: int,
        kinds: Iterable[OperatorKind],
        merge: Callable[[OperatorKind, Iterable[Any]], Any],
    ) -> tuple[dict[OperatorKind, Any], int, int]:
        """Merge context ``ctx``'s partials across slices ``first..last``.

        Returns the merged per-kind partials, the total event count, and
        the number of partials fed to the merge (the scan's work measure,
        comparable with the incremental layer's ``merge_ops``).  Slices
        without activity for the context contribute nothing (their
        partials are the operator identities).
        """
        merged: dict[OperatorKind, Any] = {}
        events = merge_ops = 0
        buckets: dict[OperatorKind, list[Any]] = {kind: [] for kind in kinds}
        for slice_ in self.covered(first, last):
            parts = slice_.partials.get(ctx)
            if parts is None:
                continue
            events += slice_.insert_counts.get(ctx, 0)
            for kind, bucket in buckets.items():
                if kind in parts:
                    bucket.append(parts[kind])
        for kind, bucket in buckets.items():
            if bucket:
                merged[kind] = merge(kind, bucket)
                merge_ops += len(bucket)
        return merged, events, merge_ops

    def read_context_partials(
        self, first: int, last: int, ctx: int, kinds: Iterable[OperatorKind]
    ) -> tuple[dict[OperatorKind, Any], int, int]:
        """:meth:`merge_context_partials` for a window finalized in place,
        by :func:`~repro.core.operators.read_many_partials`: its sorted
        values may come back as a
        :class:`~repro.core.operators.SortedRuns` view."""
        return self.merge_context_partials(first, last, ctx, kinds, read_many_partials)
