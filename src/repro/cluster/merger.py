"""Child-coverage tracking and slice-record merging (Sec 5.1.1).

Intermediate and root nodes share this machinery: per query-group they
collect :class:`~repro.network.messages.SliceRecord` batches from their
children, advance a coverage watermark (the minimum ``covered_to`` over
all children), and release records whose interval is fully covered.

Released records from different children with the *same* interval are
merged (the paper's "intermediate slice whose length equals the number of
child nodes"), in every group.  A session group's merged span is the hull
of its children's spans and hides no gap between them: a local cuts at
each of its own session ends (DESIGN.md §3), so if child A's span ends at
``lA`` and child B's begins at ``fB >= lA + gap`` inside one ``[s, e)``, A
cut at ``lA + gap`` in ``(s, e)`` and its record is not ``[s, e)``.  With
several session queries on one context the smallest gap decides; an
intermediate does not cut, so one tier up the argument holds again.

Duplicate and missing slices are detected with the per-child
auto-incrementing slice ids (Sec 5.1.1): a batch whose ``first_slice_seq``
is behind the expected sequence has its already-seen prefix dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from repro.core.analyzer import QueryGroup
from repro.core.errors import ClusterError
from repro.core.operators import merge_partials
from repro.network.messages import ContextPartial, PartialBatchMessage, SliceRecord

__all__ = ["GroupMerger", "merge_records"]


def _fold_context(into: ContextPartial, part: ContextPartial) -> None:
    """Merge ``part`` into ``into``, a copy :func:`merge_records` owns."""
    into.count += part.count
    ops = into.ops
    for kind, partial in part.ops.items():
        ops[kind] = merge_partials(kind, ops[kind], partial) if kind in ops else partial
    if part.span is not None:
        span = into.span or part.span
        into.span = (min(span[0], part.span[0]), max(span[1], part.span[1]))
    if into.timed is not None or part.timed is not None:
        into.timed = into.timed or []
        into.timed.extend(part.timed or ())
        into.timed.sort(key=itemgetter(0))  # stable: a child's ties keep their order


def _own(part: ContextPartial) -> ContextPartial:
    timed = None if part.timed is None else list(part.timed)
    return ContextPartial(part.count, dict(part.ops), part.span, timed)


def merge_records(records: list[SliceRecord]) -> list[SliceRecord]:
    """Merge records with identical ``[start, end)`` intervals, sorted by
    ``(end, start)``.  A record merged into is copied once, its contexts
    with it, and folded into in place; the inputs are left as they were."""
    merged: dict[tuple[int, int], SliceRecord] = {}
    owned: set[tuple[int, int]] = set()
    for record in records:
        key = (record.start, record.end)
        into = merged.get(key)
        if into is None:
            merged[key] = record
            continue
        if key not in owned:
            owned.add(key)
            into = merged[key] = SliceRecord(
                into.start, into.end,
                {ctx: _own(part) for ctx, part in into.contexts.items()},
                list(into.userdef_eps),
            )
        contexts = into.contexts
        for ctx, part in record.contexts.items():
            if ctx in contexts:
                _fold_context(contexts[ctx], part)
            else:
                contexts[ctx] = _own(part)
        into.userdef_eps.extend(record.userdef_eps)
    return sorted(merged.values(), key=lambda r: (r.end, r.start))


@dataclass(slots=True)
class _ChildState:
    covered: int
    next_seq: int = 0
    #: buffered (record) entries not yet released
    pending: list[SliceRecord] = field(default_factory=list)


class GroupMerger:
    """Per-group record collection for one parent node."""

    def __init__(self, group: QueryGroup, children: list[str], origin: int) -> None:
        self.group = group
        self.origin = origin
        self.children: dict[str, _ChildState] = {
            child: _ChildState(covered=origin) for child in children
        }
        self.forwarded_to = origin
        #: children still at ``forwarded_to``: coverage advances at zero
        self.holding = len(self.children)
        self.duplicates_dropped = 0
        #: batches from unknown senders (e.g. in flight when their node was
        #: removed, Sec 3.2); dropped, not fatal.
        self.stray_batches = 0

    # -- membership (Sec 3.2) -----------------------------------------------------

    def add_child(self, child: str) -> None:
        if child in self.children:
            raise ClusterError(f"child {child!r} already attached")
        # A new child starts covered up to the merger's progress so it does
        # not stall coverage retroactively.
        self.children[child] = _ChildState(covered=self.forwarded_to)
        self._recount()

    def remove_child(self, child: str) -> None:
        self.children.pop(child, None)
        self._recount()

    def restore(self, forwarded_to: int, cursors: dict, pending: dict) -> None:
        """Apply a checkpoint's floor and children's cursors and pending records."""
        self.forwarded_to = forwarded_to
        for child, state in self.children.items():
            if child in cursors:
                state.next_seq, state.covered = cursors[child]
            if child in pending:
                state.pending = list(pending[child])
        self._recount()

    def _recount(self) -> None:
        self.holding = sum(s.covered <= self.forwarded_to for s in self.children.values())

    # -- ingestion ------------------------------------------------------------------

    def on_batch(self, message: PartialBatchMessage) -> None:
        state = self.children.get(message.sender)
        if state is None:
            # The sender is not (or no longer) a child — e.g. its batch was
            # in flight when the node was removed from the cluster.
            self.stray_batches += 1
            return
        records = message.records
        seq = message.first_slice_seq
        if seq < state.next_seq:
            # Duplicate delivery: drop the already-seen prefix (Sec 5.1.1).
            skip = min(state.next_seq - seq, len(records))
            self.duplicates_dropped += skip
            records = records[skip:]
            seq = state.next_seq
        elif seq > state.next_seq:
            raise ClusterError(
                f"missing slices from {message.sender!r}: expected seq "
                f"{state.next_seq}, got {seq}"
            )
        state.next_seq = seq + len(records)
        state.pending.extend(records)
        if message.covered_to > state.covered:
            if state.covered <= self.forwarded_to < message.covered_to:
                self.holding -= 1
            state.covered = message.covered_to

    # -- overload control (DESIGN.md §12) -------------------------------------------

    def staging_occupancy(self) -> int:
        """Pending (buffered, unreleased) slice records across all children
        — the occupancy the staging cap bounds."""
        return sum(len(state.pending) for state in self.children.values())

    def shed_oldest(self, count: int) -> list[SliceRecord]:
        """Deterministically shed the ``count`` oldest pending records.

        Whole slices only, ordered by ``(end, start, child)`` so two runs
        of the same scenario shed identical coverage.  Returns the shed
        records (the caller accounts their coverage intervals); sequence
        numbers are untouched — they were assigned upstream and releases
        simply skip the shed contributions.
        """
        if count <= 0:
            return []
        entries = sorted(
            (
                (record.end, record.start, child, record)
                for child, state in self.children.items()
                for record in state.pending
            ),
            key=lambda entry: entry[:3],
        )[:count]
        victims = {id(record) for *_, record in entries}
        for state in self.children.values():
            state.pending = [
                record
                for record in state.pending
                if id(record) not in victims
            ]
        return [record for *_, record in entries]

    def advance(self) -> tuple[int, list[SliceRecord]] | None:
        """Release records once every child covers a later boundary.

        Returns ``(covered, records)`` with records sorted by interval, or
        ``None`` when coverage has not advanced.
        """
        if self.holding or not self.children:
            return None
        covered = min(state.covered for state in self.children.values())
        self.forwarded_to = covered
        released: list[SliceRecord] = []
        holding = 0
        for state in self.children.values():
            holding += state.covered == covered
            keep: list[SliceRecord] = []
            for record in state.pending:
                if record.end <= covered:
                    released.append(record)
                else:
                    keep.append(record)
            state.pending = keep
        self.holding = holding
        return covered, merge_records(released)
