"""Cells: slice records folded once, on the grid of fixed punctuations.

Every node cuts its slices at every fixed punctuation of a query-group —
the :class:`~repro.core.grid.PunctuationGrid` of its tumbling and sliding
windows, which locals and root build alike — so a slice record never
straddles one: it lies inside a *cell*, the interval between two
consecutive punctuations.  A :class:`CellStore` merges each
record, on arrival, into its cell (pairwise ``merge_partials`` per
operator kind) and keeps the cells as closed
:class:`~repro.core.slices.Slice` objects, so whatever closes windows over
an engine's slices — the plain scan of
:meth:`~repro.core.slices.SliceStore.merge_context_partials`, the
Two-Stacks streams of :class:`~repro.core.incmerge.IncrementalMergeLayer` —
closes them over cells unchanged.  This is the coarsest slicing all fixed
windows of the group share (the rewrite Factor Windows plans, here read
off the punctuations); the records of a session group, which
:mod:`repro.cluster.merger` must pass up unmerged, are merged here.

Cells are derived state, and so are the Two-Stacks streams over them,
whose positions are this grid's cell indices and which the store therefore
owns (:attr:`CellStore.streams`, the layer the root closes windows
through): :meth:`CellStore.records` turns the cells back into ordinary
slice records that fold into the same cells again, which is how they
travel in a checkpoint chunk and how they move to a new grid; streams
rebuild lazily.
"""

from __future__ import annotations

from repro.core.errors import ClusterError
from repro.core.grid import PunctuationGrid
from repro.core.incmerge import IncrementalMergeLayer
from repro.core.operators import merge_partials
from repro.core.slices import Slice, SliceStore
from repro.core.types import OperatorKind
from repro.network.messages import ContextPartial, SliceRecord

__all__ = ["CellStore"]


class CellStore(SliceStore):
    """The cells of one query-group, indexed along its punctuation grid."""

    __slots__ = ("grid", "kinds", "label", "merge_ops", "streams")

    def __init__(
        self,
        grid: PunctuationGrid,
        kinds: dict[int, tuple[OperatorKind, ...]],
        label: str = "",
    ) -> None:
        """``grid`` holds the punctuations of the group's fixed windows;
        ``kinds`` names, per selection context, the operators a cell folds
        (contexts left out are not folded at all)."""
        super().__init__()
        self.grid = grid
        self.kinds = kinds
        self.label = label
        #: ``merge_partials`` calls folding records into cells
        self.merge_ops = 0
        #: the Two-Stacks streams over these cells, and the plain scan
        self.streams = IncrementalMergeLayer()

    def fold(self, record: SliceRecord) -> int:
        """Merge ``record`` into the cell it lies in; returns its index."""
        index = self.grid.index(record.start)
        cell = self.get(index)
        if cell is None:
            start, end = self.grid.bounds(record.start)
            cell = Slice(index, start)
            cell.close(end)
            self.add(cell)
        if record.end > cell.end:
            raise ClusterError(
                f"{self.label}: record [{record.start}..{record.end}) straddles "
                f"the fixed punctuation that ends its cell "
                f"[{cell.start}..{cell.end})"
            )
        for ctx, kinds in self.kinds.items():
            part = record.contexts.get(ctx)
            if part is None:
                continue
            have = cell.partials.setdefault(ctx, {})
            cell.insert_counts[ctx] = cell.insert_counts.get(ctx, 0) + part.count
            for kind in kinds:
                if kind not in part.ops:
                    continue
                if kind in have:
                    have[kind] = merge_partials(kind, have[kind], part.ops[kind])
                    self.merge_ops += 1
                else:
                    have[kind] = part.ops[kind]
        return index

    def records(self, low: int, high: int) -> list[SliceRecord]:
        """The cells between times ``low`` and ``high`` as slice records."""
        return [
            SliceRecord(
                start=cell.start,
                end=cell.end,
                contexts={
                    ctx: ContextPartial(count=cell.insert_counts[ctx], ops=dict(ops))
                    for ctx, ops in cell.partials.items()
                },
            )
            for cell in self.covered(self.grid.index(low), self.grid.index(high))
        ]
