"""The fixed punctuations of a query-group as one arithmetic grid.

A tumbling or sliding time window starting at ``origin`` punctuates the
stream at its window starts ``origin + k*slide`` and its window ends
``origin + length + k*slide`` (Sec 4.1): two arithmetic progressions.  A
node that only needs to know *where* to cut — a local that slices without
assembling, the root that folds slice records into the cells between two
punctuations — reads that off this grid instead of scheduling window
instances.  It is the coarsest slicing all fixed windows of the group
share (the rewrite Factor Windows plans); nodes build it from the same
schedules, so equal grids mean equal cuts.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["PunctuationGrid"]


class PunctuationGrid:
    """The union of the punctuations of some fixed time windows."""

    __slots__ = ("progressions",)

    def __init__(self, schedules: Iterable[tuple[int, int, int]] = ()) -> None:
        """``schedules`` are the windows' ``(origin, length, slide)``; a
        query attached at runtime has its own origin, its join time."""
        # Window starts, and window ends where ``length % slide`` leaves
        # them off the starts — those only exist from ``origin + length``
        # on.  A progression inside a finer one adds no punctuation and is
        # dropped, so indices are consecutive wherever the periods nest
        # (gaps elsewhere are harmless: stores skip absent indices).
        candidates = set()
        for origin, length, slide in schedules:
            candidates.add((slide, origin))
            if length % slide:
                candidates.add((slide, origin + length))
        kept: list[tuple[int, int]] = []
        for step, first in sorted(candidates):
            if not any(
                step % fine == 0 and first >= start and (first - start) % fine == 0
                for start, fine in kept
            ):
                kept.append((first, step))
        #: the grid as ``(first, step)`` progressions, finest first
        self.progressions = tuple(kept)

    def after(self, time: int) -> int | None:
        """The earliest punctuation strictly after ``time``."""
        best = None
        for first, step in self.progressions:
            due = first if time < first else time - (time - first) % step + step
            if best is None or due < best:
                best = due
        return best

    def index(self, time: int) -> int:
        """Index of the cell holding ``time``: the punctuations up to it
        (one shared by two progressions that do not nest counts twice)."""
        index = 0
        for first, step in self.progressions:
            if time >= first:
                index += (time - first) // step + 1
        return index

    def bounds(self, time: int) -> tuple[int | None, int | None]:
        """The cell ``[start, end)`` holding ``time``: the last punctuation
        at or before it and the first one after it."""
        start = max(
            (
                time - (time - first) % step
                for first, step in self.progressions
                if time >= first
            ),
            default=None,
        )
        return start, self.after(time)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PunctuationGrid):
            return NotImplemented
        return self.progressions == other.progressions

    def __repr__(self) -> str:
        return f"PunctuationGrid({list(self.progressions)!r})"
