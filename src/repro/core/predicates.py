"""Selection predicates and query-group compatibility rules (Sec 4.2.3).

A :class:`Selection` filters the events a query aggregates: an optional key
equality (``WHERE key = 'speed'``) and an optional half-open value range
(``WHERE 25 <= value < 80``).  ``Selection()`` accepts every event.

Queries can share a query-group only if their selections *fully overlap*
(are identical) or *do not overlap* (are disjoint); partially overlapping
selections force separate groups because a shared slice could not keep the
per-query results apart (Sec 4.2.3).  :func:`compatible` implements that
rule, and :func:`selection_relation` exposes the underlying classification.

Inside a group, each distinct selection becomes one *selection operator*
executed per event; this linear scan over selection operators is what makes
local-node throughput drop with the number of distinct keys in Fig 7e (see
``benchmarks/bench_ablation.py`` for the keyed-dispatch alternative).  The
batched paths classify the contexts once instead (:class:`SelectionRouter`):
a context that takes every row takes a run's value column whole, and only
the contexts that filter or deduplicate rows are routed row by row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.core.errors import QueryError
from repro.core.event import Event

__all__ = [
    "Selection",
    "SelectionRelation",
    "SelectionRouter",
    "selection_relation",
    "compatible",
]


class SelectionRelation(enum.Enum):
    """How the event sets matched by two selections relate."""

    EQUAL = "equal"
    DISJOINT = "disjoint"
    OVERLAPPING = "overlapping"


@dataclass(slots=True, frozen=True)
class Selection:
    """A selection predicate: optional key equality plus a value range.

    Attributes:
        key: only events with this key match; ``None`` matches all keys.
        lo: inclusive lower bound on the event value; ``None`` is unbounded.
        hi: exclusive upper bound on the event value; ``None`` is unbounded.
        deduplicate: apply the paper's *deduplication* non-aggregate
            operator (Sec 4.2.3): identical events (same time, key, value,
            and marker) within a slice are aggregated only once for this
            selection context.
    """

    key: str | None = None
    lo: float | None = None
    hi: float | None = None
    deduplicate: bool = False

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None and self.lo >= self.hi:
            raise QueryError(
                f"empty value range: lo={self.lo!r} must be < hi={self.hi!r}"
            )

    def matches(self, event: Event) -> bool:
        """Whether ``event`` passes this selection."""
        if self.key is not None and event.key != self.key:
            return False
        if self.lo is not None and event.value < self.lo:
            return False
        if self.hi is not None and event.value >= self.hi:
            return False
        return True

    @property
    def is_pass_all(self) -> bool:
        return self.key is None and self.lo is None and self.hi is None

    def __str__(self) -> str:
        clauses = []
        if self.key is not None:
            clauses.append(f"key = {self.key!r}")
        if self.lo is not None:
            clauses.append(f"value >= {self.lo:g}")
        if self.hi is not None:
            clauses.append(f"value < {self.hi:g}")
        return " AND ".join(clauses) if clauses else "TRUE"


class SelectionRouter:
    """The batched paths' one classification of a group's selection
    contexts.

    The per-event engine path scans every selection operator linearly (the
    cost model behind Fig 7e).  The batched paths split the contexts in
    two instead:

    * *whole* contexts — pass-all and not deduplicating — take every row,
      so a slice-run hands them its stretch of the value column as is;
    * *routed* contexts (a key, a value range, or the deduplication
      operator) are routed row by row by key: key-equality selections are
      bucketed under their key, while the others form a *fallback list*
      that every row must still consider.  A row therefore only touches
      routed contexts that can possibly match it; the remaining per-row
      work is the value-range check.

    Candidate lists are ``(ctx_index, lo, hi)`` tuples of routed contexts
    sorted by context index, so matches come out in the same order the
    linear scan produces them.  The per-key merged lists are cached; the
    cache is bounded by the number of distinct selection keys (unknown
    keys share the fallback list and are never cached).
    """

    __slots__ = ("total", "whole", "routed", "_by_key", "_fallback", "_cache")

    def __init__(self, selections: "list[Selection] | tuple[Selection, ...]") -> None:
        #: number of selection operators a linear scan would execute per
        #: event — used to keep ``selection_checks`` per-event-equivalent
        self.total = len(selections)
        #: contexts that take every row, ascending
        self.whole = tuple(
            index
            for index, selection in enumerate(selections)
            if selection.is_pass_all and not selection.deduplicate
        )
        #: whether any context must be routed row by row
        self.routed = len(self.whole) < self.total
        by_key: dict[str, list[tuple[int, float | None, float | None]]] = {}
        fallback: list[tuple[int, float | None, float | None]] = []
        for index, selection in enumerate(selections):
            if index in self.whole:
                continue
            entry = (index, selection.lo, selection.hi)
            if selection.key is None:
                fallback.append(entry)
            else:
                by_key.setdefault(selection.key, []).append(entry)
        self._by_key = by_key
        self._fallback = fallback
        self._cache: dict[str, list[tuple[int, float | None, float | None]]] = {}

    def candidates(self, key: str) -> list[tuple[int, float | None, float | None]]:
        """Routed contexts that can match a row with ``key`` (sorted by
        ctx)."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        keyed = self._by_key.get(key)
        if keyed is None:
            return self._fallback
        merged = sorted(keyed + self._fallback) if self._fallback else keyed
        self._cache[key] = merged
        return merged

    def matches(self, event: Event) -> list[int]:
        """Context indices matching ``event``, whole ones included —
        identical to the linear scan
        ``[i for i, s in enumerate(selections) if s.matches(event)]``."""
        if not self.routed:
            return list(self.whole)
        value = event.value
        routed = [
            index
            for index, lo, hi in self.candidates(event.key)
            if (lo is None or value >= lo) and (hi is None or value < hi)
        ]
        return sorted(self.whole + tuple(routed)) if self.whole else routed


def _bounds(selection: Selection) -> tuple[float, float]:
    lo = -math.inf if selection.lo is None else selection.lo
    hi = math.inf if selection.hi is None else selection.hi
    return lo, hi


def _range_relation(a: Selection, b: Selection) -> SelectionRelation:
    """Relation of the two selections' value ranges, ignoring keys."""
    a_lo, a_hi = _bounds(a)
    b_lo, b_hi = _bounds(b)
    if a_lo == b_lo and a_hi == b_hi:
        return SelectionRelation.EQUAL
    if a_hi <= b_lo or b_hi <= a_lo:
        return SelectionRelation.DISJOINT
    return SelectionRelation.OVERLAPPING


def selection_relation(a: Selection, b: Selection) -> SelectionRelation:
    """Classify how the event sets of ``a`` and ``b`` relate."""
    if a.key is not None and b.key is not None and a.key != b.key:
        return SelectionRelation.DISJOINT
    range_rel = _range_relation(a, b)
    if a.key == b.key:
        return range_rel
    # Exactly one side restricts the key: the unrestricted side strictly
    # contains the restricted one unless their value ranges are disjoint.
    if range_rel is SelectionRelation.DISJOINT:
        return SelectionRelation.DISJOINT
    return SelectionRelation.OVERLAPPING


def compatible(a: Selection, b: Selection) -> bool:
    """Whether two selections may live in the same query-group.

    True iff the selections fully overlap (identical event sets) or do not
    overlap at all (Sec 4.2.3).  Partial overlap — including one selection
    strictly containing the other — is incompatible.
    """
    return selection_relation(a, b) is not SelectionRelation.OVERLAPPING
