"""The query analyzer: forming query-groups (Sec 3.1, 4.2.3, 5.2).

The analyzer turns a set of queries into *query-groups* — sets of queries
whose partial results can be shared so that every event is processed once
per group.  Grouping is constrained by three rules:

1. **Selections** must pairwise fully overlap or not overlap at all
   (:func:`repro.core.predicates.compatible`).
2. **Sharing policy**: Desis (``FULL``) shares across window types,
   measures, and functions; the Scotty and DeSW baselines additionally split
   by function (and measure), and ``NONE`` isolates every query
   (Sec 6.1.1 / 6.3).
3. **Decentralized placement** (Sec 5.2): a group is either pushed down
   (decomposable functions with time-based windows) or evaluated at the
   root (count-based windows and non-decomposable functions, whose raw —
   but locally sorted — values must reach the root anyway).  In
   decentralized mode the two classes never mix; centralized processing
   ignores the distinction.

The resulting :class:`QueryGroup` doubles as the paper's *window attributes*
that the root broadcasts to all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.errors import QueryError
from repro.core.functions import plan_operators
from repro.core.predicates import Selection, compatible
from repro.core.query import Query
from repro.core.types import OperatorKind, SharingPolicy, WindowMeasure

__all__ = ["QueryGroup", "QueryPlan", "analyze"]


@dataclass(slots=True)
class QueryGroup:
    """A set of queries that share slices and operators.

    Attributes:
        group_id: index of the group within its plan.
        queries: member queries, in submission order.
        operators: the planned shared operator kinds (Table 1 union).
        selections: distinct selection predicates; each becomes one
            selection operator with its own per-slice partial results.
        context_of: query id -> index into ``selections``.
        root_evaluated: in decentralized mode, whether windows of this
            group are evaluated at the root from shipped (sorted) values.
        needs_timestamps: whether shipped values must carry event times
            (required when the group contains count-based windows, whose
            ends only the root can determine).
    """

    group_id: int
    queries: list[Query] = field(default_factory=list)
    operators: tuple[OperatorKind, ...] = ()
    selections: list[Selection] = field(default_factory=list)
    context_of: dict[str, int] = field(default_factory=dict)
    root_evaluated: bool = False
    needs_timestamps: bool = False

    def _context_index(self, selection: Selection) -> int:
        """Index of ``selection`` among the group's distinct selections."""
        for index, existing in enumerate(self.selections):
            if existing == selection:
                return index
        self.selections.append(selection)
        return len(self.selections) - 1

    def _admit(self, query: Query) -> None:
        self.queries.append(query)
        self.context_of[query.query_id] = self._context_index(query.selection)

    def _replan(self) -> None:
        self.operators = plan_operators(query.function for query in self.queries)
        self.needs_timestamps = any(q.is_count_based for q in self.queries)

    def remove_query(self, query_id: str) -> Query:
        """Drop a member query (runtime removal, Sec 3.2) and replan."""
        for index, query in enumerate(self.queries):
            if query.query_id == query_id:
                del self.queries[index]
                del self.context_of[query_id]
                self._replan()
                return query
        raise QueryError(f"query {query_id!r} is not in group {self.group_id}")

    def __len__(self) -> int:
        return len(self.queries)


@dataclass(slots=True)
class QueryPlan:
    """The analyzer's output: all query-groups plus lookup helpers."""

    groups: list[QueryGroup]
    policy: SharingPolicy
    decentralized: bool

    def __contains__(self, query_id: str) -> bool:
        return any(query_id in group.context_of for group in self.groups)

    def group_of(self, query_id: str) -> QueryGroup:
        for group in self.groups:
            if query_id in group.context_of:
                return group
        raise QueryError(f"unknown query id: {query_id!r}")

    @property
    def queries(self) -> list[Query]:
        return [query for group in self.groups for query in group.queries]

    def admit(self, query: Query) -> QueryGroup:
        """Add ``query`` to the first group it fits, else to a new one.

        A group fits when it has members, the sharing policy's key and
        (decentralized) placement match its own, and the query's selection
        is compatible with each of its selections.  A new group is
        returned unplanned: its operators are the caller's to plan.
        """
        if query.query_id in self:
            raise QueryError(f"duplicate query id: {query.query_id!r}")
        key = _policy_key(query, self.policy)
        root = self.decentralized and _placement_root(query)
        for group in self.groups:
            if (
                group.queries
                and group.root_evaluated == root
                and _policy_key(group.queries[0], self.policy) == key
                and all(compatible(query.selection, s) for s in group.selections)
            ):
                break
        else:
            group = QueryGroup(group_id=len(self.groups), root_evaluated=root)
            self.groups.append(group)
        group._admit(query)
        return group

    def open_group(self, query: Query) -> QueryGroup:
        """Add ``query`` as the only member of a new, planned group: a
        query a running deployment takes on (Sec 3.2), placed like any
        other."""
        if query.query_id in self:
            raise QueryError(f"duplicate query id: {query.query_id!r}")
        group = QueryGroup(
            group_id=len(self.groups),
            root_evaluated=self.decentralized and _placement_root(query),
        )
        group._admit(query)
        group._replan()
        self.groups.append(group)
        return group


def _policy_key(query: Query, policy: SharingPolicy):
    """The partition key a sharing policy imposes on top of selections."""
    if policy is SharingPolicy.FULL:
        return None
    if policy is SharingPolicy.SAME_FUNCTION:
        return query.function
    if policy is SharingPolicy.SAME_FUNCTION_AND_MEASURE:
        return (query.function, query.window.measure)
    if policy is SharingPolicy.NONE:
        return query.query_id
    raise QueryError(f"unknown sharing policy: {policy!r}")


def _placement_root(query: Query) -> bool:
    """Whether a query must be evaluated at the root in decentralized mode."""
    return not query.is_decomposable or query.window.measure is WindowMeasure.COUNT


def analyze(
    queries: Iterable[Query],
    *,
    policy: SharingPolicy = SharingPolicy.FULL,
    decentralized: bool = False,
) -> QueryPlan:
    """Partition ``queries`` into query-groups under ``policy``.

    Raises :class:`QueryError` on duplicate query ids.  Grouping is greedy
    in submission order (:meth:`QueryPlan.admit`): each query joins the
    first group it is compatible with, otherwise it opens a new group.
    """
    plan = QueryPlan(groups=[], policy=policy, decentralized=decentralized)
    for query in queries:
        plan.admit(query)
    for group in plan.groups:
        group._replan()
    return plan
