"""Tests for query-group formation (Sec 4.2.3 and 5.2)."""

from __future__ import annotations

import pytest

from repro.core.analyzer import analyze
from repro.core.errors import QueryError
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, OperatorKind, SharingPolicy, WindowMeasure

K = OperatorKind


def q(qid, window, fn, *, quantile=None, selection=None):
    return Query.of(qid, window, fn, quantile=quantile, selection=selection)


def mixed_queries():
    return [
        q("a", WindowSpec.tumbling(1_000), AggFunction.MAX),
        q("b", WindowSpec.sliding(2_000, 500), AggFunction.QUANTILE, quantile=0.9),
        q("c", WindowSpec.session(300), AggFunction.MEDIAN),
        q("d", WindowSpec.user_defined(end_marker="end"), AggFunction.SUM),
        q("e", WindowSpec.tumbling(100, measure=WindowMeasure.COUNT), AggFunction.AVERAGE),
    ]


class TestFullSharing:
    def test_all_window_types_share_one_group(self):
        """Fig 3 / Fig 4: all five queries land in one query-group."""
        plan = analyze(mixed_queries())
        assert len(plan.groups) == 1
        group = plan.groups[0]
        assert len(group) == 5
        # max/quantile/median share the ndsort; avg/sum add sum+count.
        assert set(group.operators) == {K.SUM, K.COUNT, K.NON_DECOMPOSABLE_SORT}

    def test_identical_selections_share_a_context(self):
        sel = Selection(key="speed", lo=80.0)
        plan = analyze(
            [
                q("a", WindowSpec.tumbling(10), AggFunction.SUM, selection=sel),
                q("b", WindowSpec.tumbling(20), AggFunction.AVERAGE, selection=sel),
            ]
        )
        group = plan.groups[0]
        assert len(group.selections) == 1
        assert group.context_of["a"] == group.context_of["b"]

    def test_disjoint_selections_share_group_not_context(self):
        fast = Selection(key="speed", lo=80.0)
        slow = Selection(key="speed", hi=25.0)
        plan = analyze(
            [
                q("a", WindowSpec.tumbling(10), AggFunction.SUM, selection=fast),
                q("b", WindowSpec.tumbling(10), AggFunction.SUM, selection=slow),
            ]
        )
        assert len(plan.groups) == 1
        group = plan.groups[0]
        assert len(group.selections) == 2
        assert group.context_of["a"] != group.context_of["b"]

    def test_partially_overlapping_selections_split_groups(self):
        plan = analyze(
            [
                q("a", WindowSpec.tumbling(10), AggFunction.SUM,
                  selection=Selection(lo=0.0, hi=50.0)),
                q("b", WindowSpec.tumbling(10), AggFunction.SUM,
                  selection=Selection(lo=25.0, hi=75.0)),
            ]
        )
        assert len(plan.groups) == 2

    def test_a_pass_all_selection_does_not_join_a_keyed_one(self):
        """Containment is partial overlap (``predicates.compatible``): a
        pass-all query's events strictly contain a keyed query's."""
        plan = analyze(
            [
                q("a", WindowSpec.sliding(300, 100), AggFunction.SUM),
                q("b", WindowSpec.sliding(200, 100), AggFunction.SUM,
                  selection=Selection(key="k")),
            ]
        )
        assert len(plan.groups) == 2

    def test_duplicate_query_id_rejected(self):
        queries = [
            q("dup", WindowSpec.tumbling(10), AggFunction.SUM),
            q("dup", WindowSpec.tumbling(20), AggFunction.SUM),
        ]
        with pytest.raises(QueryError):
            analyze(queries)

    def test_group_of_lookup(self):
        plan = analyze(mixed_queries())
        assert plan.group_of("c") is plan.groups[0]
        with pytest.raises(QueryError):
            plan.group_of("nope")


class TestBaselinePolicies:
    def test_same_function_policy_splits_by_function(self):
        """Scotty shares only between identical aggregation functions."""
        plan = analyze(
            [
                q("a", WindowSpec.tumbling(10), AggFunction.SUM),
                q("b", WindowSpec.tumbling(20), AggFunction.SUM),
                q("c", WindowSpec.tumbling(10), AggFunction.AVERAGE),
            ],
            policy=SharingPolicy.SAME_FUNCTION,
        )
        assert len(plan.groups) == 2

    def test_distinct_quantiles_explode_same_function_groups(self):
        """Fig 9c: 100 distinct quantiles -> 100 groups for Scotty/DeSW."""
        queries = [
            q(f"q{i}", WindowSpec.tumbling(10), AggFunction.QUANTILE,
              quantile=(i + 1) / 200)
            for i in range(100)
        ]
        assert len(analyze(queries, policy=SharingPolicy.SAME_FUNCTION).groups) == 100
        assert len(analyze(queries, policy=SharingPolicy.FULL).groups) == 1

    def test_same_function_and_measure_splits_measures(self):
        """Fig 9h: DeSW separates count-based from time-based windows."""
        queries = [
            q("a", WindowSpec.tumbling(1_000), AggFunction.SUM),
            q("b", WindowSpec.tumbling(100, measure=WindowMeasure.COUNT),
              AggFunction.SUM),
        ]
        assert (
            len(analyze(queries, policy=SharingPolicy.SAME_FUNCTION).groups) == 1
        )
        assert (
            len(
                analyze(
                    queries, policy=SharingPolicy.SAME_FUNCTION_AND_MEASURE
                ).groups
            )
            == 2
        )

    def test_none_policy_isolates_every_query(self):
        queries = [
            q(f"q{i}", WindowSpec.tumbling(10), AggFunction.SUM) for i in range(7)
        ]
        assert len(analyze(queries, policy=SharingPolicy.NONE).groups) == 7


class TestDecentralizedPlacement:
    def test_count_windows_split_from_decomposable(self):
        """Sec 5.2: count-based windows form a root-evaluated group."""
        queries = [
            q("t", WindowSpec.tumbling(1_000), AggFunction.SUM),
            q("c", WindowSpec.tumbling(100, measure=WindowMeasure.COUNT),
              AggFunction.SUM),
        ]
        plan = analyze(queries, decentralized=True)
        assert len(plan.groups) == 2
        by_id = {g.queries[0].query_id: g for g in plan.groups}
        assert not by_id["t"].root_evaluated
        assert by_id["c"].root_evaluated
        assert by_id["c"].needs_timestamps

    def test_count_windows_join_non_decomposable_group(self):
        """Sec 5.2: count windows may share with non-decomposable queries."""
        queries = [
            q("m", WindowSpec.tumbling(1_000), AggFunction.MEDIAN),
            q("c", WindowSpec.tumbling(100, measure=WindowMeasure.COUNT),
              AggFunction.SUM),
        ]
        plan = analyze(queries, decentralized=True)
        assert len(plan.groups) == 1
        assert plan.groups[0].root_evaluated

    def test_centralized_ignores_placement(self):
        queries = [
            q("t", WindowSpec.tumbling(1_000), AggFunction.SUM),
            q("c", WindowSpec.tumbling(100, measure=WindowMeasure.COUNT),
              AggFunction.SUM),
        ]
        assert len(analyze(queries, decentralized=False).groups) == 1

    @pytest.mark.parametrize("decentralized", [True, False])
    def test_a_runtime_query_opens_its_own_planned_group(self, decentralized):
        """``open_group`` places a query as ``admit`` would, but alone,
        beside a group it could share with, and planned."""
        plan = analyze(
            [q("t", WindowSpec.tumbling(1_000), AggFunction.SUM)],
            decentralized=decentralized,
        )
        for query in mixed_queries():
            group = plan.open_group(query)
            assert group is plan.groups[-1]
            assert group.group_id == len(plan.groups) - 1
            assert group.queries == [query]
            assert group.root_evaluated == (
                decentralized
                and (not query.is_decomposable or query.is_count_based)
            )
            assert group.operators and group.needs_timestamps == query.is_count_based
        with pytest.raises(QueryError):
            plan.open_group(q("t", WindowSpec.tumbling(10), AggFunction.MAX))


class TestRuntimeRemoval:
    def test_remove_query_replans_operators(self):
        plan = analyze(
            [
                q("a", WindowSpec.tumbling(10), AggFunction.AVERAGE),
                q("b", WindowSpec.tumbling(10), AggFunction.MEDIAN),
            ]
        )
        group = plan.groups[0]
        assert set(group.operators) == {K.SUM, K.COUNT, K.NON_DECOMPOSABLE_SORT}
        group.remove_query("b")
        assert set(group.operators) == {K.SUM, K.COUNT}
        with pytest.raises(QueryError):
            group.remove_query("b")
