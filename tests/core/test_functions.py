"""Tests for Table 1: the function -> operator decomposition and finalizers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import QueryError
from repro.core.functions import (
    FunctionSpec,
    finalize,
    is_decomposable,
    operators_for,
    plan_operators,
)
from repro.core.operators import OperatorSetState
from repro.core.types import AggFunction, OperatorKind

K = OperatorKind
F = AggFunction


class TestTable1:
    """Verifies the paper's Table 1 mapping exactly."""

    @pytest.mark.parametrize(
        "fn, expected",
        [
            (F.SUM, {K.SUM}),
            (F.COUNT, {K.COUNT}),
            (F.AVERAGE, {K.SUM, K.COUNT}),
            (F.PRODUCT, {K.MULTIPLICATION}),
            (F.GEOMETRIC_MEAN, {K.MULTIPLICATION, K.COUNT}),
            (F.MAX, {K.DECOMPOSABLE_SORT}),
            (F.MIN, {K.DECOMPOSABLE_SORT}),
            (F.MEDIAN, {K.NON_DECOMPOSABLE_SORT}),
            (F.QUANTILE, {K.NON_DECOMPOSABLE_SORT}),
        ],
    )
    def test_mapping(self, fn, expected):
        quantile = 0.9 if fn is F.QUANTILE else None
        assert set(operators_for(FunctionSpec(fn, quantile))) == expected

    def test_decomposability(self):
        assert is_decomposable(FunctionSpec(F.SUM))
        assert is_decomposable(FunctionSpec(F.AVERAGE))
        assert is_decomposable(FunctionSpec(F.MAX))
        assert not is_decomposable(FunctionSpec(F.MEDIAN))
        assert not is_decomposable(FunctionSpec(F.QUANTILE, 0.25))


class TestFunctionSpec:
    def test_quantile_requires_parameter(self):
        with pytest.raises(QueryError):
            FunctionSpec(F.QUANTILE)
        with pytest.raises(QueryError):
            FunctionSpec(F.QUANTILE, 1.5)

    def test_non_quantile_rejects_parameter(self):
        with pytest.raises(QueryError):
            FunctionSpec(F.SUM, 0.5)

    def test_distinct_quantiles_are_distinct_specs(self):
        assert FunctionSpec(F.QUANTILE, 0.5) != FunctionSpec(F.QUANTILE, 0.9)
        assert FunctionSpec(F.QUANTILE, 0.5) == FunctionSpec(F.QUANTILE, 0.5)


class TestPlanOperators:
    def test_avg_and_sum_share_two_operators(self):
        """Fig 9a/9b: average + sum execute only sum and count per event."""
        plan = plan_operators([FunctionSpec(F.AVERAGE), FunctionSpec(F.SUM)])
        assert set(plan) == {K.SUM, K.COUNT}

    def test_ndsort_subsumes_dsort(self):
        """Fig 9g: quantile + max share one non-decomposable sort."""
        plan = plan_operators(
            [FunctionSpec(F.QUANTILE, 0.9), FunctionSpec(F.MAX)]
        )
        assert plan == (K.NON_DECOMPOSABLE_SORT,)

    def test_min_max_share_one_dsort(self):
        plan = plan_operators([FunctionSpec(F.MIN), FunctionSpec(F.MAX)])
        assert plan == (K.DECOMPOSABLE_SORT,)

    def test_thousand_quantiles_one_operator(self):
        """Fig 9c/9d: 1000 distinct quantiles still need one operator."""
        specs = [FunctionSpec(F.QUANTILE, q / 1001) for q in range(1, 1001)]
        assert plan_operators(specs) == (K.NON_DECOMPOSABLE_SORT,)

    def test_plan_is_deterministic_order(self):
        plan = plan_operators(
            [FunctionSpec(F.GEOMETRIC_MEAN), FunctionSpec(F.AVERAGE)]
        )
        assert plan == (K.SUM, K.COUNT, K.MULTIPLICATION)


def _run(spec: FunctionSpec, values: list[float]):
    """Execute spec via its planned operators and finalize, as a slice would."""
    plan = plan_operators([spec])
    state = OperatorSetState(plan)
    for v in values:
        state.insert(v)
    return finalize(spec, state.partials())


class TestFinalize:
    def test_average(self):
        assert _run(FunctionSpec(F.AVERAGE), [1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_average_empty_is_none(self):
        assert _run(FunctionSpec(F.AVERAGE), []) is None

    def test_geometric_mean(self):
        assert _run(FunctionSpec(F.GEOMETRIC_MEAN), [1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_negative_product_is_none(self):
        """No real root: undefined, like an empty window, not an error."""
        assert _run(FunctionSpec(F.GEOMETRIC_MEAN), [-1.0, 2.0]) is None
        assert _run(FunctionSpec(F.GEOMETRIC_MEAN), [-1.0, -4.0]) == 2.0

    def test_min_max_from_dsort(self):
        assert _run(FunctionSpec(F.MAX), [3.0, 9.0, 1.0]) == 9.0
        assert _run(FunctionSpec(F.MIN), [3.0, 9.0, 1.0]) == 1.0

    def test_min_max_fall_back_to_ndsort(self):
        """When the group plans only the ndsort, min/max read the sorted run."""
        spec_max = FunctionSpec(F.MAX)
        plan = plan_operators([spec_max, FunctionSpec(F.MEDIAN)])
        assert plan == (K.NON_DECOMPOSABLE_SORT,)
        state = OperatorSetState(plan)
        for v in [5.0, -2.0, 3.0]:
            state.insert(v)
        parts = state.partials()
        assert finalize(spec_max, parts) == 5.0
        assert finalize(FunctionSpec(F.MIN), parts) == -2.0

    def test_median_odd_even(self):
        assert _run(FunctionSpec(F.MEDIAN), [5.0, 1.0, 3.0]) == 3.0
        assert _run(FunctionSpec(F.MEDIAN), [4.0, 1.0, 3.0, 2.0]) == pytest.approx(2.5)

    def test_quantile_interpolation(self):
        values = [float(v) for v in range(11)]
        assert _run(FunctionSpec(F.QUANTILE, 0.5), values) == pytest.approx(5.0)
        assert _run(FunctionSpec(F.QUANTILE, 0.25), values) == pytest.approx(2.5)

    def test_empty_partials_defaults(self):
        assert finalize(FunctionSpec(F.SUM), {}) == 0.0
        assert finalize(FunctionSpec(F.COUNT), {}) == 0
        assert finalize(FunctionSpec(F.MAX), {}) is None
        assert finalize(FunctionSpec(F.MEDIAN), {}) is None

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1
        )
    )
    def test_median_matches_statistics(self, values):
        import statistics

        assert _run(FunctionSpec(F.MEDIAN), values) == pytest.approx(
            statistics.median(values)
        )

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_geometric_mean_matches_log_form(self, values):
        expected = math.exp(sum(math.log(v) for v in values) / len(values))
        assert _run(FunctionSpec(F.GEOMETRIC_MEAN), values) == pytest.approx(
            expected, rel=1e-6
        )
