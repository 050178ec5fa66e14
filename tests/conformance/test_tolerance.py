"""Per-operator-kind tolerance policies and the promoted oracle."""

from __future__ import annotations

import math

from repro.conformance import (
    EXACT,
    FLOAT_FOLD_FUNCTIONS,
    TolerancePolicy,
    tolerance_for,
    values_match,
)
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction


def query_of(fn: AggFunction) -> Query:
    return Query.of(
        "q", WindowSpec.tumbling(1_000), fn,
        quantile=0.5 if fn is AggFunction.QUANTILE else None,
    )


class TestToleranceFor:
    def test_exact_kinds_stay_exact_under_incremental(self):
        """Count, extrema and sorted results carry original values through
        every merge — Two-Stacks or cross-implementation alike."""
        for fn in (AggFunction.COUNT, AggFunction.MAX, AggFunction.MIN,
                   AggFunction.MEDIAN, AggFunction.QUANTILE):
            policy = tolerance_for(query_of(fn), cross_fold=True)
            assert policy.exact, fn

    def test_float_folds_get_relative_tolerance_when_incremental(self):
        """The Two-Stacks (incremental) close re-associates float folds,
        so comparing it with an independently-ordered fold gets the
        1e-9-relative allowance."""
        for fn in (AggFunction.SUM, AggFunction.AVERAGE, AggFunction.PRODUCT,
                   AggFunction.GEOMETRIC_MEAN, AggFunction.VARIANCE,
                   AggFunction.STDDEV):
            policy = tolerance_for(query_of(fn), cross_fold=True)
            assert not policy.exact, fn
            assert policy.rel_tol == 1e-9

    def test_float_folds_exact_on_exact_same_fold(self):
        """Two runs of the one engine fold in the same order."""
        policy = tolerance_for(query_of(AggFunction.SUM))
        assert policy is EXACT

    def test_cross_fold_relaxes_even_exact_merge(self):
        """Even where both sides fold by the plain scan (a tumbling window
        against the oracle), crossing implementations relaxes float folds."""
        policy = tolerance_for(query_of(AggFunction.SUM), cross_fold=True)
        assert not policy.exact

    def test_fold_function_set(self):
        assert AggFunction.SUM in FLOAT_FOLD_FUNCTIONS
        assert AggFunction.MEDIAN not in FLOAT_FOLD_FUNCTIONS


class TestValuesMatch:
    def test_exact_policy_bitwise(self):
        assert values_match(1.1, 1.1, EXACT)
        assert not values_match(1.1, 1.1 + 1e-12, EXACT)

    def test_tolerant_policy_absorbs_reassociation_noise(self):
        policy = TolerancePolicy(rel_tol=1e-9, abs_tol=1e-12)
        total = sum([0.1] * 10)
        assert values_match(1.0, total, policy)
        assert not values_match(1.0, 1.0 + 1e-6, policy)

    def test_none_only_matches_none(self):
        policy = TolerancePolicy(rel_tol=1e-9)
        assert values_match(None, None, policy)
        assert not values_match(None, 0.0, policy)
        assert not values_match(0.0, None, policy)

    def test_two_nans_match(self):
        # inf - inf is NaN whoever folds it
        nan = math.inf - math.inf
        for policy in (EXACT, TolerancePolicy(rel_tol=1e-9)):
            assert values_match(nan, -nan, policy)
            assert not values_match(nan, 0.0, policy)
            assert not values_match(math.inf, nan, policy)
