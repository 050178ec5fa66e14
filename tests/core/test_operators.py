"""Unit and property tests for the shared aggregate operators."""

from __future__ import annotations

import heapq
import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.operators import (
    CountState,
    DecomposableSortState,
    MultiplicationState,
    NonDecomposableSortState,
    OperatorSetState,
    SumState,
    empty_partial,
    make_state,
    merge_many_partials,
    merge_partials,
)
from repro.core.types import OperatorKind

ALL_KINDS = list(OperatorKind)

values_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=60
)

#: where a merge could reorder without ``==`` noticing: signed zeros,
#: duplicates, infinities, denormals
EDGE_FLOATS = [
    -math.inf, -2.5, -5e-324, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1.0, 1.0, 2.5, math.inf,
]
sorted_runs = st.lists(st.sampled_from(EDGE_FLOATS), max_size=40).map(sorted)


def bits(values):
    return [struct.pack(">d", value) for value in values]


class TestStates:
    def test_sum(self):
        state = SumState()
        for v in (1.0, 2.5, -0.5):
            state.insert(v)
        assert state.partial() == pytest.approx(3.0)

    def test_count(self):
        state = CountState()
        for v in (9.0, 9.0, 9.0, 1.0):
            state.insert(v)
        assert state.partial() == 4

    def test_multiplication(self):
        state = MultiplicationState()
        for v in (2.0, 3.0, 0.5):
            state.insert(v)
        assert state.partial() == pytest.approx(3.0)

    def test_decomposable_sort_tracks_extrema(self):
        state = DecomposableSortState()
        for v in (5.0, -1.0, 3.0, 7.0):
            state.insert(v)
        assert state.partial() == (-1.0, 7.0)

    def test_decomposable_sort_empty_is_none(self):
        assert DecomposableSortState().partial() is None

    def test_non_decomposable_sort_sorts_lazily(self):
        state = NonDecomposableSortState()
        for v in (3.0, 1.0, 2.0):
            state.insert(v)
        assert state.values == [3.0, 1.0, 2.0]
        assert state.partial() == [1.0, 2.0, 3.0]

    def test_make_state_returns_matching_kind(self):
        for kind in ALL_KINDS:
            assert make_state(kind).kind is kind


class TestMerge:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(left=values_lists, right=values_lists)
    def test_merge_equals_combined_insert(self, kind, left, right):
        """Merging two partials equals inserting both value lists into one state."""
        a, b, combined = make_state(kind), make_state(kind), make_state(kind)
        for v in left:
            a.insert(v)
            combined.insert(v)
        for v in right:
            b.insert(v)
            combined.insert(v)
        merged = merge_partials(kind, a.partial(), b.partial())
        expected = combined.partial()
        if kind is OperatorKind.MULTIPLICATION:
            assert merged == pytest.approx(expected, rel=1e-9)
        else:
            assert merged == pytest.approx(expected)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(values=values_lists)
    def test_empty_partial_is_identity(self, kind, values):
        state = make_state(kind)
        for v in values:
            state.insert(v)
        part = state.partial()
        assert merge_partials(kind, empty_partial(kind), part) == part
        assert merge_partials(kind, part, empty_partial(kind)) == part

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_merge_many_matches_pairwise(self, kind):
        chunks = [[1.0, 4.0], [2.0], [], [3.0, 0.0]]
        partials = []
        for chunk in chunks:
            state = make_state(kind)
            for v in chunk:
                state.insert(v)
            partials.append(state.partial())
        pairwise = empty_partial(kind)
        for part in partials:
            pairwise = merge_partials(kind, pairwise, part)
        assert merge_many_partials(kind, partials) == pairwise

    def test_ndsort_merge_keeps_sorted(self):
        merged = merge_partials(
            OperatorKind.NON_DECOMPOSABLE_SORT, [1.0, 3.0], [0.0, 2.0, 4.0]
        )
        assert merged == [0.0, 1.0, 2.0, 3.0, 4.0]

    @given(left=sorted_runs, right=sorted_runs)
    def test_ndsort_merge_is_bit_identical_to_heapq_merge(self, left, right):
        """Concatenate-and-sort is the same stable merge ``heapq.merge``
        performs: ties (``-0.0 == 0.0``, duplicates) keep left before
        right, so not one bit of any window result may move."""
        before = bits(left), bits(right)
        merged = merge_partials(OperatorKind.NON_DECOMPOSABLE_SORT, left, right)
        assert bits(merged) == bits(list(heapq.merge(left, right)))
        assert (bits(left), bits(right)) == before
        if left and right:
            assert merged is not left and merged is not right


class TestOperatorSetState:
    def test_insert_touches_every_operator_once(self):
        kinds = (OperatorKind.SUM, OperatorKind.COUNT)
        state = OperatorSetState(kinds)
        state.insert(2.0)
        state.insert(4.0)
        parts = state.partials()
        assert parts[OperatorKind.SUM] == 6.0
        assert parts[OperatorKind.COUNT] == 2
        assert state.calculations == 4  # 2 inserts x 2 operators

    def test_empty_set(self):
        state = OperatorSetState(())
        state.insert(1.0)
        assert state.partials() == {}
        assert state.calculations == 0
