"""Unit and property tests for the shared aggregate operators."""

from __future__ import annotations

import heapq
import math
import struct
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import operators
from repro.core.operators import (
    CountState,
    DecomposableSortState,
    MultiplicationState,
    NonDecomposableSortState,
    PENDING_CAP,
    OperatorSetState,
    SortedRuns,
    SumState,
    _merge_sorted_runs,
    empty_partial,
    make_state,
    merge_many_partials,
    merge_partials,
    read_many_partials,
)
from repro.core.types import OperatorKind

ALL_KINDS = list(OperatorKind)

# No NaN in any merge strategy: NaN is refused where a value enters
# (``repro.core.event``), so no sorted run ever holds one.
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
#: runs of the tie set and ordinary floats
mixed_runs = st.lists(
    st.one_of(
        st.sampled_from(EDGE_FLOATS),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    max_size=40,
).map(sorted)


def bits(values):
    return [struct.pack(">d", value) for value in values]


class TestStates:
    def test_sum(self):
        state = SumState()
        state.insert_many([1.0, 2.5, -0.5])
        assert state.partial() == pytest.approx(3.0)

    def test_count(self):
        state = CountState()
        state.insert_many([9.0, 9.0, 9.0, 1.0])
        assert state.partial() == 4

    def test_multiplication(self):
        state = MultiplicationState()
        state.insert_many([2.0, 3.0, 0.5])
        assert state.partial() == pytest.approx(3.0)

    def test_decomposable_sort_tracks_extrema(self):
        state = DecomposableSortState()
        state.insert_many([5.0, -1.0, 3.0, 7.0])
        assert state.partial() == (-1.0, 7.0)

    def test_decomposable_sort_empty_is_none(self):
        assert DecomposableSortState().partial() is None

    def test_non_decomposable_sort_sorts_lazily(self):
        state = NonDecomposableSortState()
        state.insert_many([3.0, 1.0, 2.0])
        assert state.values == [3.0, 1.0, 2.0]
        assert state.partial() == [1.0, 2.0, 3.0]

    def test_states_have_one_way_in(self):
        for kind in ALL_KINDS:
            assert not hasattr(make_state(kind), "insert")

    def test_make_state_returns_matching_kind(self):
        for kind in ALL_KINDS:
            assert make_state(kind).kind is kind


class TestMerge:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(left=values_lists, right=values_lists)
    def test_merge_equals_combined_insert(self, kind, left, right):
        """Merging two partials equals inserting both value lists into one state."""
        a, b, combined = make_state(kind), make_state(kind), make_state(kind)
        a.insert_many(left)
        combined.insert_many(left)
        b.insert_many(right)
        combined.insert_many(right)
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
        state.insert_many(values)
        part = state.partial()
        assert merge_partials(kind, empty_partial(kind), part) == part
        assert merge_partials(kind, part, empty_partial(kind)) == part

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_merge_many_matches_pairwise(self, kind):
        chunks = [[1.0, 4.0], [2.0], [], [3.0, 0.0]]
        partials = []
        for chunk in chunks:
            state = make_state(kind)
            state.insert_many(chunk)
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

    @given(runs=st.lists(sorted_runs, max_size=64))
    def test_ndsort_k_way_merge_is_a_stable_sort_of_the_runs_in_order(self, runs):
        """The k-way close, 0 to 64 runs (an overlap-64 window): a stable
        ``sorted()`` of the runs concatenated in order, and the k-way
        ``heapq.merge`` of them, bit for bit (an earlier run's ``-0.0``
        or duplicate before a later run's), and no run moves."""
        before = [bits(run) for run in runs]
        merged = merge_many_partials(OperatorKind.NON_DECOMPOSABLE_SORT, runs)
        assert bits(merged) == bits(sorted(v for run in runs for v in run))
        assert bits(merged) == bits(list(heapq.merge(*runs)))
        assert [bits(run) for run in runs] == before

    @given(runs=st.lists(sorted_runs, max_size=64))
    def test_ndsort_left_fold_of_pairs_equals_the_k_way_merge(self, runs):
        """However a window's runs are grouped — pair by pair, as the
        cells and intermediates merge, or all at once at a close — the
        merged run has the same bits."""
        folded = empty_partial(OperatorKind.NON_DECOMPOSABLE_SORT)
        for run in runs:
            folded = merge_partials(OperatorKind.NON_DECOMPOSABLE_SORT, folded, run)
        merged = merge_many_partials(OperatorKind.NON_DECOMPOSABLE_SORT, runs)
        assert bits(folded) == bits(merged)

    @pytest.mark.parametrize("block", [0, operators._BLOCK_PER_RUN])
    @given(runs=st.lists(mixed_runs, max_size=64))
    def test_sorted_runs_item_k_is_the_merged_item_k(self, block, runs):
        """A window's 0 to 64 runs, empty ones included, read by rank:
        item ``k`` of the view — found by a select on a fresh view, or
        off the block of the one before on a view walked in order — and
        item ``-1`` are the very objects the merged list holds, ties in
        run order; ``len``, truth and iteration are the merged list's.
        With no block to sort at the end, the select's rounds alone find
        every item."""
        merged = _merge_sorted_runs(runs)
        live = [run for run in runs if run]

        def view():
            return SortedRuns(live, len(merged))

        with mock.patch.object(operators, "_BLOCK_PER_RUN", block):
            walked = view()
            for k in range(len(merged)):
                assert view()[k] is merged[k]
                assert walked[k] is merged[k]
            if merged:
                assert view()[-1] is merged[-1]
                assert walked[-1] is merged[-1]
            else:
                with pytest.raises(IndexError):
                    view()[-1]
        assert len(view()) == len(merged)
        assert bool(view()) is bool(merged)
        assert bits(list(view())) == bits(merged)

    @given(m=st.integers(0, 64), per_run=st.integers(0, 200), rnd=st.randoms())
    def test_read_many_partials_reads_what_merge_many_partials_merges(
        self, m, per_run, rnd
    ):
        """The close's merge hands out a view of two or more non-empty
        runs, the merged list otherwise, with the same items (``m`` runs
        of ``per_run`` values on average)."""
        runs = [
            sorted(rnd.choice(EDGE_FLOATS) for _ in range(rnd.randint(0, 2 * per_run)))
            for _ in range(m)
        ]
        kind = OperatorKind.NON_DECOMPOSABLE_SORT
        merged = merge_many_partials(kind, runs)
        read = read_many_partials(kind, runs)
        live = sum(1 for run in runs if run)
        assert type(read) is (SortedRuns if live > 1 else list)
        assert bits(list(read)) == bits(merged)
        if merged:
            for k in (0, (len(merged) - 1) // 2, len(merged) // 2, -1):
                assert read[k] is merged[k]


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


# -- the per-value fold, test-side ---------------------------------------------
#
# Each state's ``insert`` as it was before every value went through
# ``insert_many``, verbatim (``self`` is the state): the reference the
# buffered bulk fold must match bit for bit.


def _insert_sum(self, value: float) -> None:
    self.total += value


def _insert_count(self, value: float) -> None:
    self.count += 1


def _insert_multiplication(self, value: float) -> None:
    self.product *= value


def _insert_decomposable_sort(self, value: float) -> None:
    if self.lo is None:
        self.lo = value
        self.hi = value
        return
    if value < self.lo:
        self.lo = value
    elif value > self.hi:  # type: ignore[operator]
        self.hi = value


def _insert_sum_of_squares(self, value: float) -> None:
    self.total += value * value


def _insert_non_decomposable_sort(self, value: float) -> None:
    self.values.append(value)


PER_VALUE_INSERT = {
    OperatorKind.SUM: _insert_sum,
    OperatorKind.COUNT: _insert_count,
    OperatorKind.MULTIPLICATION: _insert_multiplication,
    OperatorKind.DECOMPOSABLE_SORT: _insert_decomposable_sort,
    OperatorKind.SUM_OF_SQUARES: _insert_sum_of_squares,
    OperatorKind.NON_DECOMPOSABLE_SORT: _insert_non_decomposable_sort,
}


def partial_bits(part):
    """A partial with every float as its IEEE-754 bytes (NaN included)."""
    if part is None or isinstance(part, int):
        return part
    if isinstance(part, float):
        return struct.pack(">d", part)
    return tuple(bits(part))


edge_or_nan = st.sampled_from(EDGE_FLOATS + [math.nan])

#: one step of a slice's life: ``n`` single inserts cycling through a
#: pattern (up to two caps' worth, so the buffer fills and folds), a run
#: through ``insert_many``, or a mid-slice read of the partials
steps = st.one_of(
    st.tuples(
        st.just("insert"),
        st.lists(edge_or_nan, min_size=1, max_size=12),
        st.integers(0, 2 * PENDING_CAP + 1),
    ),
    st.tuples(st.just("many"), st.lists(edge_or_nan, max_size=40)),
    st.tuples(st.just("read")),
)


class TestBufferedFoldBitExact:
    """However the values of a slice arrive — one at a time through the
    buffer, in runs, with partials read in between (as ``engine_state``
    reads an open slice) — the partials are the per-value fold's, bit for
    bit, and the buffer never holds a cap's worth."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(schedule=st.lists(steps, max_size=8))
    @example(schedule=[
        ("insert", [1.5, -0.0, math.nan], PENDING_CAP - 1),
        ("read",),
        ("insert", [2.5], 2),
        ("many", [math.inf, 5e-324]),
        ("insert", [-2.5, 0.0], 2 * PENDING_CAP + 1),
        ("read",),
    ])
    def test_any_schedule_folds_like_one_value_at_a_time(self, kind, schedule):
        ops = OperatorSetState((kind,))
        reference = make_state(kind)
        insert = PER_VALUE_INSERT[kind]
        count = 0
        for step in schedule:
            if step[0] == "insert":
                _, pattern, n = step
                for i in range(n):
                    value = pattern[i % len(pattern)]
                    ops.insert(value)
                    insert(reference, value)
                    assert len(ops.pending) < PENDING_CAP
                count += n
            elif step[0] == "many":
                ops.insert_many(step[1])
                for value in step[1]:
                    insert(reference, value)
                assert not ops.pending
                count += len(step[1])
            else:
                assert partial_bits(ops.partials()[kind]) == partial_bits(
                    reference.partial()
                )
                assert not ops.pending
        assert ops.inserts == count
        assert partial_bits(ops.partials()[kind]) == partial_bits(reference.partial())
        assert not ops.pending

    def test_an_empty_set_buffers_no_more_than_a_cap(self):
        ops = OperatorSetState(())
        for _ in range(3 * PENDING_CAP):
            ops.insert(1.0)
            assert len(ops.pending) < PENDING_CAP
        assert ops.partials() == {} and ops.inserts == 3 * PENDING_CAP


#: runs for the extrema fold: the tie set, subnormals and infinities
#: among ordinary floats, one-value runs and empty ones included
extrema_runs = st.lists(
    st.lists(
        st.one_of(
            st.sampled_from(EDGE_FLOATS),
            st.floats(allow_nan=False, allow_subnormal=True),
        ),
        max_size=12,
    ),
    max_size=8,
)


class TestExtremaFold:
    """``DecomposableSortState.insert_many`` folds a run with C ``min()``
    and ``max()`` over the old extremum chained to the run: bit for bit
    the strict-compare loop, one value at a time, whatever the runs."""

    @given(runs=extrema_runs)
    @example(runs=[[0.0], [-0.0, 0.0], [-0.0]])
    @example(runs=[[-0.0, 0.0, -0.0], [0.0], [5e-324, -5e-324]])
    @example(runs=[[math.inf], [-math.inf, math.inf], [], [1.0]])
    @example(runs=[[-math.inf], [math.nan, -2.5]])
    def test_runs_fold_like_the_loop(self, runs):
        state = DecomposableSortState()
        reference = DecomposableSortState()
        for run in runs:
            state.insert_many(run)
            for value in run:
                _insert_decomposable_sort(reference, value)
            assert partial_bits(state.partial()) == partial_bits(reference.partial())

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(values=st.lists(st.sampled_from(EDGE_FLOATS), max_size=20),
           more=st.lists(st.sampled_from(EDGE_FLOATS), max_size=20))
    def test_take_leaves_a_state_as_new(self, kind, values, more):
        """``take`` returns what ``partial`` reads and leaves the state as
        a fresh one, so the next slice may take it over."""
        ops = OperatorSetState((kind,))
        ops.insert_many(values)
        expected = partial_bits(ops.partials()[kind])
        assert partial_bits(ops.take()[kind]) == expected
        assert ops.inserts == 0 and not ops.pending
        fresh = OperatorSetState((kind,))
        for target in (ops, fresh):
            target.insert_many(more)
        assert partial_bits(ops.partials()[kind]) == partial_bits(
            fresh.partials()[kind]
        )
