"""Direct unit tests for the root's window assembly from slice records."""

from __future__ import annotations

import bisect
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.oracle import tolerance_for, values_match
from repro.core.analyzer import analyze
from repro.core.engine import required_kinds
from repro.core.errors import ClusterError
from repro.core.functions import FunctionSpec, finalize
from repro.core.operators import SortedRuns, merge_many_partials
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, OperatorKind, WindowMeasure, WindowType
from repro.cluster.root import RootAssembler, derive_ops_from_timed
from repro.network.messages import ContextPartial, SliceRecord
from repro.obs.tracing import TraceRecorder

K = OperatorKind


def assembler_for(*queries):
    plan = analyze(queries, decentralized=True)
    (group,) = plan.groups
    emitted = []

    def emit(query, start, end, ops, count, now):
        emitted.append((query.query_id, start, end, dict(ops), count))

    return (
        RootAssembler(group, origin=0, emit=emit),
        emitted,
    )


def rec(start, end, *, total=None, count=0, span=None, values=None, timed=None,
        eps=()):
    ops = {}
    if total is not None:
        ops = {K.SUM: total, K.COUNT: count}
    if values is not None:
        ops[K.NON_DECOMPOSABLE_SORT] = values
    return SliceRecord(
        start=start,
        end=end,
        contexts={
            0: ContextPartial(count=count, ops=ops, span=span, timed=timed)
        },
        userdef_eps=list(eps),
    )


class TestFixedAssembly:
    def test_window_closes_when_covered(self):
        assembler, emitted = assembler_for(
            Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)
        )
        assembler.consume(500, [rec(0, 500, total=3.0, count=2)], now=500)
        assert emitted == []  # window [0,1000) not covered yet
        assembler.consume(1_000, [rec(500, 1_000, total=4.0, count=1)], now=1_000)
        # Only the query's required operators are merged (SUM for a sum
        # query), even though the records also shipped COUNT.
        assert emitted == [("q", 0, 1_000, {K.SUM: 7.0}, 3)]

    def test_sliding_windows_reuse_records(self):
        assembler, emitted = assembler_for(
            Query.of("q", WindowSpec.sliding(1_000, 500), AggFunction.SUM)
        )
        records = [
            rec(0, 500, total=1.0, count=1),
            rec(500, 1_000, total=2.0, count=1),
            rec(1_000, 1_500, total=4.0, count=1),
        ]
        assembler.consume(1_500, records, now=1_500)
        sums = [(start, ops[K.SUM]) for _, start, _, ops, _ in emitted]
        assert sums == [(0, 3.0), (500, 6.0)]

    def test_empty_windows_not_emitted(self):
        assembler, emitted = assembler_for(
            Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)
        )
        assembler.consume(3_000, [rec(2_000, 2_500, total=1.0, count=1)], now=3_000)
        assert [e[1] for e in emitted] == [2_000]

    def test_gc_drops_consumed_records(self):
        assembler, _ = assembler_for(
            Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)
        )
        records = [rec(i * 500, (i + 1) * 500, total=1.0, count=1) for i in range(8)]
        assembler.consume(3_500, records[:7], now=3_500)
        assert len(assembler.cells) == 1  # [3000, 3500): its window is open
        assembler.consume(4_000, records[7:], now=4_000)
        assert len(assembler.cells) == 0
        assert assembler.cell_records() == []  # nothing left to checkpoint

    def test_straddling_record_is_an_error(self):
        """A record across a fixed punctuation would lose its events to
        neither window; every node cuts there, so it is a protocol bug."""
        assembler, _ = assembler_for(
            Query.of("q", WindowSpec.sliding(250, 100), AggFunction.SUM)
        )
        assembler.consume(250, [rec(200, 250, total=1.0, count=1)], now=250)
        with pytest.raises(ClusterError) as error:
            # 350 = 0 + 250 + 100 is a window end; ends start at 250, so
            # [100, 200) above holds no punctuation at 150
            assembler.consume(400, [rec(300, 400, total=1.0, count=1)], now=400)
        message = str(error.value)
        assert "[300..400)" in message and "[300..350)" in message
        assert f"group {assembler.group.group_id}" in message

    def test_window_ends_only_exist_from_the_first_window_on(self):
        assembler, emitted = assembler_for(
            Query.of("q", WindowSpec.sliding(250, 100), AggFunction.SUM)
        )
        # 50 and 150 are no punctuations: the first window ends at 250
        assembler.consume(200, [rec(0, 100, total=1.0, count=1),
                                rec(100, 200, total=2.0, count=1)], now=200)
        assembler.consume(250, [rec(200, 250, total=4.0, count=1)], now=250)
        assert emitted == [("q", 0, 250, {K.SUM: 7.0}, 3)]


class TestSessionAssembly:
    def query(self):
        return Query.of("s", WindowSpec.session(300), AggFunction.SUM)

    def test_spans_within_gap_cluster(self):
        assembler, emitted = assembler_for(self.query())
        assembler.consume(
            1_000,
            [
                rec(0, 1_000, total=1.0, count=1, span=(100, 100)),
                rec(0, 1_000, total=2.0, count=1, span=(250, 250)),
            ],
            now=1_000,
        )
        # The session merges its query's operators only (SUM), not the
        # COUNT the records also shipped.
        assert emitted == [("s", 100, 550, {K.SUM: 3.0}, 2)]

    def test_spans_beyond_gap_split(self):
        assembler, emitted = assembler_for(self.query())
        assembler.consume(
            2_000,
            [
                rec(0, 1_000, total=1.0, count=1, span=(100, 100)),
                rec(1_000, 2_000, total=2.0, count=1, span=(1_500, 1_500)),
            ],
            now=2_000,
        )
        assert [(e[1], e[2]) for e in emitted] == [(100, 400), (1_500, 1_800)]

    def test_session_stays_open_until_gap_covered(self):
        assembler, emitted = assembler_for(self.query())
        assembler.consume(
            1_000, [rec(0, 1_000, total=1.0, count=1, span=(900, 900))], now=1_000
        )
        assert emitted == []  # gap not yet covered (900 + 300 > 1000)
        assembler.consume(2_000, [], now=2_000)
        assert emitted == [("s", 900, 1_200, {K.SUM: 1.0}, 1)]

    def test_missing_span_is_an_error(self):
        from repro.core.errors import ClusterError

        assembler, _ = assembler_for(self.query())
        with pytest.raises(ClusterError):
            assembler.consume(
                1_000, [rec(0, 1_000, total=1.0, count=1)], now=1_000
            )


class TestUserDefAssembly:
    @staticmethod
    def assembler():
        (group,) = analyze(
            [Query.of("u", WindowSpec.user_defined(end_marker="end"),
                      AggFunction.SUM)],
            decentralized=True,
        ).groups
        rows = []

        def emit(query, start, end, ops, count, now, shed_slices=(),
                 completeness=1.0):
            rows.append((start, end, ops.get(K.SUM), count, completeness))

        return RootAssembler(group, origin=0, emit=emit), rows

    def test_records_join_the_trip_their_marker_closes(self):
        """A record ending at ``marker + 1`` carries the marker event and
        belongs to the trip it ends; one ending later opens the next."""
        assembler, rows = self.assembler()
        assembler.consume(150, [rec(0, 100, total=1.0, count=1)], now=150)
        assembler.consume(
            300,
            [rec(100, 201, total=2.0, count=1, eps=[("u", 200)]),
             rec(201, 300, total=4.0, count=1)],
            now=300,
        )
        assert rows == [(0, 200, 3.0, 2, 1.0)]
        assembler.finish(300)
        assert rows[1:] == [(200, 300, 4.0, 1, 1.0)]

    def test_a_shed_trip_closes_degraded_at_its_marker(self):
        assembler, rows = self.assembler()
        assembler.note_shed([("local-0", 0, 500)])
        assembler.consume(600, [rec(400, 501, eps=[("u", 500)])], now=600)
        assert rows == [(0, 500, None, 0, 0.0)]

    def test_a_fully_shed_final_trip_closes_degraded(self):
        """The end of stream closes a trip by the same rule as a marker:
        shedding that starved it is reported, not swallowed."""
        assembler, rows = self.assembler()
        assembler.note_shed([("local-0", 0, 700)])
        assembler.consume(700, [], now=700)
        assembler.finish(700)
        assert rows == [(0, 700, None, 0, 0.0)]


class TestSortedRanks:
    """A MEDIAN window of three large sorted runs — a trip, or a fixed
    window over three cells — reads its ranks off them."""

    WINDOWS = {
        "trip": [WindowSpec.user_defined(end_marker="end")],
        # a 100 ms MEDIAN beside it cuts the 300 ms window into three cells
        "fixed": [WindowSpec.tumbling(300), WindowSpec.tumbling(100)],
    }

    @classmethod
    def close(cls, window, runs):
        queries = [
            Query.of(f"m{i}", spec, AggFunction.MEDIAN)
            for i, spec in enumerate(cls.WINDOWS[window])
        ]
        (group,) = analyze(queries, decentralized=True).groups
        rows = []

        def emit(query, start, end, ops, count, now):
            if query.query_id == "m0":
                rows.append((ops[K.NON_DECOMPOSABLE_SORT], finalize(query.function, ops)))

        assembler = RootAssembler(group, origin=0, emit=emit)
        records = [
            rec(100 * i, 100 * i + 100, values=run, count=len(run))
            for i, run in enumerate(runs)
        ]
        records[-1].userdef_eps.append(("m0", 299))
        assembler.consume(400, records, now=400)
        (row,) = rows
        return row

    @staticmethod
    def runs(seed):
        rng = random.Random(seed)
        ties = [-0.0, 0.0, 1.0, -2.5, 5e-324]
        return [sorted(rng.choice(ties) for _ in range(700)) for _ in range(3)]

    @pytest.mark.parametrize("window", list(WINDOWS))
    def test_a_window_reads_the_merged_lists_ranks(self, window):
        for seed in range(4):
            runs = self.runs(seed)
            merged = merge_many_partials(K.NON_DECOMPOSABLE_SORT, runs)
            values, median = self.close(window, runs)
            assert type(values) is SortedRuns
            expected = finalize(
                FunctionSpec(AggFunction.MEDIAN), {K.NON_DECOMPOSABLE_SORT: merged}
            )
            assert repr(median) == repr(expected)
            assert values[len(merged) // 2] is merged[len(merged) // 2]


class TestTimedDerivation:
    def test_derive_ops_from_timed(self):
        record = rec(0, 100, timed=[(10, 4.0), (20, 2.0)], count=2)
        derive_ops_from_timed(
            record,
            (K.SUM, K.COUNT, K.NON_DECOMPOSABLE_SORT, K.SUM_OF_SQUARES),
        )
        part = record.contexts[0]
        assert part.ops[K.SUM] == 6.0
        assert part.ops[K.COUNT] == 2
        assert part.ops[K.NON_DECOMPOSABLE_SORT] == [2.0, 4.0]
        assert part.ops[K.SUM_OF_SQUARES] == 20.0
        assert part.span == (10, 20)

    def test_count_window_replay(self):
        assembler, emitted = assembler_for(
            Query.of(
                "c",
                WindowSpec.tumbling(3, measure=WindowMeasure.COUNT),
                AggFunction.SUM,
            )
        )
        record = rec(0, 1_000, timed=[(10, 1.0), (20, 2.0), (30, 4.0), (40, 8.0)],
                     count=4)
        assembler.consume(1_000, [record], now=1_000)
        assert [(e[1], e[2], e[4]) for e in emitted] == [(10, 30, 3)]
        assembler.finish(2_000)
        # The partial fourth-event window flushes at finish.
        assert emitted[-1][4] == 1

    def test_count_replay_keeps_each_run_in_time_order(self):
        """A run of ``(time, value)`` pairs is ordered by time alone: the
        replay must not sort one timestamp's values, which one stable
        sort of the pairs would (1.0 before 3.0 here)."""
        assembler, emitted = assembler_for(
            Query.of(
                "c",
                WindowSpec.tumbling(2, measure=WindowMeasure.COUNT),
                AggFunction.MAX,
            )
        )
        records = [
            rec(0, 1_000, timed=[(5, 3.0), (5, 1.0)], count=2),
            rec(0, 1_000, timed=[(5, 2.0)], count=1),
        ]
        assembler.consume(1_000, records, now=1_000)
        assembler.finish(2_000)
        assert emitted == [
            ("c", 5, 5, {K.DECOMPOSABLE_SORT: (2.0, 3.0)}, 2),
            ("c", 5, 1_000, {K.DECOMPOSABLE_SORT: (1.0, 1.0)}, 1),
        ]


class RecordScan:
    """The reference: fixed-window assembly by scanning the raw records
    once per query and window — how the root worked before it folded
    records into cells, kept here verbatim (``_merge_interval``, the
    per-query close loop, the clipped closes at end of stream)."""

    def __init__(self, group, origin):
        self.records, self.ends, self.covered = [], [], origin
        self.rows = {}
        self.states = [
            [query, group.context_of[query.query_id],
             required_kinds(query, group.operators), origin]
            for query in group.queries
            if query.window.measure is not WindowMeasure.COUNT
            and query.window.window_type in (WindowType.TUMBLING, WindowType.SLIDING)
        ]

    def _merge_interval(self, start, end, ctx, kinds):
        collected = {kind: [] for kind in kinds}
        count = 0
        index = bisect.bisect_right(self.ends, start)
        while index < len(self.records) and self.ends[index] <= end:
            record = self.records[index]
            index += 1
            if record.start < start:
                continue
            part = record.contexts.get(ctx)
            if part is None:
                continue
            count += part.count
            for kind, bucket in collected.items():
                if kind in part.ops:
                    bucket.append(part.ops[kind])
        merged = {}
        for kind, bucket in collected.items():
            if bucket:
                merged[kind] = merge_many_partials(kind, bucket)
        return merged, count

    def consume(self, covered, records):
        self.records.extend(records)
        self.ends.extend(record.end for record in records)
        self.covered = covered
        self._close(final=False)

    def _close(self, final):
        for state in self.states:
            query, ctx, kinds, start = state
            length, slide = query.window.length, query.window.effective_slide
            while (start < self.covered) if final else (start + length <= self.covered):
                merged, count = self._merge_interval(
                    start, min(start + length, self.covered), ctx, kinds
                )
                if count:
                    self.rows[query.query_id, start, start + length] = (merged, count)
                start += slide
            state[3] = start

    def finish(self):
        self._close(final=True)


#: (length, slide) of the fixed windows a drawn group mixes: tumbling
#: chains, sliding windows whose ends fall off their starts
#: (``length % slide != 0``), and two slides that close the same
#: ``[start, end)`` (400/100 and 400/200)
WINDOWS = [
    (50, 50), (100, 100), (200, 200), (500, 500),
    (400, 100), (400, 200), (250, 100), (130, 50), (450, 200), (300, 150),
]
FUNCTIONS = [
    AggFunction.SUM, AggFunction.AVERAGE, AggFunction.COUNT,
    AggFunction.MAX, AggFunction.MIN, AggFunction.MEDIAN,
]
#: data-driven windows sharing the group: they make children cut where
#: no fixed punctuation lies, and keep the root's other feeds running
EXTRAS = {
    "session": Query.of("ses", WindowSpec.session(60), AggFunction.SUM),
    "marker": Query.of("usr", WindowSpec.user_defined(end_marker="end"),
                       AggFunction.COUNT),
    "count": Query.of("cnt", WindowSpec.sliding(7, 3, measure=WindowMeasure.COUNT),
                      AggFunction.SUM),
}


def fixed_punctuations(queries, origin, horizon):
    """Window starts, and ends from the first window's on."""
    puncts = {origin, horizon}
    for query in queries:
        window = query.window
        if window.measure is WindowMeasure.COUNT or window.length is None:
            continue
        slide = window.effective_slide
        puncts.update(range(origin, horizon, slide))
        puncts.update(range(origin + window.length, horizon, slide))
    return puncts


def child_events(rng, origin, horizon):
    """One child's stream: sorted ``(time, value, is_marker)``."""
    times = sorted(rng.sample(range(origin, horizon), (horizon - origin) // 40))
    return [(t, rng.uniform(-100.0, 100.0), rng.random() < 0.1) for t in times]


def cut_records(group, events, cuts):
    """Slice ``events`` at ``cuts`` into one child's records (empty ones
    included: they carry coverage)."""
    cuts = sorted(cuts)
    times = [time for time, _, _ in events]
    for start, end in zip(cuts, cuts[1:]):
        inside = events[bisect.bisect_left(times, start):bisect.bisect_left(times, end)]
        record = SliceRecord(start=start, end=end)
        if inside:
            record.contexts[0] = ContextPartial(
                count=len(inside), timed=[(t, value) for t, value, _ in inside]
            )
            derive_ops_from_timed(record, group.operators)
            record.userdef_eps.extend(("usr", t) for t, _, marker in inside if marker)
        yield record


def child_records(rng, group, puncts, origin, horizon, extra_cuts):
    """One child's slice records: cut at every fixed punctuation and at
    ``extra_cuts`` random times of its own (session/marker/count cuts)."""
    cuts = puncts | {rng.randrange(origin + 1, horizon) for _ in range(extra_cuts)}
    return cut_records(group, child_events(rng, origin, horizon), cuts)


def batches_of(rng, records, origin, horizon, max_step):
    """Release ``records`` the way a merger does — ``(end, start)`` order,
    everything a coverage step passed — in arbitrary steps."""
    records = sorted(records, key=lambda r: (r.end, r.start))
    covered = origin
    while covered < horizon:
        covered = min(covered + rng.randint(1, max_step), horizon)
        batch = [r for r in records if r.end <= covered]
        records = records[len(batch):]
        yield covered, batch


def run_assembler(group, origin, batches, recorder=None, on_batch=None):
    """Feed ``batches``; returns the fixed rows ``{(qid, start, end): ...}``
    and every emitted query id."""
    rows, seen = {}, set()

    def emit(query, start, end, ops, count, now):
        seen.add(query.query_id)
        if query.window.length is not None and not query.is_count_based:
            assert (query.query_id, start, end) not in rows  # closes once
            rows[query.query_id, start, end] = (dict(ops), count)

    assembler = RootAssembler(group, origin=origin, emit=emit, recorder=recorder)
    for number, (covered, batch) in enumerate(batches):
        if on_batch is not None:
            on_batch(assembler, number)
        assembler.consume(covered, batch, now=covered)
    assembler.finish(covered)
    return assembler, rows, seen


def assert_rows_equal(group, rows, expected):
    """Counts, extrema and sorted values exactly; float folds within the
    re-association allowance every cluster-vs-reference comparison has."""
    assert set(rows) == set(expected)
    queries = {query.query_id: query for query in group.queries}
    for key, (ops, count) in rows.items():
        query = queries[key[0]]
        want_ops, want_count = expected[key]
        assert count == want_count, key
        policy = tolerance_for(query, cross_fold=True)
        assert values_match(
            finalize(query.function, want_ops), finalize(query.function, ops), policy
        ), key


class TestCellsAgainstTheRecordScan:
    """Every fixed window the root emits equals the per-query scan of the
    raw records — whatever mixes with it, however records are cut and
    batched."""

    @settings(max_examples=120, deadline=None)
    @given(
        picks=st.lists(
            st.tuples(st.sampled_from(WINDOWS), st.sampled_from(FUNCTIONS)),
            min_size=1, max_size=5, unique=True,
        ),
        extras=st.sets(st.sampled_from(sorted(EXTRAS))),
        origin=st.sampled_from([0, 300, 1_700]),  # add_query shifts it to a tick
        children=st.integers(1, 8),
        extra_cuts=st.integers(0, 20),
        max_step=st.sampled_from([1, 40, 260, 900]),
        seed=st.integers(0, 2**16),
    )
    def test_random_mixes(self, picks, extras, origin, children, extra_cuts,
                          max_step, seed):
        rng = random.Random(seed)
        queries = [
            Query.of(
                f"q{i}",
                WindowSpec.tumbling(length) if slide == length
                else WindowSpec.sliding(length, slide),
                fn,
            )
            for i, ((length, slide), fn) in enumerate(picks)
        ] + [EXTRAS[name] for name in sorted(extras)]
        # one hand-built group: the decentralized analyzer would root
        # count windows and medians in groups of their own
        (group,) = analyze(queries).groups
        horizon = origin + 1_500
        puncts = fixed_punctuations(queries, origin, horizon)
        records = [
            record
            for _ in range(children)
            for record in child_records(rng, group, puncts, origin, horizon,
                                        extra_cuts)
        ]
        batches = list(batches_of(rng, records, origin, horizon, max_step))
        reference = RecordScan(group, origin)
        for covered, batch in batches:
            reference.consume(covered, batch)
        reference.finish()
        assembler, rows, seen = run_assembler(group, origin, batches)
        assert_rows_equal(group, rows, reference.rows)
        assert {q.query_id for q in queries if q.query_id.startswith("q")} >= {
            key[0] for key in rows
        }
        # one tracker per distinct schedule, not one per query
        assert len(assembler.fixed) == len({window for window, _ in picks})

class TestUnalignedRecords:
    """Children's session, marker and count cuts make records overlap and
    arrive out of *start* order — but every child still cuts at every
    fixed punctuation, so each record folds into one cell, and sliding
    trackers stay on the Two-Stacks path beside data-driven windows."""

    def test_records_out_of_start_order(self):
        queries = [
            Query.of("q", WindowSpec.sliding(200, 100), AggFunction.SUM),
            Query.of("s", WindowSpec.session(5_000), AggFunction.COUNT),
        ]
        (group,) = analyze(queries, decentralized=True).groups
        # children A and B both cut at 100, 200, 300 (the fixed
        # punctuations) and, in between, wherever their own sessions did;
        # one power of two each, so a sum names the records it folded
        intervals = [
            (50, 60), (0, 90), (60, 100), (90, 100),          # B A B A
            (100, 130), (100, 200), (130, 200),               # A B A
            (200, 210), (200, 300), (210, 300),               # B A B
            (300, 400), (350, 400),                           # A B
        ]
        assert intervals == sorted(intervals, key=lambda i: (i[1], i[0]))
        assert intervals != sorted(intervals)  # not in start order
        records = [
            rec(start, end, total=float(2 ** i), count=1, span=(start, start))
            for i, (start, end) in enumerate(intervals)
        ]
        by_bit = {float(2 ** i): iv for i, iv in enumerate(intervals)}
        batches = []
        for covered in (100, 250, 300, 400):
            batch = [r for r in records if r.end <= covered]
            records = records[len(batch):]
            batches.append((covered, batch))
        recorder = TraceRecorder()
        _, rows, _ = run_assembler(group, 0, batches, recorder)
        assert sorted(rows) == [
            ("q", 0, 200), ("q", 100, 300), ("q", 200, 400), ("q", 300, 500),
        ]
        for (_, start, end), (ops, count) in rows.items():
            inside = sum(
                bit for bit, (s, e) in by_bit.items() if start <= s and e <= end
            )
            assert (ops[K.SUM], count) == (inside, bin(int(inside)).count("1"))
        # the tracker did go through the Two-Stacks layer, once per close
        reuses = list(recorder.events("merge.reuse"))
        assert [(e.data["start"], e.data["query_ids"]) for e in reuses] == [
            (0, ["q"]), (100, ["q"]), (200, ["q"]), (300, ["q"]),
        ]
        # 12 records, 4 cells: [0,100) [100,200) [200,300) [300,400)
        consumes = list(recorder.events("root.consume"))
        assert sum(e.data["records"] for e in consumes) == 12
        assert [e.data["cells"] for e in consumes] == [1, 2, 1, 1]

    @pytest.mark.parametrize("seed", range(6))
    def test_every_sliding_close_equals_the_interval_fold(self, seed):
        """Random unaligned records from three children, random coverage
        steps, sliding trackers beside a session, a marker window and —
        in one hand-built group, which the decentralized analyzer never
        forms — a count window."""
        rng = random.Random(seed)
        queries = [
            Query.of("avg", WindowSpec.sliding(400, 100), AggFunction.AVERAGE),
            Query.of("max", WindowSpec.sliding(300, 100), AggFunction.MAX),
            Query.of("tum", WindowSpec.tumbling(200), AggFunction.SUM),
            Query.of("ses", WindowSpec.session(150), AggFunction.SUM),
            Query.of("usr", WindowSpec.user_defined(end_marker="end"),
                     AggFunction.COUNT),
            Query.of("cnt", WindowSpec.sliding(7, 3, measure=WindowMeasure.COUNT),
                     AggFunction.SUM),
        ]
        (group,) = analyze(queries).groups
        horizon = 2_000
        puncts = fixed_punctuations(queries, 0, horizon)
        records = [
            record
            for _ in range(3)
            for record in child_records(rng, group, puncts, 0, horizon, 25)
        ]
        starts = [r.start for r in sorted(records, key=lambda r: (r.end, r.start))]
        assert starts != sorted(starts)
        batches = list(batches_of(rng, records, 0, horizon, 260))
        reference = RecordScan(group, 0)
        for covered, batch in batches:
            reference.consume(covered, batch)
        reference.finish()
        recorder = TraceRecorder()
        _, rows, seen = run_assembler(group, 0, batches, recorder)
        assert_rows_equal(group, rows, reference.rows)
        assert seen == {"avg", "max", "tum", "ses", "usr", "cnt"}
        # the sliding trackers closed incrementally, the tumbling one by
        # the plain scan
        reused = {q for e in recorder.events("merge.reuse") for q in e.data["query_ids"]}
        assert reused == {"avg", "max"}
        assert sum(1 for key in rows if key[0] != "tum") > 25


class TestSharedTrackers:
    PAIR = [
        Query.of("avg", WindowSpec.sliding(400, 100), AggFunction.AVERAGE),
        Query.of("max", WindowSpec.sliding(400, 100), AggFunction.MAX),
        Query.of("tum", WindowSpec.tumbling(50), AggFunction.MAX),
    ]
    HORIZON = 2_000

    def batches(self, group, cut_for, origin=0, horizon=HORIZON):
        """Three children's records between ``origin`` and ``horizon``,
        cut at the punctuations of the queries in ``cut_for``."""
        rng = random.Random(3)
        puncts = {
            p for p in fixed_punctuations(cut_for, 0, self.HORIZON)
            if origin <= p <= horizon
        }
        records = [
            record
            for _ in range(3)
            for record in cut_records(
                group, child_events(rng, 0, self.HORIZON), puncts
            )
        ]
        return list(batches_of(random.Random(4), records, origin, horizon, 130))

    def test_a_window_closes_once_for_all_its_subscribers(self):
        (group,) = analyze(self.PAIR, decentralized=True).groups
        recorder = TraceRecorder()
        assembler, rows, _ = run_assembler(
            group, 0, self.batches(group, self.PAIR), recorder
        )
        assert [t.length for t in assembler.fixed] == [400, 50]
        closes = [e.data["query_ids"] for e in recorder.events("merge.reuse")]
        assert closes and all(ids == ["avg", "max"] for ids in closes)
        assert {k[1:] for k in rows if k[0] == "avg"} == {
            k[1:] for k in rows if k[0] == "max"
        }

    def test_remove_query_of_one_subscriber(self):
        """Removing AVG mid-stream leaves MAX's rows those of a run that
        never had AVG; the tracker, its cells and its Two-Stacks stream
        go with the last subscriber — and with the tracker its
        punctuations, which children then stop cutting at."""
        (group,) = analyze(self.PAIR, decentralized=True).groups
        (alone,) = analyze(self.PAIR[1:2], decentralized=True).groups
        _, expected, _ = run_assembler(
            alone, 0, self.batches(alone, self.PAIR[1:2])
        )
        # up to 1000 children cut at the 50 ms ticks too, then "tum" goes
        early = self.batches(group, self.PAIR, horizon=1_000)
        late = self.batches(group, self.PAIR[:2], origin=1_000)
        assert any(r.end - r.start == 100 for _, batch in late for r in batch)

        def on_batch(assembler, number):
            if number == 10:
                assembler.remove_query("avg")
                assert [[q.query_id for q in t.queries] for t in assembler.fixed] == [
                    ["max"], ["tum"]
                ]
            if number == len(early):
                assert len(assembler.cells) > 4  # 50 ms cells of open windows
                assembler.remove_query("tum")
                assert [t.length for t in assembler.fixed] == [400]
                assert len(assembler.cells) <= 4  # re-folded at 100 ms

        recorder = TraceRecorder()
        assembler, rows, _ = run_assembler(
            group, 0, early + late, recorder, on_batch
        )
        extrema = lambda found: {
            key: (ops[K.DECOMPOSABLE_SORT], count)
            for key, (ops, count) in found.items() if key[0] == "max"
        }
        assert extrema(rows) == extrema(expected)
        assert len(expected) > 15
        assert 0 < sum(1 for k in rows if k[0] == "avg") < 5
        assert max(k[2] for k in rows if k[0] == "tum") == 1_000
        ids = [e.data["query_ids"] for e in recorder.events("merge.reuse")]
        assert ["avg", "max"] in ids and ids[-1] == ["max"]
        assembler.remove_query("max")
        assert assembler.fixed == [] and len(assembler.cells) == 0
