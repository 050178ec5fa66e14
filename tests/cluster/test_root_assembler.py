"""Direct unit tests for the root's window assembly from slice records."""

from __future__ import annotations

import random

import pytest

from repro.core.analyzer import analyze
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, OperatorKind, WindowMeasure
from repro.cluster.config import ClusterConfig
from repro.cluster.root import RootAssembler, derive_ops_from_timed
from repro.network.messages import ContextPartial, SliceRecord

K = OperatorKind


def assembler_for(*queries):
    plan = analyze(queries, decentralized=True)
    (group,) = plan.groups
    emitted = []

    def emit(query, start, end, ops, count, now):
        emitted.append((query.query_id, start, end, dict(ops), count))

    return (
        RootAssembler(group, origin=0, emit=emit, config=ClusterConfig()),
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
        assembler.consume(4_000, records, now=4_000)
        assert len(assembler.records) == 0


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
        assert emitted == [("s", 100, 550, {K.SUM: 3.0, K.COUNT: 2}, 2)]

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
        assert emitted == [("s", 900, 1_200, {K.SUM: 1.0, K.COUNT: 1}, 1)]

    def test_missing_span_is_an_error(self):
        from repro.core.errors import ClusterError

        assembler, _ = assembler_for(self.query())
        with pytest.raises(ClusterError):
            assembler.consume(
                1_000, [rec(0, 1_000, total=1.0, count=1)], now=1_000
            )


class TestTimedDerivation:
    def test_derive_ops_from_timed(self):
        record = rec(0, 100, timed=[(10, 4.0), (20, 2.0)], count=2)
        derive_ops_from_timed(record, (K.SUM, K.COUNT, K.NON_DECOMPOSABLE_SORT))
        part = record.contexts[0]
        assert part.ops[K.SUM] == 6.0
        assert part.ops[K.COUNT] == 2
        assert part.ops[K.NON_DECOMPOSABLE_SORT] == [2.0, 4.0]
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


def checked(assembler):
    """Hold every incremental sliding close to the plain interval fold
    over the same records; returns the list of closes seen."""
    inner = assembler._merge_fixed_window
    closes = []

    def merge(state, start, end):
        got = inner(state, start, end)
        if state.slide < state.length:
            assert state.agg is not None  # the tracker did go incremental
            closes.append((state.query.query_id, start, end))
        assert got == assembler._merge_interval(
            start, end, state.ctx, state.kinds
        )
        return got

    assembler._merge_fixed_window = merge
    return closes


class TestUnalignedRecords:
    """Sliding trackers stay on the Two-Stacks path beside data-driven
    windows.  Children's session, marker and count cuts make records
    overlap and arrive out of *start* order — but every child still cuts at
    every fixed punctuation and the merger releases in ``(end, start)``
    order, so the records below any window start are a prefix of what was
    pushed, which is all eviction needs."""

    def test_records_out_of_start_order(self):
        assembler, emitted = assembler_for(
            Query.of("q", WindowSpec.sliding(200, 100), AggFunction.SUM),
            Query.of("s", WindowSpec.session(5_000), AggFunction.COUNT),
        )
        closes = checked(assembler)
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
        for covered in (100, 250, 300, 400):
            batch = [r for r in records if r.end <= covered]
            records = records[len(batch):]
            assembler.consume(covered, batch, now=covered)
        assert closes == [("q", 0, 200), ("q", 100, 300), ("q", 200, 400)]
        for _, start, end, ops, count in emitted:
            inside = sum(
                bit for bit, (s, e) in by_bit.items() if start <= s and e <= end
            )
            assert (ops[K.SUM], count) == (inside, bin(int(inside)).count("1"))
        assert assembler.fixed[0].agg is not None

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
        emitted = []
        assembler = RootAssembler(
            group, origin=0, config=ClusterConfig(),
            emit=lambda query, start, end, ops, count, now: emitted.append(
                (query.query_id, start, end)
            ),
        )
        closes = checked(assembler)
        horizon = 2_000
        records = []
        for _ in range(3):
            cuts = sorted(
                set(range(0, horizon + 1, 100))
                | {rng.randrange(1, horizon) for _ in range(25)}
            )
            for start, end in zip(cuts, cuts[1:]):
                times = sorted(
                    rng.sample(range(start, end), min(end - start, rng.randint(0, 3)))
                )
                record = SliceRecord(start=start, end=end, contexts={}, userdef_eps=[])
                if times:
                    record.contexts[0] = ContextPartial(
                        count=len(times),
                        timed=[(t, float(rng.randint(1, 9))) for t in times],
                    )
                    derive_ops_from_timed(record, group.operators)
                    if rng.random() < 0.2:
                        record.userdef_eps.append(("usr", times[-1]))
                records.append(record)
        records.sort(key=lambda r: (r.end, r.start))
        starts = [r.start for r in records]
        assert starts != sorted(starts)
        covered = 0
        while covered < horizon:
            covered = min(covered + rng.randint(1, 260), horizon)
            batch = [r for r in records if r.end <= covered]
            records = records[len(batch):]
            assembler.consume(covered, batch, now=covered)
        assembler.finish(horizon)
        assert len(closes) > 25
        assert {"avg", "max", "tum", "ses", "usr", "cnt"} == {e[0] for e in emitted}
        assert all(state.agg is not None for state in assembler.fixed[:2])
        assert assembler.fixed[2].agg is None  # tumbling: plain scan
