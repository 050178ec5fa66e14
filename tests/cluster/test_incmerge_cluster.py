"""Cluster-level Two-Stacks parity and root merge-op accounting.

Same-seed runs of one workload, once as deployed and once with every
window closed by the plain scan (``tests.conftest.plain_scan``, the
test-side reference), must emit the same windows (values within 1e-9,
everything else identical), while the Two-Stacks close does strictly less
merge work at the root on overlapping sliding windows (what
``root_merge_ops`` counts is spelled out on ``ClusterRunResult``) — the
cluster half of the contract tested per-engine in
``tests/core/test_incmerge_parity.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterConfig,
    DesisCluster,
    InMemoryCheckpointStore,
)
from repro.core.analyzer import analyze
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure
from repro.network.simnet import CrashWindow, FaultPlan
from repro.network.topology import star, three_tier

from tests.cluster.test_desis_parity import (
    TICK,
    centralized_reference,
    make_streams,
    signature,
)
from tests.conftest import plain_scan

SLIDING = [
    # 8x overlap: every root window close covers 8 slide intervals
    Query.of("sum", WindowSpec.sliding(4_000, 500), AggFunction.SUM),
    Query.of("avg", WindowSpec.sliding(4_000, 500), AggFunction.AVERAGE),
]


def run(queries, streams, topology, *, plain=False, **cfg):
    """One deployment run; ``plain`` closes every window by the plain
    scan instead of as deployed."""
    cfg.setdefault("tick_interval", TICK)
    cluster = DesisCluster(queries, topology, config=ClusterConfig(**cfg))
    streams = {k: list(v) for k, v in streams.items()}
    if plain:
        with plain_scan():
            return cluster.run(streams)
    return cluster.run(streams)


def assert_same_windows(left, right):
    """Same windows in the same order: floats within 1e-9, everything
    else identical — the Two-Stacks contract."""
    assert len(left.sink) == len(right.sink)
    for a, b in zip(left.sink, right.sink):
        assert (a.query_id, a.start, a.end, a.event_count) == (
            b.query_id, b.start, b.end, b.event_count
        )
        if isinstance(a.value, float):
            assert a.value == pytest.approx(b.value, rel=1e-9, abs=1e-9)
        else:
            assert a.value == b.value


def exact_rows(result):
    """Full-precision rows (no rounding): byte-identity comparisons."""
    return [
        (r.query_id, r.start, r.end, r.event_count, repr(r.value))
        for r in result.sink
    ]


class TestModeParity:
    def test_same_seed_sliding_parity(self):
        streams = make_streams(3, 400)
        plain = run(SLIDING, streams, three_tier(3, 1), plain=True)
        inc = run(SLIDING, streams, three_tier(3, 1))
        assert signature(plain.sink) == signature(inc.sink)
        # Both agree with the centralized engine on the merged stream.
        assert signature(inc.sink) == signature(
            centralized_reference(SLIDING, streams)
        )

    def test_root_merge_ops_reduced_on_overlap(self):
        """``root_merge_ops`` = folds + scanned partials + Two-Stacks
        merges.  No session in the group, so records arrive merged and
        nothing folds; the two queries share one tracker of kinds (SUM,
        COUNT).  The plain scan reads a full window's 8 cells for both
        kinds at every close (16), Two-Stacks pays at most push + flip +
        query per cell and kind (6): 2.67x at steady state, a little more
        here because the first and last windows are partly empty."""
        streams = make_streams(4, 1_500)
        plain = run(SLIDING, streams, star(4), plain=True)
        inc = run(SLIDING, streams, star(4))
        assert len(plain.sink.for_query("sum")) >= 30
        assert 0 < inc.root_merge_ops * 2.5 <= plain.root_merge_ops

    def test_tumbling_root_work_is_identical(self):
        """Zero-regression guard: tumbling windows share no records, so
        the root closes them by the plain scan itself."""
        queries = [Query.of("q", WindowSpec.tumbling(1_000), AggFunction.SUM)]
        streams = make_streams(3, 300)
        plain = run(queries, streams, three_tier(3, 1), plain=True)
        inc = run(queries, streams, three_tier(3, 1))
        assert exact_rows(plain) == exact_rows(inc)
        assert plain.root_merge_ops == inc.root_merge_ops

    def test_exact_mode_is_deterministic(self):
        """Two runs are byte-identical, deployed or closed by the plain
        scan — what lets every parity check here compare one run of each."""
        streams = make_streams(3, 300)
        for plain in (True, False):
            first = run(SLIDING, streams, three_tier(3, 1), plain=plain)
            second = run(SLIDING, streams, three_tier(3, 1), plain=plain)
            assert exact_rows(first) == exact_rows(second)

    def test_mixed_group_with_sessions_stays_correct(self):
        """A session query in the group no longer sends its sliding
        trackers back to the full fold: the root decides per tracker, the
        session's own (unmerged, unaligned) records notwithstanding."""
        queries = SLIDING + [
            Query.of("sess", WindowSpec.session(gap=300), AggFunction.COUNT),
        ]
        assert len(analyze(queries, decentralized=True).groups) == 1
        streams = make_streams(3, 1_500, gap_every=60)
        plain = run(queries, streams, three_tier(3, 1), plain=True)
        inc = run(queries, streams, three_tier(3, 1))
        assert_same_windows(plain, inc)
        assert len(inc.sink.for_query("sess")) > 1
        # The session keeps the children's records apart on the way up, so
        # both runs first pay the same folds into cells; the scans of the
        # 8x-overlapping windows still dominate the plain-scan total.
        assert inc.root_merge_ops * 2 <= plain.root_merge_ops


#: what shares the sliding trackers' deployment, and the streams that make
#: its data-driven cuts happen
MIXES = {
    "session": (
        [Query.of("x", WindowSpec.session(gap=300), AggFunction.MAX)],
        dict(gap_every=45),
    ),
    "userdef": (
        [Query.of("x", WindowSpec.user_defined(end_marker="end"),
                  AggFunction.SUM)],
        dict(marker_every=37),
    ),
    "count": (
        [Query.of("x", WindowSpec.sliding(40, 10, measure=WindowMeasure.COUNT),
                  AggFunction.SUM)],
        {},
    ),
}


class TestMixedGroups:
    """Sliding trackers stay incremental whatever shares their group."""

    @pytest.mark.parametrize("topology", [three_tier(3, 1), star(4)],
                             ids=["three_tier", "star"])
    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_parity_and_less_root_work(self, mix, topology):
        extra, stream_kw = MIXES[mix]
        queries = SLIDING + extra
        groups = analyze(queries, decentralized=True).groups
        # sessions and marker windows share the sliding queries' group;
        # the analyzer always roots count windows in a group of their own
        # (TestUnalignedRecords covers one assembler holding both)
        assert len(groups) == (2 if mix == "count" else 1)
        streams = make_streams(len(topology.locals_()), 400, **stream_kw)
        plain = run(queries, streams, topology, plain=True)
        inc = run(queries, streams, topology)
        assert_same_windows(plain, inc)
        assert len(inc.sink.for_query("x")) > 1
        assert 0 < inc.root_merge_ops < plain.root_merge_ops

    def test_root_crash_restores_in_a_mixed_group(self):
        """Checkpoints carry no Two-Stacks state: after a state-losing
        root crash each sliding tracker rebuilds its aggregate from the
        restored records, interleaved session records included."""
        queries = SLIDING + MIXES["session"][0]
        streams = make_streams(3, 1500, gap_every=200)
        fault_free = run(queries, streams, three_tier(3, 1))
        crashed = {
            plain: run(
                queries,
                streams,
                three_tier(3, 1),
                plain=plain,
                fault_plan=FaultPlan(
                    seed=1,
                    crashes=(CrashWindow("root", 9_000, 13_000, lose_state=True),),
                ),
                checkpoint_store=InMemoryCheckpointStore(),
                checkpoint_interval=3_000,
                node_timeout=10**9,
            )
            for plain in (True, False)
        }
        assert crashed[False].recoveries == 1
        assert signature(crashed[False].sink) == signature(fault_free.sink)
        assert_same_windows(crashed[True], crashed[False])
        assert crashed[False].root_merge_ops < crashed[True].root_merge_ops

    def test_shedding_in_a_mixed_group_accounts_the_same(self):
        """Shed records are simply absent from a tracker's push order, so
        overload control degrades the same windows by the same coverage
        as under the plain scan."""
        queries = SLIDING + MIXES["session"][0]
        streams = make_streams(2, 1500, gap_every=150)
        runs = {
            plain: run(
                queries,
                streams,
                three_tier(2, 2),
                plain=plain,
                fault_plan=FaultPlan(seed=7),
                node_timeout=10**9,
                channel_credit_bytes=1_500,
                channel_credit_frames=6,
                staging_limit=8,
                latency_ms=20.0,
                bandwidth_bytes_per_ms=0.2,
            )
            for plain in (True, False)
        }
        plain, inc = runs[True], runs[False]
        assert inc.slices_shed > 0 and inc.degraded_windows > 0
        assert (inc.slices_shed, inc.degraded_windows, inc.peak_staging) == (
            plain.slices_shed, plain.degraded_windows, plain.peak_staging
        )
        assert [
            (r.query_id, r.start, r.end, r.shed_slices, r.completeness)
            for r in inc.sink
        ] == [
            (r.query_id, r.start, r.end, r.shed_slices, r.completeness)
            for r in plain.sink
        ]
        assert_same_windows(plain, inc)
        assert inc.root_merge_ops < plain.root_merge_ops


class TestModeParityUnderFaults:
    def test_same_seed_parity_with_drops(self):
        """The window close never touches what goes over the wire, so a
        faulty same-seed run sees identical traffic either way."""
        plan = lambda: FaultPlan(seed=3, drop_rate=0.05, duplicate_rate=0.02)
        streams = make_streams(3, 250)
        plain = run(
            SLIDING, streams, three_tier(3, 1), plain=True, fault_plan=plan()
        )
        inc = run(SLIDING, streams, three_tier(3, 1), fault_plan=plan())
        assert signature(plain.sink) == signature(inc.sink)

    def test_root_crash_recovery_keeps_parity(self):
        """A state-losing root crash restores from checkpoint; the
        Two-Stacks aggregates are derived caches that must rebuild
        cleanly (restore resets them), so the recovered run matches the
        fault-free one."""
        streams = make_streams(3, 1500)
        fault_free = run(SLIDING, streams, three_tier(3, 1))
        plan = FaultPlan(
            seed=1,
            crashes=(CrashWindow("root", 9_000, 13_000, lose_state=True),),
        )
        crashed = run(
            SLIDING,
            streams,
            three_tier(3, 1),
            fault_plan=plan,
            checkpoint_store=InMemoryCheckpointStore(),
            checkpoint_interval=3_000,
            node_timeout=10**9,
        )
        assert signature(crashed.sink) == signature(fault_free.sink)
        assert crashed.root_merge_ops > 0
