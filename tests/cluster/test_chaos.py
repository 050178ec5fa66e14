"""Seeded chaos suite: fault injection must not change *what* Desis computes.

The reliable channel (`repro.network.simnet`) turns each lossy directed
link back into an in-order exactly-once stream, so any *recoverable*
:class:`~repro.network.simnet.FaultPlan` — drops, duplicates, reorders,
jitter, crashes short enough that nobody gets evicted — must yield
results byte-identical to the fault-free run, in the same order.  Only
``emitted_at`` (wall-clock of the simulated emission) may move.

Unrecoverable plans degrade *gracefully*: bounded result loss around the
outage, no spurious or duplicated windows, and a clean termination.

Fast representatives of every scenario run in tier-1; the heavier sweeps
carry ``@pytest.mark.chaos`` and are excluded by the default ``-m "not
chaos"`` (see ``pyproject.toml``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ScottyProcessor
from repro.cluster import CentralizedCluster, ClusterConfig, DesisCluster
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure
from repro.network.simnet import CrashWindow, FaultPlan
from repro.network.topology import chain, star, three_tier

from tests.cluster.test_desis_parity import TICK, make_streams

NEVER = 10**9  # node_timeout that disables eviction for pure-link chaos

#: seed-sweep width, overridable from CI (``CHAOS_SEEDS=8`` in the weekly
#: chaos job) without editing the suite
CHAOS_SEEDS = int(os.environ.get("CHAOS_SEEDS", "3"))


def rows(result):
    """Exact result rows, order preserved; only ``emitted_at`` is free."""
    return [
        (r.query_id, r.start, r.end, r.event_count, r.value) for r in result.sink
    ]


def run_desis(queries, topo, streams, **cfg):
    cfg.setdefault("tick_interval", TICK)
    cluster = DesisCluster(queries, topo, config=ClusterConfig(**cfg))
    result = cluster.run({k: list(v) for k, v in streams.items()})
    return cluster, result


QUERY_SETS = {
    "tumbling": [Query.of("t", WindowSpec.tumbling(1_000), AggFunction.SUM)],
    "sliding": [Query.of("s", WindowSpec.sliding(1_500, 500), AggFunction.AVERAGE)],
    "session": [Query.of("g", WindowSpec.session(gap=400), AggFunction.MAX)],
    "count": [
        Query.of(
            "c",
            WindowSpec.tumbling(40, measure=WindowMeasure.COUNT),
            AggFunction.COUNT,
        )
    ],
    "mixed": [
        Query.of("t", WindowSpec.tumbling(1_000), AggFunction.SUM),
        Query.of("s", WindowSpec.sliding(2_000, 500), AggFunction.MIN),
        Query.of("g", WindowSpec.session(gap=300), AggFunction.COUNT),
    ],
}


class TestZeroOverheadDefault:
    """``fault_plan=None`` must be indistinguishable from the seed repo."""

    def test_no_plan_keeps_reliability_counters_zero(self):
        streams = make_streams(3, 300)
        cluster, result = run_desis(QUERY_SETS["mixed"], three_tier(3, 1), streams)
        net = result.network
        assert net.drops == 0
        assert net.duplicates == 0
        assert net.retransmits == 0
        assert net.retransmit_bytes == 0
        assert net.retransmit_exhausted == 0
        assert net.acks == 0
        assert net.ack_bytes == 0
        assert net.dedup_dropped == 0
        assert net.goodput_data_bytes == net.data_bytes
        # The recovery subsystem (DESIGN.md §8) is equally invisible:
        # no store, no retention, no checkpoint/recovery/reroute activity.
        assert cluster.checkpoint_store is None
        assert result.checkpoints == 0
        assert result.recoveries == 0
        assert result.reroutes == 0
        assert result.duplicates_suppressed == 0
        for node in (*cluster.locals.values(), *cluster.intermediates.values()):
            assert node._retain is False
            assert node._retained == []

    def test_zero_rate_plan_matches_no_plan_results(self):
        streams = make_streams(3, 300)
        _, none = run_desis(QUERY_SETS["mixed"], three_tier(3, 1), streams)
        _, zero = run_desis(
            QUERY_SETS["mixed"],
            three_tier(3, 1),
            streams,
            fault_plan=FaultPlan(seed=0),
            node_timeout=NEVER,
        )
        assert rows(zero) == rows(none)

    def test_no_plan_wire_is_strictly_cheaper(self):
        # Enabling reliability adds envelopes + acks even with zero fault
        # rates; the default path must not pay any of that.
        streams = make_streams(3, 300)
        _, none = run_desis(QUERY_SETS["tumbling"], three_tier(3, 1), streams)
        _, zero = run_desis(
            QUERY_SETS["tumbling"],
            three_tier(3, 1),
            streams,
            fault_plan=FaultPlan(seed=0),
            node_timeout=NEVER,
        )
        assert none.network.total_bytes < zero.network.total_bytes


class TestRecoverableParity:
    """Lossy-but-recoverable links: byte-identical results, same order."""

    PLAN = dict(drop_rate=0.05, duplicate_rate=0.03, reorder_rate=0.1, jitter_ms=5.0)

    @pytest.mark.parametrize("kind", sorted(QUERY_SETS))
    def test_parity_per_window_kind(self, kind):
        queries = QUERY_SETS[kind]
        streams = make_streams(3, 300, gap_every=7)
        _, baseline = run_desis(queries, three_tier(3, 1), streams)
        _, faulty = run_desis(
            queries,
            three_tier(3, 1),
            streams,
            fault_plan=FaultPlan(seed=1, **self.PLAN),
            node_timeout=NEVER,
        )
        assert rows(faulty) == rows(baseline)
        assert faulty.network.retransmits > 0 or faulty.network.drops == 0

    @pytest.mark.parametrize("seed", range(CHAOS_SEEDS))
    def test_parity_across_seeds(self, seed):
        streams = make_streams(3, 300, keys=("a", "b"))
        _, baseline = run_desis(QUERY_SETS["mixed"], three_tier(3, 1), streams)
        _, faulty = run_desis(
            QUERY_SETS["mixed"],
            three_tier(3, 1),
            streams,
            fault_plan=FaultPlan(seed=seed, **self.PLAN),
            node_timeout=NEVER,
        )
        assert rows(faulty) == rows(baseline)

    @pytest.mark.parametrize(
        "topo", [star(4), chain(3, 2), three_tier(2, 2)], ids=["star", "chain", "tree"]
    )
    def test_parity_across_topologies(self, topo):
        streams = make_streams(len(topo.locals_()), 240)
        _, baseline = run_desis(QUERY_SETS["tumbling"], topo, streams)
        _, faulty = run_desis(
            QUERY_SETS["tumbling"],
            topo,
            streams,
            fault_plan=FaultPlan(seed=4, **self.PLAN),
            node_timeout=NEVER,
        )
        assert rows(faulty) == rows(baseline)

    def test_same_seed_is_deterministic(self):
        streams = make_streams(3, 300)
        plan = FaultPlan(seed=9, **self.PLAN)
        _, first = run_desis(
            QUERY_SETS["mixed"], three_tier(3, 1), streams,
            fault_plan=plan, node_timeout=NEVER,
        )
        _, second = run_desis(
            QUERY_SETS["mixed"], three_tier(3, 1), streams,
            fault_plan=plan, node_timeout=NEVER,
        )
        assert rows(first) == rows(second)
        assert first.network.drops == second.network.drops
        assert first.network.retransmits == second.network.retransmits
        assert first.network.dedup_dropped == second.network.dedup_dropped


class TestTracedRunParity:
    """``ClusterConfig.trace=True`` must not change what Desis computes —
    with or without a fault plan — it only fills the run's recorder."""

    PLAN = FaultPlan(seed=6, drop_rate=0.05, duplicate_rate=0.03, jitter_ms=4.0)

    def test_traced_rows_identical_fault_free(self):
        streams = make_streams(3, 300)
        _, plain = run_desis(QUERY_SETS["mixed"], three_tier(3, 1), streams)
        _, traced = run_desis(
            QUERY_SETS["mixed"], three_tier(3, 1), streams, trace=True
        )
        assert rows(traced) == rows(plain)
        assert len(traced.recorder) > 0
        assert len(plain.recorder) == 0

    def test_traced_rows_identical_under_chaos(self):
        streams = make_streams(3, 300)
        kw = dict(fault_plan=self.PLAN, node_timeout=NEVER)
        _, plain = run_desis(QUERY_SETS["mixed"], three_tier(3, 1), streams, **kw)
        _, traced = run_desis(
            QUERY_SETS["mixed"], three_tier(3, 1), streams, trace=True, **kw
        )
        assert rows(traced) == rows(plain)
        assert traced.network.retransmits == plain.network.retransmits
        traced_retx = sum(1 for _ in traced.recorder.events("net.retransmit"))
        assert traced_retx == traced.network.retransmits


class _ParityOracle:
    """Fault-free baselines, computed once per window kind."""

    def __init__(self):
        self.cache = {}
        self.streams = make_streams(3, 220, gap_every=9)

    def baseline(self, kind):
        if kind not in self.cache:
            _, result = run_desis(QUERY_SETS[kind], three_tier(3, 1), self.streams)
            self.cache[kind] = rows(result)
        return self.cache[kind]


_ORACLE = _ParityOracle()

_chaos_params = dict(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    kind=st.sampled_from(sorted(QUERY_SETS)),
    drop_rate=st.floats(min_value=0.0, max_value=0.15),
    duplicate_rate=st.floats(min_value=0.0, max_value=0.1),
    reorder_rate=st.floats(min_value=0.0, max_value=0.2),
    jitter_ms=st.floats(min_value=0.0, max_value=8.0),
)


def _assert_chaos_parity(
    seed, kind, drop_rate, duplicate_rate, reorder_rate, jitter_ms
):
    plan = FaultPlan(
        seed=seed,
        drop_rate=drop_rate,
        duplicate_rate=duplicate_rate,
        reorder_rate=reorder_rate,
        jitter_ms=jitter_ms,
    )
    _, faulty = run_desis(
        QUERY_SETS[kind],
        three_tier(3, 1),
        _ORACLE.streams,
        fault_plan=plan,
        node_timeout=NEVER,
    )
    assert rows(faulty) == _ORACLE.baseline(kind)


class TestPropertyChaosParity:
    """Hypothesis sweep over seeds, fault rates and window kinds."""

    @settings(max_examples=10, deadline=None)
    @given(**_chaos_params)
    def test_parity_holds_for_random_recoverable_plans(self, **kw):
        _assert_chaos_parity(**kw)

    @pytest.mark.chaos
    @settings(max_examples=100, deadline=None)
    @given(**_chaos_params)
    def test_parity_sweep_heavy(self, **kw):
        _assert_chaos_parity(**kw)


class TestCrashRecovery:
    """Crashes shorter than the eviction timeout replay from the buffer."""

    def test_local_crash_and_restart_is_exact(self):
        streams = make_streams(3, 3000)
        _, baseline = run_desis(QUERY_SETS["mixed"], three_tier(3, 1), streams)
        plan = FaultPlan(seed=2, crashes=(CrashWindow("local-0", 3_000, 6_000),))
        _, faulty = run_desis(
            QUERY_SETS["mixed"],
            three_tier(3, 1),
            streams,
            fault_plan=plan,
            node_timeout=NEVER,
        )
        assert rows(faulty) == rows(baseline)
        assert faulty.network.retransmits > 0

    def test_intermediate_crash_and_restart_is_exact(self):
        streams = make_streams(3, 800)
        _, baseline = run_desis(QUERY_SETS["tumbling"], three_tier(3, 1), streams)
        plan = FaultPlan(seed=2, crashes=(CrashWindow("mid-0", 2_000, 4_500),))
        _, faulty = run_desis(
            QUERY_SETS["tumbling"],
            three_tier(3, 1),
            streams,
            fault_plan=plan,
            node_timeout=NEVER,
        )
        assert rows(faulty) == rows(baseline)
        assert faulty.network.drops > 0

    @pytest.mark.chaos
    def test_crash_plus_link_chaos_is_exact(self):
        streams = make_streams(3, 3000)
        _, baseline = run_desis(QUERY_SETS["mixed"], three_tier(3, 1), streams)
        plan = FaultPlan(
            seed=7,
            drop_rate=0.05,
            duplicate_rate=0.03,
            reorder_rate=0.1,
            jitter_ms=5.0,
            crashes=(CrashWindow("local-1", 4_000, 7_000),),
        )
        _, faulty = run_desis(
            QUERY_SETS["mixed"],
            three_tier(3, 1),
            streams,
            fault_plan=plan,
            node_timeout=NEVER,
        )
        assert rows(faulty) == rows(baseline)


class TestSoftEvictionRejoin:
    """Outages past the timeout: evict, rejoin via heartbeat, resync."""

    CRASH = CrashWindow("local-0", 2_000, 16_000)
    #: evicts after 6 s of silence; heartbeats every 2 s
    CFG = dict(node_timeout=6_000)

    def _run(self):
        streams = make_streams(3, 3000)
        _, baseline = run_desis(
            QUERY_SETS["tumbling"], three_tier(3, 1), streams, **self.CFG
        )
        cluster, faulty = run_desis(
            QUERY_SETS["tumbling"],
            three_tier(3, 1),
            streams,
            fault_plan=FaultPlan(seed=3, crashes=(self.CRASH,)),
            **self.CFG,
        )
        return cluster, rows(baseline), rows(faulty)

    def test_eviction_and_rejoin_counters(self):
        cluster, _, _ = self._run()
        liveness = cluster.intermediates["mid-0"].liveness
        assert liveness is not None
        assert liveness.soft_evictions == 1
        assert liveness.rejoins == 1
        assert not liveness.evicted

    def test_degradation_is_bounded_to_the_outage(self):
        _, baseline, faulty = self._run()
        # No spurious windows: everything emitted exists in the baseline
        # with at most the degraded (smaller) event count.
        base_by_window = {(q, s, e): n for q, s, e, n, _ in baseline}
        for q, s, e, n, _ in faulty:
            assert (q, s, e) in base_by_window
            assert n <= base_by_window[(q, s, e)]
        assert len(faulty) <= len(baseline)

    def test_windows_outside_the_outage_are_exact(self):
        _, baseline, faulty = self._run()
        # Exact before the crash, and after the rejoin settles (one
        # heartbeat to readmit plus two ticks to flush the resync).
        heartbeat = ClusterConfig(**self.CFG).heartbeat_interval
        settle = self.CRASH.end + heartbeat + 2 * TICK
        before = lambda r: r[2] < self.CRASH.start
        after = lambda r: r[1] >= settle
        assert [r for r in faulty if before(r)] == [r for r in baseline if before(r)]
        assert [r for r in faulty if after(r)] == [r for r in baseline if after(r)]


class TestUnrecoverable:
    """A dead link past ``MAX_RETRIES`` degrades, never hangs or lies."""

    def test_blackout_terminates_and_reports_exhaustion(self):
        streams = make_streams(3, 300)
        plan = FaultPlan(seed=0, drop_rate=1.0)
        _, result = run_desis(
            QUERY_SETS["tumbling"],
            three_tier(3, 1),
            streams,
            fault_plan=plan,
            node_timeout=NEVER,
        )
        assert rows(result) == []
        assert result.network.retransmit_exhausted > 0


class TestAccountingRegression:
    """Retransmits bill data, acks bill control — pinned by identities."""

    QUERIES = QUERY_SETS["tumbling"]

    def _nets(self):
        streams = make_streams(3, 800)
        topo = three_tier(3, 1)
        _, none = run_desis(self.QUERIES, topo, streams)
        _, zero = run_desis(
            self.QUERIES, topo, streams,
            fault_plan=FaultPlan(seed=0), node_timeout=NEVER,
        )
        _, drop = run_desis(
            self.QUERIES, topo, streams,
            fault_plan=FaultPlan(seed=3, drop_rate=0.08), node_timeout=NEVER,
        )
        _, dupdrop = run_desis(
            self.QUERIES, topo, streams,
            fault_plan=FaultPlan(seed=3, drop_rate=0.06, duplicate_rate=0.05),
            node_timeout=NEVER,
        )
        return none.network, zero.network, drop.network, dupdrop.network

    def test_data_bytes_identity_under_retransmission(self):
        # Every extra data byte on a lossy link is a retransmission:
        # data_bytes(drop plan) == data_bytes(zero plan) + retransmit_bytes.
        _, zero, drop, _ = self._nets()
        assert drop.retransmit_bytes > 0
        assert drop.data_bytes == zero.data_bytes + drop.retransmit_bytes

    def test_acks_bill_the_control_bucket(self):
        # Every extra control byte of the reliable channel is an ack:
        # control_bytes(zero plan) == control_bytes(no plan) + ack_bytes.
        none, zero, _, _ = self._nets()
        assert zero.ack_bytes > 0
        assert zero.control_bytes == none.control_bytes + zero.ack_bytes

    def test_goodput_recovers_the_fault_free_data_volume(self):
        # goodput = data - retransmits - network duplicates must land
        # exactly on the fault-free data volume.
        _, zero, _, dupdrop = self._nets()
        assert dupdrop.duplicate_data_bytes > 0
        assert dupdrop.goodput_data_bytes == zero.data_bytes


class TestCentralizedChaosParity:
    """The reliable channel is protocol-agnostic: centralized shipping
    of raw event batches survives the same chaos bit-exactly."""

    def test_centralized_scotty_parity_under_chaos(self):
        streams = make_streams(3, 800)
        topo = three_tier(3, 1)
        queries = QUERY_SETS["tumbling"]

        def central(plan):
            cfg = ClusterConfig(
                tick_interval=TICK, fault_plan=plan, node_timeout=NEVER
            )
            cluster = CentralizedCluster(queries, topo, ScottyProcessor, config=cfg)
            return cluster.run({k: list(v) for k, v in streams.items()})

        baseline = central(None)
        faulty = central(
            FaultPlan(
                seed=5,
                drop_rate=0.08,
                duplicate_rate=0.04,
                reorder_rate=0.1,
                jitter_ms=4.0,
            )
        )
        assert rows(faulty) == rows(baseline)
        assert faulty.network.retransmits > 0


def _expected_completeness(row):
    """Union-sweep the shed coverage clipped to the window (DESIGN.md §12)."""
    span = max(row.end - row.start, 1)
    intervals = sorted(
        (max(lo, row.start), min(hi, row.end)) for _, lo, hi in row.shed_slices
    )
    union = 0
    cursor = row.start
    for lo, hi in intervals:
        if hi > cursor:
            union += hi - max(lo, cursor)
            cursor = hi
    return max(1.0 - union / span, 0.0)


def _assert_shed_accounting(result):
    """Every emitted window's completeness exactly accounts its shed
    coverage: no shed intervals means 1.0, otherwise the clipped union."""
    for row in result.sink:
        if not row.shed_slices:
            assert row.completeness == 1.0
        else:
            assert abs(row.completeness - _expected_completeness(row)) < 1e-12


#: heavier than the parity streams on purpose: together with the slow
#: bandwidth-limited links below this load reliably exhausts tight credit
#: windows, so the bounded runs exercise staging and shedding for real
_OVERLOAD_STREAMS = make_streams(2, 1500)

#: a 20 ms / 0.2 B-per-ms link: slow enough that a tight credit window
#: (1500 B / 6 frames) stalls senders and fills the bounded staging area
_SLOW_LINK = dict(latency_ms=20.0, bandwidth_bytes_per_ms=0.2)


def _run_overload(staging_limit, *, seed=7, drop_rate=0.0, **extra):
    return run_desis(
        QUERY_SETS["tumbling"],
        three_tier(2, 2),
        _OVERLOAD_STREAMS,
        fault_plan=FaultPlan(seed=seed, drop_rate=drop_rate),
        node_timeout=NEVER,
        channel_credit_bytes=1_500,
        channel_credit_frames=6,
        staging_limit=staging_limit,
        **_SLOW_LINK,
        **extra,
    )


_overload_params = dict(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    staging_limit=st.integers(min_value=4, max_value=12),
    drop_rate=st.floats(min_value=0.0, max_value=0.08),
)


def _assert_bounded_occupancy(seed, staging_limit, drop_rate):
    _, result = _run_overload(staging_limit, seed=seed, drop_rate=drop_rate)
    assert result.peak_staging <= staging_limit
    assert rows(result)  # degraded or not, the pipeline keeps emitting
    _assert_shed_accounting(result)


class TestOverloadInvariants:
    """Backpressure and bounded buffering (DESIGN.md §12).

    Two invariants across seeded fault plans: staging occupancy never
    exceeds its cap no matter the seed, and when the caps are generous
    enough that nothing is shed the bounded run is byte-identical to the
    unbounded one (overload control may *delay*, never *change*, results
    it did not explicitly shed).
    """

    @settings(max_examples=6, deadline=None)
    @given(**_overload_params)
    def test_staging_occupancy_never_exceeds_cap(self, **kw):
        _assert_bounded_occupancy(**kw)

    @pytest.mark.chaos
    @settings(max_examples=40, deadline=None)
    @given(**_overload_params)
    def test_staging_occupancy_sweep_heavy(self, **kw):
        _assert_bounded_occupancy(**kw)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        kind=st.sampled_from(["tumbling", "sliding", "session"]),
        drop_rate=st.floats(min_value=0.0, max_value=0.1),
    )
    def test_zero_shed_is_byte_identical(self, seed, kind, drop_rate):
        plan = FaultPlan(seed=seed, drop_rate=drop_rate)
        _, unbounded = run_desis(
            QUERY_SETS[kind],
            three_tier(3, 1),
            _ORACLE.streams,
            fault_plan=plan,
            node_timeout=NEVER,
        )
        _, bounded = run_desis(
            QUERY_SETS[kind],
            three_tier(3, 1),
            _ORACLE.streams,
            fault_plan=plan,
            node_timeout=NEVER,
            channel_credit_bytes=64_000,
            channel_credit_frames=256,
            staging_limit=4_096,
            retention_limit=4_096,
        )
        assert bounded.slices_shed == 0
        assert bounded.degraded_windows == 0
        assert rows(bounded) == rows(unbounded)

    def test_tight_caps_shed_and_account_exactly(self):
        # The canonical overload recipe (tests/test_pinned_counters.py pins
        # its exact counters): tight caps on the slow link must actually
        # shed, emit degraded windows, and account every shed interval in
        # the completeness figure.
        _, result = _run_overload(8)
        assert result.network.credit_stalls > 0
        assert result.slices_shed > 0
        assert result.degraded_windows > 0
        degraded = [r for r in result.sink if r.completeness < 1.0]
        assert len(degraded) == result.degraded_windows
        assert all(r.shed_slices for r in degraded)
        _assert_shed_accounting(result)
