"""Decentralized-vs-centralized parity: the core correctness property of
Section 5.

For every workload, a Desis cluster over a multi-node topology must produce
exactly the results the centralized engine produces on the merged stream
(user-defined windows excepted: their decentralized termination is
watermark-granular by design, Sec 5.1.2, and is tested by invariants).

Streams use globally unique timestamps: with equal timestamps from
different nodes the merge order at the root is physically arbitrary in the
real system (and value-ordered here), so count-window contents would
differ from an arbitrary centralized interleaving.
"""

from __future__ import annotations

import random

import pytest

from repro.core.analyzer import analyze
from repro.core.engine import AggregationEngine
from repro.core.event import Event, merge_streams
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, OperatorKind, WindowMeasure
from repro.cluster import ClusterConfig, DesisCluster
from repro.cluster.root import RootAssembler
from repro.network.topology import chain, star, three_tier

TICK = 500


def make_streams(n_nodes, n_events, *, seed=11, keys=("k",), gap_every=None,
                 marker_every=None):
    """Per-node streams with globally unique timestamps."""
    rng = random.Random(seed)
    streams = {}
    for i in range(n_nodes):
        t = i
        events = []
        for j in range(n_events):
            if gap_every is not None and j and j % gap_every == 0:
                t += 2_000 + n_nodes
            else:
                t += rng.choice([n_nodes, 2 * n_nodes, 5 * n_nodes])
            marker = (
                "end"
                if marker_every is not None and j % marker_every == marker_every - 1
                else None
            )
            events.append(
                Event(t, rng.choice(keys), float((j * 7 + i) % 89), marker)
            )
        streams[f"local-{i}"] = events
    return streams


def centralized_reference(queries, streams):
    merged = list(merge_streams(*streams.values()))
    engine = AggregationEngine(queries)
    engine.advance(0)
    for event in merged:
        engine.process(event)
    final = ((merged[-1].time // TICK) + 1) * TICK
    return engine.close(final)


def run_cluster(queries, streams, topology):
    cluster = DesisCluster(
        queries, topology, config=ClusterConfig(tick_interval=TICK)
    )
    return cluster.run(streams)


def signature(sink, *, skip_start=()):
    out = []
    for r in sink:
        start = None if r.query_id in skip_start else r.start
        value = round(float(r.value), 9) if r.value is not None else None
        out.append((r.query_id, start, r.end, r.event_count, value))
    return sorted(out, key=repr)


def assert_parity(queries, streams, topology, *, skip_start=()):
    result = run_cluster(queries, streams, topology)
    reference = centralized_reference(queries, streams)
    assert signature(result.sink, skip_start=skip_start) == signature(
        reference, skip_start=skip_start
    )
    return result


class TestDecomposableParity:
    @pytest.mark.parametrize("fn", [AggFunction.SUM, AggFunction.AVERAGE,
                                    AggFunction.MAX, AggFunction.COUNT])
    def test_tumbling(self, fn):
        queries = [Query.of("q", WindowSpec.tumbling(1_000), fn)]
        assert_parity(queries, make_streams(3, 300), three_tier(3, 1))

    def test_sliding_overlaps(self):
        queries = [Query.of("q", WindowSpec.sliding(2_000, 500), AggFunction.SUM)]
        assert_parity(queries, make_streams(3, 300), three_tier(3, 1))

    def test_star_topology(self):
        queries = [Query.of("q", WindowSpec.tumbling(1_000), AggFunction.AVERAGE)]
        assert_parity(queries, make_streams(4, 200), star(4))

    def test_deep_chain_topology(self):
        queries = [Query.of("q", WindowSpec.tumbling(1_000), AggFunction.AVERAGE)]
        assert_parity(queries, make_streams(2, 200), chain(2, hops=3))

    def test_multiple_keys_and_selections(self):
        keys = ("speed", "temp", "rpm")
        queries = [
            Query.of(
                f"q-{key}",
                WindowSpec.tumbling(1_000),
                AggFunction.AVERAGE,
                selection=Selection(key=key),
            )
            for key in keys
        ]
        assert_parity(
            queries, make_streams(3, 400, keys=keys), three_tier(3, 1)
        )

    def test_many_concurrent_windows(self):
        queries = [
            Query.of(f"q{i}", WindowSpec.tumbling(500 * (i + 1)), AggFunction.SUM)
            for i in range(6)
        ]
        assert_parity(queries, make_streams(3, 300), three_tier(3, 1))


class TestSessionParity:
    def test_cross_node_sessions_exact(self):
        """Gap covering (Sec 5.1.2) reproduces centralized sessions exactly:
        a gap on one node that another node's events bridge must NOT close
        the session, and a global gap must."""
        queries = [Query.of("s", WindowSpec.session(gap=800), AggFunction.SUM)]
        assert_parity(
            queries, make_streams(3, 300, gap_every=60), three_tier(3, 1)
        )

    def test_bridged_gap_stays_open(self):
        # Node a pauses 0.9s, node b keeps emitting: one global session.
        streams = {
            "local-0": [Event(0, "k", 1.0), Event(2_000, "k", 2.0)],
            "local-1": [Event(500, "k", 4.0), Event(1_000, "k", 8.0),
                        Event(1_500, "k", 16.0)],
        }
        queries = [Query.of("s", WindowSpec.session(gap=800), AggFunction.SUM)]
        result = run_cluster(queries, streams, star(2))
        results = result.sink.for_query("s")
        assert len(results) == 1
        assert results[0].value == 31.0

    def test_global_gap_closes(self):
        streams = {
            "local-0": [Event(0, "k", 1.0), Event(5_000, "k", 2.0)],
            "local-1": [Event(100, "k", 4.0), Event(5_100, "k", 8.0)],
        }
        queries = [Query.of("s", WindowSpec.session(gap=800), AggFunction.SUM)]
        result = run_cluster(queries, streams, star(2))
        results = sorted(result.sink.for_query("s"), key=lambda r: r.start)
        assert len(results) == 2
        assert results[0].value == 5.0
        assert results[0].end == 100 + 800
        assert results[1].value == 10.0

    def test_sessions_mixed_with_fixed(self):
        queries = [
            Query.of("s", WindowSpec.session(gap=900), AggFunction.AVERAGE),
            Query.of("t", WindowSpec.tumbling(1_000), AggFunction.AVERAGE),
        ]
        assert_parity(
            queries, make_streams(2, 250, gap_every=50), three_tier(2, 1)
        )

    def test_session_merges_only_its_own_operators(self, monkeypatch):
        """A COUNT session sharing its group with an AVG query merges the
        COUNT partials only, not the group's SUM."""
        queries = [
            Query.of("avg", WindowSpec.tumbling(1_000), AggFunction.AVERAGE),
            Query.of("n", WindowSpec.session(gap=300), AggFunction.COUNT),
        ]
        (group,) = analyze(queries, decentralized=True).groups
        assert OperatorKind.SUM in group.operators
        merged: set[OperatorKind] = set()
        emit = RootAssembler.emit

        def spy(self, query, start, end, ops, count, now):
            if query.query_id == "n":
                merged.update(ops)
            emit(self, query, start, end, ops, count, now)

        monkeypatch.setattr(RootAssembler, "emit", spy)
        assert_parity(
            queries, make_streams(3, 400, gap_every=40), three_tier(3, 1)
        )
        assert merged == {OperatorKind.COUNT}


class TestRootEvaluatedParity:
    def test_median(self):
        queries = [Query.of("m", WindowSpec.tumbling(1_500), AggFunction.MEDIAN)]
        assert_parity(queries, make_streams(3, 300), three_tier(3, 1))

    def test_quantiles_share_shipped_sort(self):
        queries = [
            Query.of("q1", WindowSpec.tumbling(1_000), AggFunction.QUANTILE,
                     quantile=0.25),
            Query.of("q2", WindowSpec.tumbling(1_000), AggFunction.QUANTILE,
                     quantile=0.75),
        ]
        assert_parity(queries, make_streams(3, 300), three_tier(3, 1))

    def test_count_windows(self):
        queries = [
            Query.of(
                "c",
                WindowSpec.tumbling(50, measure=WindowMeasure.COUNT),
                AggFunction.SUM,
            )
        ]
        assert_parity(queries, make_streams(3, 300), three_tier(3, 1))

    def test_count_sliding_windows(self):
        queries = [
            Query.of(
                "c",
                WindowSpec.sliding(60, 20, measure=WindowMeasure.COUNT),
                AggFunction.AVERAGE,
            )
        ]
        assert_parity(queries, make_streams(2, 250), star(2))

    def test_deduplicating_median(self):
        """Every reading arrives twice; the deduplication operator runs at
        the locals, so each window counts it once, as the engine does."""
        queries = [
            Query.of("m", WindowSpec.tumbling(1_000), AggFunction.MEDIAN,
                     selection=Selection(deduplicate=True)),
        ]
        streams = {
            node: [twin for event in events for twin in (event, event)]
            for node, events in make_streams(2, 250).items()
        }
        result = assert_parity(queries, streams, three_tier(2, 1))
        assert sum(r.event_count for r in result.sink.results) == 2 * 250

    def test_holistic_session(self):
        queries = [Query.of("m", WindowSpec.session(gap=900), AggFunction.MEDIAN)]
        assert_parity(
            queries, make_streams(2, 250, gap_every=50), three_tier(2, 1)
        )


class TestMixedWorkloadParity:
    def test_full_mix(self):
        queries = [
            Query.of("avg", WindowSpec.tumbling(1_000), AggFunction.AVERAGE),
            Query.of("sum", WindowSpec.sliding(2_000, 500), AggFunction.SUM),
            Query.of("med", WindowSpec.tumbling(1_500), AggFunction.MEDIAN),
            Query.of("ses", WindowSpec.session(gap=900), AggFunction.MAX),
            Query.of(
                "cnt",
                WindowSpec.tumbling(64, measure=WindowMeasure.COUNT),
                AggFunction.SUM,
            ),
        ]
        assert_parity(
            queries, make_streams(3, 400, gap_every=120), three_tier(3, 1)
        )

    def test_single_local_node(self):
        """A 1-local cluster must equal centralized processing exactly."""
        queries = [
            Query.of("avg", WindowSpec.tumbling(700), AggFunction.AVERAGE),
            Query.of("ud", WindowSpec.user_defined(end_marker="end"),
                     AggFunction.SUM),
        ]
        streams = make_streams(1, 300, marker_every=40)
        # With one local, user-defined cuts happen exactly at markers, so
        # even user-defined content matches (start semantics differ).
        assert_parity(queries, streams, star(1), skip_start=("ud",))


class TestUserDefinedInvariants:
    """Multi-node user-defined windows are watermark-granular (Sec 5.1.2);
    exact parity is not promised, but conservation must hold."""

    def test_total_conservation(self):
        queries = [
            Query.of("ud", WindowSpec.user_defined(end_marker="end"),
                     AggFunction.COUNT)
        ]
        streams = make_streams(3, 300, marker_every=50)
        result = run_cluster(queries, streams, three_tier(3, 1))
        total_events = sum(len(s) for s in streams.values())
        assert sum(r.event_count for r in result.sink) == total_events
        # Window ends are exactly the marker times plus the final flush.
        markers = sorted(
            e.time for s in streams.values() for e in s if e.marker == "end"
        )
        ends = sorted(r.end for r in result.sink)
        assert ends[: len(markers)] == markers
