"""Disorder composed with cluster ingestion: a reorder front-end with the
stream's true lateness bound must make bounded-disorder streams
*byte-identical* to their sorted equivalents.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance import Scenario, in_order_streams
from repro.conformance.executors import run_desis_cluster, run_engine_reference
from repro.conformance.scenario import QuerySpec


def disordered_scenario(seed: int, lateness: int) -> Scenario:
    return Scenario(
        name=f"reorder-{seed}",
        seed=seed,
        n_nodes=3,
        events_per_node=45,
        n_keys=2,
        max_lateness=lateness,
        queries=(
            QuerySpec("q0", "tumbling", "sum", length=500),
            QuerySpec("q1", "sliding", "count", length=1_000, slide=250),
            QuerySpec("q2", "sliding", "average", length=600, slide=300),
        ),
        topology="three_tier",
    )


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       lateness=st.sampled_from((10, 40, 150)))
def test_cluster_ingestion_identical_to_sorted(seed, lateness):
    scenario = disordered_scenario(seed, lateness)
    sorted_streams = scenario.build_streams()
    reordered = in_order_streams(scenario)  # ReorderBuffer, on_late="raise"
    assert reordered == sorted_streams
    disordered = run_desis_cluster(scenario, reordered)
    clean = run_desis_cluster(scenario, sorted_streams)
    assert disordered.rows == clean.rows


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_engine_reference_unaffected_by_reordered_arrival(seed):
    scenario = disordered_scenario(seed, lateness=80)
    via_buffer = run_engine_reference(scenario, in_order_streams(scenario))
    direct = run_engine_reference(scenario, scenario.build_streams())
    assert via_buffer.rows == direct.rows


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       lateness=st.sampled_from((5, 40, 150)))
def test_scenario_disorder_never_exceeds_its_bound(seed, lateness):
    # the construction invariant in_order_streams relies on: with
    # on_late="raise", any violation would throw instead of dropping
    scenario = disordered_scenario(seed, lateness)
    for node, events in scenario.disordered_streams().items():
        high = 0
        for event in events:
            high = max(high, event.time)
            assert high - event.time <= lateness, node
