"""Tier-1 replay of the committed conformance seed corpus.

Each ``corpus/*.json`` file is one interesting hand-picked scenario —
maximum query-group pressure, empty windows, a crash opening exactly on a
slice boundary, 64-fold sliding overlap, heavy link faults, sessions
sharing a batched slice-run group with fixed windows, sliding trackers
merged incrementally at the root beside a session and a marker window,
and so on.
They replay bit-for-bit from their JSON alone, so any behavioral drift in
the engines shows up here as a differential failure.
"""

from __future__ import annotations

import os

import pytest

from repro.conformance import Scenario, evaluate_scenario, executor_matrix

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(
    name for name in os.listdir(CORPUS_DIR) if name.endswith(".json")
)


def load(name: str) -> Scenario:
    with open(os.path.join(CORPUS_DIR, name), encoding="utf-8") as handle:
        return Scenario.from_json(handle.read())


def test_corpus_is_big_enough():
    assert len(CORPUS) >= 10


def test_corpus_covers_the_interesting_cases():
    names = {name.removesuffix(".json") for name in CORPUS}
    for required in ("max-group-count", "empty-windows",
                     "crash-at-slice-boundary", "overlap-64-sliding",
                     "session-mixed-batched", "sliding-session-incremental"):
        assert required in names, required


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_scenario_conforms(name):
    scenario = load(name)
    assert len(executor_matrix(scenario)) >= 4
    failures, executions = evaluate_scenario(scenario)
    assert not failures, failures
    assert "engine" in executions


def test_session_mixed_batched_is_one_group_fed_in_batches():
    from repro.core.analyzer import analyze
    from repro.core.types import WindowType

    scenario = load("session-mixed-batched.json")
    assert scenario.topology == "three_tier"
    (group,) = analyze(scenario.build_queries(), decentralized=True).groups
    assert not group.root_evaluated
    assert [q.window.window_type for q in group.queries] == [
        WindowType.TUMBLING, WindowType.SLIDING,
        WindowType.SESSION, WindowType.SESSION,
    ]
    gaps = {q.window.gap for q in group.queries if q.window.gap}
    # inter-arrival steps sit at and around the shorter gap length
    assert min(gaps) in {dt * scenario.n_nodes for dt in scenario.dt_units}


def test_sliding_session_incremental_is_one_group_merged_incrementally():
    from repro.core.analyzer import analyze
    from repro.core.types import WindowType

    scenario = load("sliding-session-incremental.json")
    assert scenario.topology == "three_tier"
    assert scenario.fault is not None and scenario.fault.link_faults_only
    # one group: the session and the marker window share the root
    # assembler (and the unaligned records) of the sliding ones
    (group,) = analyze(scenario.build_queries(), decentralized=True).groups
    assert not group.root_evaluated
    assert [q.window.window_type for q in group.queries] == [
        WindowType.SLIDING, WindowType.SLIDING, WindowType.TUMBLING,
        WindowType.SESSION, WindowType.USER_DEFINED,
    ]
    sliding = [q for q in scenario.queries if q.window_type == "sliding"]
    assert all(q.length // q.slide >= 8 for q in sliding)
    session = scenario.queries[3]
    assert session.key is not None
    _, executions = evaluate_scenario(scenario, metamorphic=False)
    per_query = {q.query_id: 0 for q in scenario.queries}
    for row in executions["cluster-desis-faulty"].rows:
        per_query[row[0]] += 1
    assert all(count > 1 for count in per_query.values()), per_query
    assert executions["cluster-desis-faulty"].meta["retransmits"] > 0


def test_overlap_64_actually_overlaps_64():
    scenario = load("overlap-64-sliding.json")
    q = scenario.queries[0]
    assert q.length // q.slide == 64


def test_crash_scenario_recovers_from_checkpoint():
    scenario = load("crash-at-slice-boundary.json")
    assert scenario.fault is not None and scenario.fault.crashes
    assert scenario.fault.crashes[0].start % scenario.tick_interval == 0
    _, executions = evaluate_scenario(scenario, metamorphic=False)
    faulty = executions["cluster-desis-faulty"]
    assert faulty.meta["recoveries"] >= 1
    assert faulty.meta["checkpoints"] >= 1
