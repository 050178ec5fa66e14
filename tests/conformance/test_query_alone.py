"""The "query alone" metamorphic check: sharing changes a query's cost,
never its rows (PAPER.md §1)."""

from __future__ import annotations

from dataclasses import replace

from repro.conformance import ScenarioGenerator, evaluate_scenario
from repro.conformance.check import check_query_alone_invariance
from repro.conformance.executors import in_order_streams, run_engine_reference
from repro.conformance.scenario import SPECIAL_VALUES, QuerySpec

from tests.conformance.test_scenario import small_scenario


def mixed(**overrides):
    """Five queries whose punctuations cut one another's slices."""
    queries = (
        QuerySpec("med", "tumbling", "median", length=1_000),
        QuerySpec("max", "tumbling", "max", length=1_000),
        QuerySpec("min", "sliding", "min", length=1_000, slide=250),
        QuerySpec("sum", "tumbling", "sum", length=70),
        QuerySpec("avg", "session", "average", gap=40),
    )
    return small_scenario(events_per_node=300, queries=queries, **overrides)


def test_each_query_alone_reads_its_rows_of_the_full_run():
    for scenario in (mixed(), mixed(specials=SPECIAL_VALUES)):
        streams = in_order_streams(scenario)
        reference = run_engine_reference(scenario, streams)
        assert check_query_alone_invariance(scenario, streams, reference) == []


def test_a_row_that_sharing_moved_is_reported():
    scenario = mixed()
    streams = in_order_streams(scenario)
    reference = run_engine_reference(scenario, streams)
    moved = [
        row[:4] + (row[4] + 1.0,) if row[0] == "med" else row
        for row in reference.rows
    ]
    failures = check_query_alone_invariance(
        scenario, streams, replace(reference, rows=moved)
    )
    assert failures and all("query-alone:med" in line for line in failures)


def test_evaluate_scenario_runs_it_on_special_values():
    generator = ScenarioGenerator(1)
    scenario = next(
        s for s in map(generator.generate, range(100)) if s.specials
    )
    failures, _ = evaluate_scenario(scenario)
    assert failures == []
