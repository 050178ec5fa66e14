"""The "duplicate query" metamorphic check: a clone of the first query
echoes its rows and leaves every other query's rows as they were."""

from __future__ import annotations

from dataclasses import replace

from repro.conformance.check import check_duplicate_query_invariance
from repro.conformance.executors import in_order_streams, run_engine_reference

from tests.conformance.test_query_alone import mixed


def test_a_clone_changes_no_row():
    scenario = mixed()
    streams = in_order_streams(scenario)
    reference = run_engine_reference(scenario, streams)
    assert check_duplicate_query_invariance(scenario, streams, reference) == []


def test_a_moved_row_of_another_query_is_reported():
    """Not only the clone against its original: a pre-existing query
    whose rows differ from the reference run fails the check."""
    scenario = mixed()
    streams = in_order_streams(scenario)
    reference = run_engine_reference(scenario, streams)
    moved = [
        row[:4] + (row[4] + 1.0,) if row[0] == "sum" else row
        for row in reference.rows
    ]
    failures = check_duplicate_query_invariance(
        scenario, streams, replace(reference, rows=moved)
    )
    assert failures and all("duplicate-query" in line for line in failures)
    assert all("sum[" in line or "suppressed" in line for line in failures)
