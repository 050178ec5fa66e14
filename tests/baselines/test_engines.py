"""Tests for the named engine processors (Desis / Scotty / DeSW)."""

from __future__ import annotations

import pytest

from repro.baselines import (
    CENTRALIZED_SYSTEMS,
    DeSWProcessor,
    DesisProcessor,
    ScottyProcessor,
)
from repro.baselines.api import StreamProcessor
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure

from tests.conftest import make_stream
from tests.core.test_process_per_event import counting


def mixed_queries():
    return [
        Query.of("avg1", WindowSpec.tumbling(500), AggFunction.AVERAGE),
        Query.of("avg2", WindowSpec.tumbling(900), AggFunction.AVERAGE),
        Query.of("sum1", WindowSpec.tumbling(500), AggFunction.SUM),
        Query.of(
            "cnt",
            WindowSpec.tumbling(50, measure=WindowMeasure.COUNT),
            AggFunction.SUM,
        ),
    ]


def run(cls, queries, events):
    processor = cls(queries)
    for event in events:
        processor.process(event)
    processor.close()
    return processor


def test_group_counts_reflect_policies():
    queries = mixed_queries()
    assert DesisProcessor(queries).group_count == 1
    # Scotty: average | sum (time + count measures may share).
    assert ScottyProcessor(queries).group_count == 2
    # DeSW: average | sum-time | sum-count.
    assert DeSWProcessor(queries).group_count == 3


def test_all_systems_satisfy_protocol_and_agree():
    events = make_stream(600)
    queries = mixed_queries()
    reference = None
    for name, cls in CENTRALIZED_SYSTEMS.items():
        processor = run(cls, queries, events)
        assert isinstance(processor, StreamProcessor)
        assert processor.name == name
        output = sorted(
            (r.query_id, r.start, r.end, r.event_count, round(float(r.value), 9))
            for r in processor.sink
        )
        if reference is None:
            reference = output
        else:
            assert output == reference, name


#: time windows only, so every group could take slice-runs
TIME_QUERIES = [
    Query.of("avg", WindowSpec.tumbling(500), AggFunction.AVERAGE),
    Query.of("sum", WindowSpec.sliding(900, 300), AggFunction.SUM),
    Query.of("max", WindowSpec.tumbling(700), AggFunction.MAX),
]


@pytest.mark.parametrize("cls", [ScottyProcessor, DeSWProcessor])
def test_baselines_ingest_a_batch_one_event_at_a_time(cls, monkeypatch):
    """The cost model the baselines keep (Sec 6.2.1): a batch enters
    ``GroupRuntime.process`` once per event and group, never the
    slice-run kernel."""
    calls = counting(monkeypatch, "process", "_process_run")
    events = make_stream(300)
    processor = cls(TIME_QUERIES)
    assert processor.group_count == 3
    processor.process_batch(events)
    assert calls == {"process": len(events) * processor.group_count,
                     "_process_run": 0}


def test_desis_ingests_a_batch_in_slice_runs(monkeypatch):
    calls = counting(monkeypatch, "process", "_process_run")
    DesisProcessor(TIME_QUERIES).process_batch(make_stream(300))
    assert calls["process"] == 0 and calls["_process_run"] > 0


def test_desis_does_least_work():
    events = make_stream(800)
    queries = mixed_queries()
    calcs = {
        name: run(cls, queries, events).stats.calculations
        for name, cls in CENTRALIZED_SYSTEMS.items()
    }
    assert calcs["Desis"] <= calcs["Scotty"] <= calcs["DeSW"]
    assert calcs["DeSW"] < calcs["DeBucket"]
