"""A shard worker that dies mid-stream is a typed, prompt failure.

Before, a killed worker surfaced as a raw ``BrokenPipeError`` /
``EOFError`` out of the pipe layer, or not until ``close()`` sat out its
120 s deadline.  The contract now: the next call that touches the dead
worker's pipes raises ``EngineError("shard N worker died ...")``, the
remaining workers are shut down on that path, and every later call —
``close()`` included — raises the same error at once.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.config import EngineConfig
from repro.core.errors import EngineError
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction
from repro.datagen import DataGenerator, DataGeneratorConfig
from repro.parallel import ShardedEngine

FRAME = 64


def started_engine(shards=2):
    config = DataGeneratorConfig(
        keys=tuple(f"k{i}" for i in range(6)), rate=20_000.0
    )
    events = list(DataGenerator(config, seed=3).events(40_000))
    queries = [Query.of("avg", WindowSpec.tumbling(500), AggFunction.AVERAGE)]
    engine = ShardedEngine(
        queries, config=EngineConfig(shards=shards, shard_batch_size=FRAME)
    )
    engine.process_batch(events[:FRAME])  # the first frame starts the workers
    return engine, events


def kill(proc):
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(5)
    assert not proc.is_alive()


def test_killed_worker_is_a_typed_error_while_feeding():
    engine, events = started_engine()
    procs = list(engine._procs)
    kill(procs[1])
    began = time.monotonic()
    with pytest.raises(EngineError, match="shard 1 worker died"):
        for i in range(FRAME, len(events), FRAME):
            engine.process_batch(events[i:i + FRAME])
    assert time.monotonic() - began < 5
    # the failure path shut the surviving worker down too
    assert engine._procs == []
    for proc in procs:
        proc.join(5)
        assert not proc.is_alive()
    # and the engine stays failed: no hang, no second attempt
    began = time.monotonic()
    with pytest.raises(EngineError, match="shard 1 worker died"):
        engine.close()
    with pytest.raises(EngineError, match="shard 1 worker died"):
        engine.process_batch(events[:FRAME])
    assert time.monotonic() - began < 5


def test_worker_killed_before_close_fails_close_promptly():
    engine, _ = started_engine(shards=3)
    procs = list(engine._procs)
    kill(procs[0])
    began = time.monotonic()
    with pytest.raises(EngineError, match="shard 0 worker died"):
        engine.close()
    assert time.monotonic() - began < 5
    assert engine._procs == []
    for proc in procs:
        proc.join(5)
        assert not proc.is_alive()
    with pytest.raises(EngineError, match="shard 0 worker died"):
        engine.close()
