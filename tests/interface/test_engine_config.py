"""EngineConfig: the unified knob surface.

Pins the contract of the api_redesign: one frozen ``EngineConfig`` drives
``DesisSession`` and ``AggregationEngine``; a cluster takes none.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig
from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine
from repro.core.errors import EngineError
from repro.interface.session import DesisSession


class TestConfigValue:
    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(Exception):
            config.shards = 4  # type: ignore[misc]

    def test_with_options_returns_revalidated_copy(self):
        config = EngineConfig()
        other = config.with_options(shards=4, emit_empty=True)
        assert (other.shards, other.emit_empty) == (4, True)
        assert config.shards == 1  # original untouched
        with pytest.raises(EngineError):
            config.with_options(shards=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"shard_batch_size": 0},
        ],
    )
    def test_validation_rejects_bad_knobs(self, kwargs):
        with pytest.raises(EngineError):
            EngineConfig(**kwargs)


class TestSessionSugar:
    def test_shards_sugar_lands_in_config(self):
        session = DesisSession(EngineConfig(emit_empty=True), shards=4)
        assert session.config == EngineConfig(emit_empty=True, shards=4)
        assert session.shards == 4


class TestEngineConfig:
    def test_engine_accepts_config(self):
        engine = AggregationEngine([], config=EngineConfig(emit_empty=True))
        assert engine.config.emit_empty is True


class TestClusterConfigSync:
    def test_engine_is_not_a_cluster_knob(self):
        with pytest.raises(TypeError):
            ClusterConfig(engine=EngineConfig())

    def test_engine_knobs_are_not_mirrored(self):
        with pytest.raises(TypeError):
            ClusterConfig(emit_empty=True)
