"""EngineConfig: the unified knob surface.

Pins the contract of the api_redesign: one frozen ``EngineConfig`` drives
``DesisSession``, ``AggregationEngine``, and ``ClusterConfig.engine``.
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
        other = config.with_options(shards=4, punctuation_mode="scan")
        assert (other.shards, other.punctuation_mode) == (4, "scan")
        assert config.shards == 1  # original untouched
        with pytest.raises(EngineError):
            config.with_options(shards=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"punctuation_mode": "btree"},
            {"shards": 0},
            {"shard_batch_size": 0},
            {"latency_sample_every": 0},
        ],
    )
    def test_validation_rejects_bad_knobs(self, kwargs):
        with pytest.raises(EngineError):
            EngineConfig(**kwargs)


class TestSessionSugar:
    def test_shards_sugar_lands_in_config(self):
        session = DesisSession(EngineConfig(punctuation_mode="scan"), shards=4)
        assert session.config == EngineConfig(punctuation_mode="scan", shards=4)
        assert session.shards == 4


class TestEngineConfig:
    def test_engine_accepts_config(self):
        engine = AggregationEngine(
            [], config=EngineConfig(punctuation_mode="scan")
        )
        assert engine.config.punctuation_mode == "scan"

    def test_engine_kwargs_override_config(self):
        engine = AggregationEngine(
            [],
            config=EngineConfig(punctuation_mode="heap"),
            punctuation_mode="scan",
        )
        assert engine.config.punctuation_mode == "scan"


class TestClusterConfigSync:
    def test_default_engine_always_populated(self):
        config = ClusterConfig()
        assert config.engine == EngineConfig()

    def test_engine_knobs_are_not_mirrored(self):
        with pytest.raises(TypeError):
            ClusterConfig(punctuation_mode="scan")
