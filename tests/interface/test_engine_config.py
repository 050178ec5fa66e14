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
        other = config.with_options(shards=4, merge_mode="exact")
        assert (other.shards, other.merge_mode) == (4, "exact")
        assert config.shards == 1  # original untouched
        with pytest.raises(EngineError):
            config.with_options(shards=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"punctuation_mode": "btree"},
            {"merge_mode": "lazy"},
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
        session = DesisSession(EngineConfig(merge_mode="exact"), shards=4)
        assert session.config == EngineConfig(merge_mode="exact", shards=4)
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
            config=EngineConfig(merge_mode="incremental"),
            merge_mode="exact",
        )
        assert engine.config.merge_mode == "exact"


class TestClusterConfigSync:
    def test_default_engine_always_populated(self):
        config = ClusterConfig()
        assert config.engine == EngineConfig()

    def test_engine_knobs_are_not_mirrored(self):
        with pytest.raises(TypeError):
            ClusterConfig(merge_mode="exact")
