"""Unified engine configuration.

:class:`EngineConfig` is the one place an engine's behavioural knobs live:
``DesisSession``, ``AggregationEngine`` and ``ClusterConfig.engine`` all
take it.  It is frozen — a config is a value, shared freely between a
session, its engine, and (for sharded execution) every worker process
without aliasing hazards.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.errors import EngineError
from repro.core.types import SharingPolicy

__all__ = ["EngineConfig"]

_PUNCTUATION_MODES = ("heap", "scan")


@dataclass(slots=True, frozen=True)
class EngineConfig:
    """Every behavioural knob of a local aggregation engine.

    Attributes:
        policy: slice-sharing policy (Sec 4.3); ``FULL`` shares slices
            across all compatible queries.
        punctuation_mode: ``"heap"`` (punctuation min-heap) or ``"scan"``
            (linear scan of trackers, the baselines' cost model).
        emit_empty: emit results for windows that contained no events.
        shards: number of OS worker processes for sharded execution
            (DESIGN.md §13).  ``1`` runs the classic in-process engine;
            ``N >= 2`` partitions the stream by key hash across ``N``
            workers with a deterministic reduce at window close.
        shard_batch_size: events buffered before a frame is shipped to
            the workers (sharded execution only).
        measure_latency: attach a latency probe to the result path.
        latency_sample_every: probe sampling period, in events.
        latency_expiry_horizon_ms: probe expiry horizon for abandoned
            samples; ``None`` disables expiry.
    """

    policy: SharingPolicy = SharingPolicy.FULL
    punctuation_mode: str = "heap"
    emit_empty: bool = False
    shards: int = 1
    shard_batch_size: int = 4096
    measure_latency: bool = False
    latency_sample_every: int = 100
    latency_expiry_horizon_ms: int | None = 600_000

    def __post_init__(self) -> None:
        if self.punctuation_mode not in _PUNCTUATION_MODES:
            raise EngineError(
                f"unknown punctuation mode: {self.punctuation_mode!r} "
                f"(expected one of {_PUNCTUATION_MODES})"
            )
        if self.shards < 1:
            raise EngineError(f"shards must be >= 1, got {self.shards}")
        if self.shard_batch_size < 1:
            raise EngineError(
                f"shard_batch_size must be >= 1, got {self.shard_batch_size}"
            )
        if self.latency_sample_every < 1:
            raise EngineError(
                "latency_sample_every must be >= 1, got "
                f"{self.latency_sample_every}"
            )

    def with_options(self, **changes: Any) -> "EngineConfig":
        """A copy of this config with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
