"""Cluster deployment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.network.codec import BinaryCodec, Codec
from repro.network.simnet import FaultPlan

__all__ = ["ClusterConfig"]


@dataclass(slots=True)
class ClusterConfig:
    """Knobs shared by all decentralized deployments.

    Attributes:
        origin: global time origin (ms); every node anchors fixed-window
            schedules here so slices align across nodes (Sec 5.1.1).
            Event timestamps must be >= origin.
        tick_interval: watermark cadence (ms).  Locals force a slice cut
            and ship pending partial results every tick; it is also the
            granularity at which coverage advances, i.e. the paper's
            watermark for terminating data-driven windows (Sec 5.1.2).
            Local streams enter their nodes in batches cut on this grid
            and at the run's action times
            (:meth:`~repro.network.simnet.SimNetwork.inject_stream`).
        latency_ms: per-link one-way latency.
        bandwidth_bytes_per_ms: per-link bandwidth cap (``None`` =
            unlimited; ~131 bytes/ms models the Pi cluster's 1G Ethernet).
        codec: wire format of every frame on the network.
        node_timeout: silence after which a parent evicts a node (ms); a
            child whose upward channel stays credit-stalled this long is
            evicted as a slow consumer too.  Heartbeats follow from it
            (:attr:`heartbeat_interval`).
        batch_ms: read by nothing.  Its one setter is
            ``benchmarks/e2e/measure.py``, which builds
            ``ClusterConfig(tick_interval=100, batch_ms=100)``; the next
            change to the benchmark deletes this field together with
            that line.
        fault_plan: seeded description of link faults and node crashes
            (see :class:`~repro.network.simnet.FaultPlan`).  ``None`` (the
            default) keeps the lossless network byte-for-byte; any plan —
            even an all-zero one — routes data traffic through the
            reliable ack/retransmit channel.
        trace: opt into slice-lifecycle tracing: the deployment builds a
            :class:`~repro.obs.tracing.TraceRecorder`, threads it through
            every node and the network, and returns it on the run result.
            Off (the default) keeps all instrumented paths on the shared
            no-op recorder — byte-identical outputs, within-noise cost.
        checkpoint_interval: sim-time cadence (ms) at which intermediates
            and the root persist incremental state snapshots (DESIGN.md
            §8).  ``None`` (the default) disables checkpointing entirely —
            no snapshots, no retention trimming, zero overhead.
        checkpoint_store: the
            :class:`~repro.cluster.checkpoint.CheckpointStore` to persist
            snapshots into, e.g. a
            :class:`~repro.cluster.checkpoint.DirCheckpointStore` for
            on-disk ``.ckpt`` files.  ``None`` means an in-memory store.
        channel_credit_bytes: per-channel credit window in bytes.  A
            sender whose unacked reliable frames hold at least this many
            bytes has exhausted its credit: the channel reports *stalled*
            and upstream nodes stop flushing into it, accumulating slices
            in their bounded staging buffer instead.  Credits are granted
            back by the acks the receiver already piggybacks on every
            delivery (DESIGN.md §12).  ``None`` (the default) disables
            flow control on the byte axis.
        channel_credit_frames: per-channel credit window in frames
            (unacked sequenced messages).  Same semantics as
            ``channel_credit_bytes`` on the frame axis; ``None`` disables.
        staging_limit: cap on a node's per-group staging buffer (pending
            slice records not yet shipped).  When a flush is deferred by a
            stalled channel and the buffer would exceed this many records,
            the oldest whole slices are shed deterministically, down to
            ``SHED_WATERMARK`` (0.8) of the cap, and their coverage
            intervals are reported downstream so the root emits degraded
            windows with ``completeness < 1.0`` instead of silently wrong
            totals.  ``None`` (default) = unbounded.
        retention_limit: cap on the number of re-ship retention batches a
            node keeps for crash recovery.  Oldest batches are evicted
            beyond the cap (recovery may then need a checkpoint to cover
            the gap).  ``None`` (default) = unbounded.

    The reliable channel's retry policy is fixed
    (:data:`~repro.network.simnet.RETRANSMIT_TIMEOUT_MS`,
    :data:`~repro.network.simnet.MAX_RETRIES`).
    """

    origin: int = 0
    tick_interval: int = 1_000
    latency_ms: float = 1.0
    bandwidth_bytes_per_ms: float | None = None
    codec: Codec = field(default_factory=BinaryCodec)
    node_timeout: int = 15_000
    batch_ms: int | None = None
    fault_plan: FaultPlan | None = None
    trace: bool = False
    checkpoint_interval: int | None = None
    checkpoint_store: object | None = None
    channel_credit_bytes: int | None = None
    channel_credit_frames: int | None = None
    staging_limit: int | None = None
    retention_limit: int | None = None

    @property
    def heartbeat_interval(self) -> int:
        """Cadence of node heartbeats to the parent (ms): a third of
        ``node_timeout``, so a live node beats well inside the timeout,
        and at most 5 000.  It is also the cadence at which intermediates
        and the root tick for their liveness sweeps."""
        return max(1, min(5_000, self.node_timeout // 3))

    @property
    def overload_control(self) -> bool:
        """Whether any overload-control knob deviates from unbounded."""
        return (
            self.channel_credit_bytes is not None
            or self.channel_credit_frames is not None
            or self.staging_limit is not None
            or self.retention_limit is not None
        )
