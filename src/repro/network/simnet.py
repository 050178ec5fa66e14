"""A discrete-event simulated network (the message manager's substrate).

The paper runs on a 10-node 25G cluster and a Raspberry Pi 1G cluster;
here every node is a Python object and the network is simulated:

* messages are *really* serialized by a :class:`~repro.network.codec.Codec`
  and decoded on delivery, so byte counts are exact and serialization cost
  is paid;
* links have latency and an optional bandwidth cap; a saturated link
  queues messages (``busy_until``), which is how the Pi experiment's
  bandwidth ceiling appears (Fig 13);
* simulated time is milliseconds of event time, so event-time result
  latency falls out of ``emitted_at - window_end``;
* per-node wall-clock processing time is sampled around every handler
  call, giving the per-node-class latency/throughput breakdowns of
  Figures 7 and 12.

The paper assumes lossless links (Sec 5): partials arrive exactly once and
in order.  A seeded :class:`FaultPlan` drops that assumption — per-link
drop/duplicate/reorder probability, latency jitter, and node
crash/restart windows — and activates a reliable-delivery layer on every
link: data messages travel in :class:`~repro.network.messages.SequencedMessage`
frames with per-link ``(epoch, seq)`` numbers, receivers dedup and deliver
in order, and senders buffer unacked frames and retransmit on timeout with
exponential backoff.  Because per-link delivery order is then exactly the
lossless order, a cluster under any recoverable fault plan produces
byte-identical results (only ``emitted_at`` moves).  With no fault plan,
the wire format and accounting are unchanged — zero overhead.
"""

from __future__ import annotations

import heapq
import random
import time as _time
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.errors import TopologyError
from repro.core.event import Event
from repro.core.types import NodeRole
from repro.network.codec import BinaryCodec, Codec
from repro.network.messages import (
    AckMessage,
    CheckpointMessage,
    ControlMessage,
    Message,
    PartialBatchMessage,
    ResyncMessage,
    SequencedMessage,
)
from repro.obs.tracing import NULL_RECORDER

__all__ = [
    "SimNode",
    "Link",
    "SimNetwork",
    "NetworkStats",
    "FaultPlan",
    "LinkFaults",
    "CrashWindow",
]

_TICK = 1
_MESSAGE = 2
_EVENT_BATCH = 4
_RETRY = 5
_RESTART = 6

#: a stalled channel resumes once its unacked buffer is back down to this
#: share of the credit cap that stalled it (hysteresis, DESIGN.md §12)
CREDIT_RESUME_FRACTION = 0.8

#: simulated ms after its send that an unacked reliable frame is first
#: retransmitted; each later retry waits twice as long as the one before
#: (DESIGN.md §6)
RETRANSMIT_TIMEOUT_MS = 100.0
#: retransmissions of one frame before the channel abandons it and counts
#: it as ``retransmit_exhausted``
MAX_RETRIES = 8


@dataclass(frozen=True, slots=True)
class LinkFaults:
    """Fault probabilities for one directed link.

    Attributes:
        drop_rate: probability an in-flight copy is lost.
        duplicate_rate: probability the network injects a second copy.
        reorder_rate: probability a copy is held back by an extra delay of
            up to ``reorder_delay_ms`` (the explicit reordering knob;
            ``jitter_ms`` alone also reorders once it exceeds the
            inter-send spacing).
        reorder_delay_ms: maximum hold-back applied to reordered copies.
        jitter_ms: uniform extra latency applied to every delivered copy.
    """

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_delay_ms: float = 20.0
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "reorder_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


@dataclass(frozen=True, slots=True)
class CrashWindow:
    """Node ``node`` is down during ``[start, end)`` (simulated ms).

    Crash semantics are a network partition of an edge device that keeps
    buffering locally: the node's handlers still run (its sensor data is
    not invented away), but nothing it sends leaves the machine and
    everything addressed to it is dropped at the dead interface.  Reliable
    frames it sent stay buffered and are re-shipped after restart, so a
    crash shorter than the heartbeat eviction threshold is fully
    recoverable; a longer one triggers soft eviction and the heartbeat
    rejoin/resync path.

    ``end=None`` means the node never comes back — a permanent death; so
    does a finite ``end`` at or past the plan's sealed horizon (the
    end-of-stream boundary), since such a node can never rejoin before
    the run finishes.  Permanently dead senders stop burning retransmit
    timers (frames are abandoned as ``retransmit_exhausted``) and, for
    intermediates, trigger failover instead of waiting on a rejoin.

    ``lose_state=True`` escalates a restart from a partition to real
    process death: when the window closes the node's *state* is wiped and
    it recovers from its latest checkpoint (or from scratch) via
    :meth:`SimNode.on_restart`.
    """

    node: str
    start: int
    end: int | None = None
    lose_state: bool = False

    def __post_init__(self) -> None:
        if self.end is not None and self.end <= self.start:
            raise ValueError(
                f"crash window must have end > start, got [{self.start}, {self.end})"
            )


@dataclass(slots=True)
class FaultPlan:
    """A deterministic, seeded description of everything that goes wrong.

    Fault rolls use one :class:`random.Random` per directed link, seeded
    from ``(seed, src, dst)``, so a plan replays identically and links do
    not perturb each other's streams.  Setting a plan on a network (even
    an all-zero one) switches data traffic to the reliable channel;
    ``None`` keeps the lossless wire format byte-for-byte.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_delay_ms: float = 20.0
    jitter_ms: float = 0.0
    crashes: tuple[CrashWindow, ...] = ()
    #: per-link overrides; unlisted links use the plan-wide rates
    link_overrides: dict[tuple[str, str], LinkFaults] = field(default_factory=dict)
    #: end-of-stream boundary set by the deployment (see :meth:`seal`);
    #: crash windows reaching it are treated as permanent deaths
    horizon: int | None = None

    def __post_init__(self) -> None:
        self.crashes = tuple(self.crashes)
        # Validate the plan-wide rates by building the default LinkFaults.
        self._default()

    def _default(self) -> LinkFaults:
        return LinkFaults(
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
            reorder_delay_ms=self.reorder_delay_ms,
            jitter_ms=self.jitter_ms,
        )

    def for_link(self, src: str, dst: str) -> LinkFaults:
        override = self.link_overrides.get((src, dst))
        return override if override is not None else self._default()

    def rng_for_link(self, src: str, dst: str) -> random.Random:
        return random.Random(f"{self.seed}|{src}->{dst}")

    def seal(self, horizon: int) -> None:
        """Fix the end-of-stream boundary the deployment will run to.

        A crash window whose ``end`` is ``None`` or reaches the horizon can
        never restart within the run: :meth:`permanent` reports it, retry
        timers give up on its frames instead of rescheduling past the end
        of the simulation, and parents fail its children over rather than
        waiting for a rejoin that cannot happen.
        """
        self.horizon = int(horizon)

    def crashed(self, node: str, at: float) -> bool:
        return any(
            w.node == node and w.start <= at and (w.end is None or at < w.end)
            for w in self.crashes
        )

    def crash_end(self, node: str, at: float) -> float:
        """End of the crash window covering ``at`` (``at`` if none does)."""
        for w in self.crashes:
            if w.node == node and w.start <= at and (w.end is None or at < w.end):
                return float("inf") if w.end is None else float(w.end)
        return at

    def permanent(self, node: str, at: float) -> bool:
        """Is ``node`` dead at ``at`` with no restart before the horizon?"""
        for w in self.crashes:
            if w.node == node and w.start <= at and (w.end is None or at < w.end):
                return w.end is None or (
                    self.horizon is not None and w.end >= self.horizon
                )
        return False


class _SendChannel:
    """Sender half of one directed reliable channel."""

    __slots__ = ("epoch", "next_seq", "unacked", "retries", "unacked_bytes",
                 "stalled_since")

    def __init__(self) -> None:
        self.epoch = 0
        self.next_seq = 0
        #: seq -> (encoded frame, billed-as-control)
        self.unacked: dict[int, tuple[bytes, bool]] = {}
        self.retries: dict[int, int] = {}
        #: occupancy of the unacked buffer — the credit accounting
        self.unacked_bytes = 0
        #: sim time the channel ran out of credit (``None`` = has credit)
        self.stalled_since: float | None = None

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.next_seq = 0
        self.unacked.clear()
        self.retries.clear()
        self.unacked_bytes = 0
        self.stalled_since = None

    def drop_frame(self, seq: int) -> None:
        """Forget one unacked frame, keeping occupancy accounting exact."""
        entry = self.unacked.pop(seq, None)
        if entry is not None:
            self.unacked_bytes -= len(entry[0])
        self.retries.pop(seq, None)


class _RecvChannel:
    """Receiver half: in-order delivery with dedup."""

    __slots__ = ("epoch", "next_deliver", "buffer")

    def __init__(self) -> None:
        self.epoch = 0
        self.next_deliver = 0
        self.buffer: dict[int, Message] = {}

    def reset(self, epoch: int) -> None:
        self.epoch = epoch
        self.next_deliver = 0
        self.buffer.clear()


class SimNode:
    """Base class for simulated nodes.

    Subclasses override the ``on_*`` handlers; each handler may call
    :meth:`SimNetwork.send` to emit messages.  ``cpu_time`` accumulates the
    wall-clock seconds spent inside this node's handlers.
    """

    def __init__(self, node_id: str, role: NodeRole) -> None:
        self.node_id = node_id
        self.role = role
        self.cpu_time = 0.0
        self.events_handled = 0
        self.messages_handled = 0

    def on_events(self, events: list[Event], now: int, net: "SimNetwork") -> None:
        """A batch of in-order stream events arrived at this (local) node
        (see :meth:`SimNetwork.inject_stream`)."""

    def on_message(self, message: Message, now: int, net: "SimNetwork") -> None:
        """A message from another node was delivered."""

    def on_tick(self, now: int, net: "SimNetwork") -> None:
        """A scheduled watermark tick fired."""

    def on_finish(self, now: int, net: "SimNetwork") -> None:
        """The stream ended; flush all remaining state."""

    def on_restart(self, now: int, net: "SimNetwork") -> None:
        """The node's process died and restarted with empty state (a
        ``lose_state`` crash window closed); reload from the latest
        checkpoint, or rebuild from scratch when there is none."""


@dataclass(slots=True)
class Link:
    """A directed link with latency, optional bandwidth, and counters."""

    src: str
    dst: str
    latency_ms: float = 1.0
    #: bytes per simulated millisecond; ``None`` means unlimited.
    bandwidth_bytes_per_ms: float | None = None
    bytes_sent: int = 0
    control_bytes: int = 0
    messages_sent: int = 0
    busy_until: float = 0.0
    # -- fault-injection / reliability counters (all zero without a plan) --
    #: in-flight copies lost (fault drop, or a crashed endpoint)
    drops: int = 0
    #: extra copies injected by the network
    duplicates: int = 0
    #: bytes of duplicated *data* copies (control duplicates bill control)
    duplicate_data_bytes: int = 0
    #: timeout-triggered re-sends of unacked frames
    retransmits: int = 0
    retransmit_bytes: int = 0
    #: frames abandoned after ``MAX_RETRIES`` (the link gave up)
    retransmit_exhausted: int = 0
    acks: int = 0
    ack_bytes: int = 0
    #: frames discarded by receive-side dedup (duplicate or stale epoch)
    dedup_dropped: int = 0
    #: times the send channel ran out of flow-control credit (DESIGN.md §12)
    credit_stalls: int = 0

    def transfer(self, size: int, now: float, *, control: bool = False) -> float:
        """Account for ``size`` bytes leaving at ``now``; return arrival time."""
        self.bytes_sent += size
        if control:
            self.control_bytes += size
        self.messages_sent += 1
        start = max(now, self.busy_until)
        duration = (
            size / self.bandwidth_bytes_per_ms
            if self.bandwidth_bytes_per_ms
            else 0.0
        )
        self.busy_until = start + duration
        return self.busy_until + self.latency_ms


@dataclass(slots=True)
class NetworkStats:
    """Rolled-up traffic statistics."""

    bytes_by_link: dict[tuple[str, str], int] = field(default_factory=dict)
    messages_by_link: dict[tuple[str, str], int] = field(default_factory=dict)
    bytes_from_role: dict[NodeRole, int] = field(default_factory=dict)
    #: like ``bytes_from_role`` but excluding control traffic
    data_bytes_from_role: dict[NodeRole, int] = field(default_factory=dict)
    control_bytes: int = 0
    # -- reliability counters, rolled up over all links (zero without a
    #    fault plan: the default deployment pays nothing) --
    drops: int = 0
    duplicates: int = 0
    duplicate_data_bytes: int = 0
    retransmits: int = 0
    retransmit_bytes: int = 0
    retransmit_exhausted: int = 0
    acks: int = 0
    ack_bytes: int = 0
    dedup_dropped: int = 0
    # -- overload-control counters (zero unless credits/caps are on) --
    credit_stalls: int = 0
    #: serialized size of slice records shed from bounded staging buffers
    bytes_shed: int = 0
    records_shed: int = 0
    #: high-water occupancy of any single reliable send channel — with
    #: credits on this stays under the credit window; without, a slow
    #: link lets it grow with the backlog (the overload bench plots both)
    peak_unacked_bytes: int = 0
    peak_unacked_frames: int = 0

    @property
    def total_bytes(self) -> int:
        """All bytes on all links, control traffic included."""
        return sum(self.bytes_by_link.values())

    @property
    def data_bytes(self) -> int:
        """Bytes excluding control messages (queries, topology, heartbeats,
        progress, acks, resyncs) — the steady-state traffic Figure 11
        reports.  Under faults this still includes retransmitted and
        duplicated data copies: they crossed the wire; see
        :attr:`goodput_data_bytes` for the once-only payload."""
        return self.total_bytes - self.control_bytes

    @property
    def goodput_data_bytes(self) -> int:
        """Data bytes minus retransmitted and network-duplicated copies —
        what a lossless network would have carried."""
        return self.data_bytes - self.retransmit_bytes - self.duplicate_data_bytes

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_link.values())

    @property
    def local_bytes(self) -> int:
        """Data bytes sent by local nodes (Fig 11's first tier)."""
        return self.data_bytes_from_role.get(NodeRole.LOCAL, 0)

    @property
    def intermediate_bytes(self) -> int:
        """Data bytes sent by intermediate nodes (Fig 11's second tier)."""
        return self.data_bytes_from_role.get(NodeRole.INTERMEDIATE, 0)


class SimNetwork:
    """The discrete-event simulator driving nodes, links, and streams.

    Every link has the same latency and bandwidth, and one codec encodes
    and decodes every frame on the network.
    """

    def __init__(self, *, codec: Codec | None = None,
                 latency_ms: float = 1.0,
                 bandwidth_bytes_per_ms: float | None = None,
                 fault_plan: FaultPlan | None = None,
                 channel_credit_bytes: int | None = None,
                 channel_credit_frames: int | None = None,
                 recorder=None) -> None:
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.nodes: dict[str, SimNode] = {}
        self.links: dict[tuple[str, str], Link] = {}
        self.codec = codec if codec is not None else BinaryCodec()
        self.latency_ms = latency_ms
        self.bandwidth_bytes_per_ms = bandwidth_bytes_per_ms
        self.fault_plan = fault_plan
        # -- credit-based flow control (DESIGN.md §12); ``None`` = off --
        self.channel_credit_bytes = channel_credit_bytes
        self.channel_credit_frames = channel_credit_frames
        #: high-water marks over every send channel's unacked buffer
        self.peak_unacked_bytes = 0
        self.peak_unacked_frames = 0
        #: deterministic shedding totals reported by nodes (note_shed)
        self.bytes_shed = 0
        self.records_shed = 0
        self._send_channels: dict[tuple[str, str], _SendChannel] = {}
        self._recv_channels: dict[tuple[str, str], _RecvChannel] = {}
        self._rngs: dict[tuple[str, str], random.Random] = {}
        #: hard-removed nodes whose in-flight traffic must not lazily
        #: re-create channel state when it lands after the removal
        self._forgotten: set[str] = set()
        self._queue: list[tuple[float, int, int, object]] = []
        self._seq = 0
        self.now: float = 0.0
        self.delivered = 0

    # -- construction ------------------------------------------------------------

    def add_node(self, node: SimNode) -> None:
        if node.node_id in self.nodes:
            raise TopologyError(f"duplicate node id: {node.node_id!r}")
        self.nodes[node.node_id] = node
        self._forgotten.discard(node.node_id)

    def connect(self, src: str, dst: str) -> None:
        """Create the links in both directions between two nodes."""
        for a, b in ((src, dst), (dst, src)):
            if a not in self.nodes or b not in self.nodes:
                raise TopologyError(f"cannot link unknown nodes {a!r} -> {b!r}")
            self.links[(a, b)] = Link(
                src=a,
                dst=b,
                latency_ms=self.latency_ms,
                bandwidth_bytes_per_ms=self.bandwidth_bytes_per_ms,
            )

    # -- scheduling ----------------------------------------------------------------

    def _push(self, at: float, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, kind, payload))

    def inject_stream(
        self, node_id: str, events: Iterable[Event], grid: int,
        cuts: Sequence[float] = (),
    ) -> int:
        """Schedule a local node's events in batches at their own timestamps.

        Consecutive events are grouped into batches, each delivered
        through :meth:`SimNode.on_events` in a single handler call.  A
        batch starts at some event time ``t`` and extends through the
        events up to the next ``grid`` point ``>= t`` (the cadence
        watermark ticks fire on) or, if it comes first, the next of the
        sorted ``cuts`` ``>= t`` (the times a caller acts between queue
        pops, ``run(until=cut)``).  So no tick and no cut falls between
        a batch's first and last event.  The batch is scheduled at its
        first event's time; with a grid of 1 a batch holds exactly the
        events of one timestamp.

        Returns the last event time (or 0 for an empty stream).
        """
        if node_id not in self.nodes:
            raise TopologyError(f"unknown node: {node_id!r}")
        if grid <= 0:
            raise TopologyError(f"grid must be positive, got {grid}")
        last = 0
        batch: list[Event] = []
        boundary = 0
        for event in events:
            if batch and event.time > boundary:
                self._push(float(batch[0].time), _EVENT_BATCH, (node_id, batch))
                batch = []
            if not batch:
                # Smallest grid point >= the batch's first event: events at
                # exactly a tick time still precede that tick (they were
                # scheduled first).
                boundary = ((event.time + grid - 1) // grid) * grid
                i = bisect_left(cuts, event.time)
                if i < len(cuts) and cuts[i] < boundary:
                    boundary = cuts[i]
            batch.append(event)
            last = event.time
        if batch:
            self._push(float(batch[0].time), _EVENT_BATCH, (node_id, batch))
        return last

    def schedule_ticks(self, node_id: str, start: int, end: int, interval: int) -> None:
        """Schedule watermark ticks for a node at ``start + k*interval <= end``."""
        t = start + interval
        while t <= end:
            self._push(float(t), _TICK, (node_id, t))
            t += interval

    def schedule_restart(self, node_id: str, at: float) -> None:
        """Schedule a state-loss restart: :meth:`SimNode.on_restart` fires
        at ``at`` (the close of a ``lose_state`` crash window).  Scheduled
        up front by the deployment, so at equal timestamps the restart
        precedes message deliveries and retry timers pushed during the
        run."""
        self._push(at, _RESTART, node_id)

    def send(self, src: str, dst: str, message: Message) -> None:
        """Serialize, account, and schedule delivery of ``message``.

        Without a fault plan this is the lossless wire, byte-for-byte as
        before.  With one, unsequenced traffic (control, acks) is encoded
        and transmitted through the fault rolls fire-and-forget, while
        everything else rides the reliable channel: wrapped in a
        :class:`SequencedMessage`, buffered until acked, and retransmitted
        on timeout.  Resync messages count as control bytes but are
        sequenced — a lost resync must still arrive.
        """
        link = self.links.get((src, dst))
        if link is None:
            raise TopologyError(f"no link {src!r} -> {dst!r}")
        plan = self.fault_plan
        if plan is None:
            data = self.codec.encode(message)
            arrival = link.transfer(
                len(data), self.now, control=isinstance(message, ControlMessage)
            )
            self._push(arrival, _MESSAGE, (data, link))
            return
        control = isinstance(
            message, (ControlMessage, AckMessage, ResyncMessage, CheckpointMessage)
        )
        if isinstance(message, (ControlMessage, AckMessage)):
            if plan.crashed(src, self.now):
                link.drops += 1
                return
            self._transmit(link, self.codec.encode(message), control=control)
            return
        channel = self._send_channel(src, dst)
        seq = channel.next_seq
        channel.next_seq += 1
        data = self.codec.encode(
            SequencedMessage(epoch=channel.epoch, seq=seq, inner=message)
        )
        channel.unacked[seq] = (data, control)
        channel.unacked_bytes += len(data)
        if channel.unacked_bytes > self.peak_unacked_bytes:
            self.peak_unacked_bytes = channel.unacked_bytes
        if len(channel.unacked) > self.peak_unacked_frames:
            self.peak_unacked_frames = len(channel.unacked)
        self._update_stall(src, dst, channel)
        if (
            self.recorder.enabled
            and isinstance(message, PartialBatchMessage)
            and message.records
        ):
            self.recorder.record(
                "net.send",
                self.now,
                group=message.group_id,
                link=f"{src}->{dst}",
                seq=seq,
                epoch=channel.epoch,
                first_seq=message.first_slice_seq,
                records=len(message.records),
                start=message.records[0].start,
                end=message.records[-1].end,
            )
        if not plan.crashed(src, self.now):
            self._transmit(link, data, control=control)
        self._push(
            self.now + RETRANSMIT_TIMEOUT_MS,
            _RETRY,
            (src, dst, channel.epoch, seq),
        )

    # -- reliable channel plumbing --------------------------------------------------

    def _send_channel(self, src: str, dst: str) -> _SendChannel:
        channel = self._send_channels.get((src, dst))
        if channel is None:
            channel = self._send_channels[(src, dst)] = _SendChannel()
        return channel

    def _recv_channel(self, src: str, dst: str) -> _RecvChannel:
        channel = self._recv_channels.get((src, dst))
        if channel is None:
            channel = self._recv_channels[(src, dst)] = _RecvChannel()
        return channel

    def _rng(self, src: str, dst: str) -> random.Random:
        rng = self._rngs.get((src, dst))
        if rng is None:
            rng = self._rngs[(src, dst)] = self.fault_plan.rng_for_link(src, dst)
        return rng

    def _update_stall(self, src: str, dst: str, channel: _SendChannel) -> None:
        """Re-evaluate a channel's credit state after occupancy changed.

        A channel stalls when its unacked buffer reaches either credit cap
        and resumes, with hysteresis, once occupancy drops to
        :data:`CREDIT_RESUME_FRACTION` of the cap — acks are the credit grants
        (the receiver piggybacks them on every delivery), so no extra wire
        traffic is involved.
        """
        cap_bytes = self.channel_credit_bytes
        cap_frames = self.channel_credit_frames
        if cap_bytes is None and cap_frames is None:
            return
        if channel.stalled_since is None:
            exhausted = (
                cap_bytes is not None and channel.unacked_bytes >= cap_bytes
            ) or (
                cap_frames is not None and len(channel.unacked) >= cap_frames
            )
            if exhausted:
                channel.stalled_since = self.now
                link = self.links.get((src, dst))
                if link is not None:
                    link.credit_stalls += 1
                if self.recorder.enabled:
                    self.recorder.record(
                        "credit.stall",
                        self.now,
                        node=src,
                        link=f"{src}->{dst}",
                        unacked_bytes=channel.unacked_bytes,
                        unacked_frames=len(channel.unacked),
                    )
            return
        resume = CREDIT_RESUME_FRACTION
        below_bytes = (
            cap_bytes is None or channel.unacked_bytes <= cap_bytes * resume
        )
        below_frames = (
            cap_frames is None or len(channel.unacked) <= cap_frames * resume
        )
        if below_bytes and below_frames:
            channel.stalled_since = None

    def channel_stalled(self, src: str, dst: str) -> bool:
        """Whether the ``src -> dst`` reliable channel is out of credit."""
        channel = self._send_channels.get((src, dst))
        return channel is not None and channel.stalled_since is not None

    def channel_stalled_since(self, src: str, dst: str) -> float | None:
        """Sim time the channel stalled (``None`` when it has credit)."""
        channel = self._send_channels.get((src, dst))
        return channel.stalled_since if channel is not None else None

    def note_shed(self, node_id: str, group: int, records) -> int:
        """Account slice records shed from a node's bounded staging buffer.

        Returns the serialized size the shed records would have cost on the
        wire (measured with the network's codec — the shedding path is cold,
        so the extra encode is irrelevant).  Also emits the ``buffer.shed``
        trace event carrying the shed coverage span.
        """
        records = list(records)
        if not records:
            return 0
        probe = PartialBatchMessage(
            sender=node_id,
            group_id=group,
            first_slice_seq=0,
            covered_to=0,
            records=records,
        )
        nbytes = len(self.codec.encode(probe))
        self.records_shed += len(records)
        self.bytes_shed += nbytes
        if self.recorder.enabled:
            self.recorder.record(
                "buffer.shed",
                self.now,
                node=node_id,
                group=group,
                records=len(records),
                bytes=nbytes,
                start=records[0].start,
                end=records[-1].end,
            )
        return nbytes

    def forget_node_channels(self, node_id: str) -> None:
        """Free every reliable-channel (and fault-rng) entry touching
        ``node_id`` — called on hard removal so no per-child transport
        state outlives the node."""
        for table in (self._send_channels, self._recv_channels, self._rngs):
            for key in [k for k in table if node_id in k]:
                del table[key]
        # In-flight frames involving the node still sit in the event
        # queue; mark it so their late arrival cannot lazily re-create
        # the state freed above (re-registering the id clears the mark).
        self._forgotten.add(node_id)

    def reset_channel(self, src: str, dst: str, epoch: int) -> None:
        """Restart the ``src -> dst`` reliable channel at ``epoch``.

        Called on resync: the sender abandons its unacked backlog (those
        slices belong to windows the parent already closed without it) and
        renumbers from zero; stale-epoch frames still in flight are
        discarded by the receiver.
        """
        self._send_channel(src, dst).reset(epoch)

    def abandon_channel(self, src: str, dst: str) -> None:
        """Drop the ``src -> dst`` send backlog without renumbering.

        Used at failover, when ``dst`` is permanently dead and ``src`` has
        been adopted by another parent: the unacked frames can never be
        acked, and their retained payload is re-shipped to the adopter, so
        pending retry timers should find nothing to resend.
        """
        channel = self._send_channels.get((src, dst))
        if channel is not None:
            channel.unacked.clear()
            channel.retries.clear()
            channel.unacked_bytes = 0
            channel.stalled_since = None

    def expect_resync(self, src: str, dst: str) -> int:
        """Receiver-side half of a channel restart; returns the new epoch.

        The parent calls this when it re-admits an evicted child, so that
        pre-eviction frames the child is still retrying are rejected as
        stale instead of resurrecting the old slice sequence.
        """
        channel = self._recv_channel(src, dst)
        channel.reset(channel.epoch + 1)
        return channel.epoch

    def _transmit(self, link: Link, data: bytes, *, control: bool) -> None:
        """Put one message's copies on a link through the fault rolls."""
        plan = self.fault_plan
        faults = plan.for_link(link.src, link.dst)
        rng = self._rng(link.src, link.dst)
        copies = 1
        if faults.duplicate_rate and rng.random() < faults.duplicate_rate:
            copies = 2
        for copy in range(copies):
            arrival = link.transfer(len(data), self.now, control=control)
            if copy:
                link.duplicates += 1
                if not control:
                    link.duplicate_data_bytes += len(data)
            if faults.drop_rate and rng.random() < faults.drop_rate:
                link.drops += 1
                continue
            delay = 0.0
            if faults.jitter_ms:
                delay += rng.uniform(0.0, faults.jitter_ms)
            if faults.reorder_rate and rng.random() < faults.reorder_rate:
                delay += rng.uniform(0.0, faults.reorder_delay_ms)
            self._push(arrival + delay, _MESSAGE, (data, link))

    def _handle_retry(self, at: float, payload: tuple[str, str, int, int]) -> None:
        src, dst, epoch, seq = payload
        channel = self._send_channels.get((src, dst))
        if channel is None or channel.epoch != epoch or seq not in channel.unacked:
            return  # acked (or resynced away) meanwhile: no clock trace
        self.now = max(self.now, at)
        plan = self.fault_plan
        link = self.links[(src, dst)]
        data, control = channel.unacked[seq]
        if plan.crashed(src, self.now):
            if plan.permanent(src, self.now):
                # The sender never restarts within this run: abandon the
                # frame now rather than parking a timer past the horizon.
                channel.drop_frame(seq)
                self._update_stall(src, dst, channel)
                link.retransmit_exhausted += 1
                return
            # The interface is down; retry after restart without spending
            # the retry budget on a frame that never reached the wire.
            retry_at = max(plan.crash_end(src, self.now), at + RETRANSMIT_TIMEOUT_MS)
            self._push(retry_at, _RETRY, (src, dst, epoch, seq))
            return
        attempt = channel.retries.get(seq, 0) + 1
        if attempt > MAX_RETRIES:
            channel.drop_frame(seq)
            self._update_stall(src, dst, channel)
            link.retransmit_exhausted += 1
            return
        channel.retries[seq] = attempt
        link.retransmits += 1
        if not control:
            link.retransmit_bytes += len(data)
        if self.recorder.enabled:
            self.recorder.record(
                "net.retransmit",
                self.now,
                link=f"{src}->{dst}",
                seq=seq,
                attempt=attempt,
            )
        self._transmit(link, data, control=control)
        self._push(
            at + RETRANSMIT_TIMEOUT_MS * (2 ** attempt),
            _RETRY,
            (src, dst, epoch, seq),
        )

    def _handle_ack(self, receiver: str, ack: AckMessage) -> None:
        """Transport-level ack processing at the original sender."""
        channel = self._send_channels.get((receiver, ack.sender))
        if channel is None or channel.epoch != ack.epoch:
            return
        if self.recorder.enabled:
            # The data flowed receiver -> ack.sender; the ack rides the
            # reverse link back to the channel we are clearing here.
            self.recorder.record(
                "net.ack",
                self.now,
                link=f"{receiver}->{ack.sender}",
                epoch=ack.epoch,
                cumulative=ack.cumulative,
            )
        for seq in [s for s in channel.unacked if s < ack.cumulative]:
            channel.drop_frame(seq)
        for seq in ack.selective:
            if seq in channel.unacked:
                channel.drop_frame(seq)
        self._update_stall(receiver, ack.sender, channel)

    def _record_transit(
        self, link: Link, message: PartialBatchMessage, at: int
    ) -> None:
        """Trace a partial batch finishing its hop, just before delivery.

        Recorded ahead of ``node.on_message`` so a window's ``net.transit``
        always sequences before the ``merge.release`` / ``root.consume`` it
        enables — the span builder relies on that ordering.
        """
        self.recorder.record(
            "net.transit",
            at,
            group=message.group_id,
            link=f"{link.src}->{link.dst}",
            first_seq=message.first_slice_seq,
            records=len(message.records),
            start=message.records[0].start,
            end=message.records[-1].end,
        )

    def _deliver_frame(
        self, node: "SimNode", link: Link, frame: SequencedMessage
    ) -> None:
        """Dedup, re-order, deliver in sequence, and ack one data frame."""
        channel = self._recv_channel(link.src, link.dst)
        if frame.epoch > channel.epoch:
            channel.reset(frame.epoch)
        if frame.epoch < channel.epoch:
            link.dedup_dropped += 1
        elif frame.seq < channel.next_deliver or frame.seq in channel.buffer:
            link.dedup_dropped += 1
        else:
            channel.buffer[frame.seq] = frame.inner
        now = int(self.now)
        while channel.next_deliver in channel.buffer:
            inner = channel.buffer.pop(channel.next_deliver)
            channel.next_deliver += 1
            if (
                self.recorder.enabled
                and isinstance(inner, PartialBatchMessage)
                and inner.records
            ):
                self._record_transit(link, inner, now)
            node.on_message(inner, now, self)
            node.messages_handled += 1
            self.delivered += 1
        reverse = self.links.get((link.dst, link.src))
        if reverse is None:
            return  # no ack path: the sender will retry until exhausted
        ack = AckMessage(
            sender=link.dst,
            epoch=channel.epoch,
            cumulative=channel.next_deliver,
            selective=sorted(channel.buffer),
        )
        data = self.codec.encode(ack)
        reverse.acks += 1
        reverse.ack_bytes += len(data)
        self._transmit(reverse, data, control=True)

    # -- running ---------------------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Process queued activity in time order (optionally up to ``until``)."""
        queue = self._queue
        while queue:
            if until is not None and queue[0][0] > until:
                return
            at, _, kind, payload = heapq.heappop(queue)
            if kind == _RETRY:
                # _handle_retry advances the clock only when it acts, so
                # timers for long-acked frames leave no trace.
                self._handle_retry(at, payload)
                continue
            self.now = max(self.now, at)
            if kind == _EVENT_BATCH:
                node_id, events = payload
                node = self.nodes[node_id]
                started = _time.perf_counter()
                node.on_events(events, int(self.now), self)
                node.cpu_time += _time.perf_counter() - started
                node.events_handled += len(events)
            elif kind == _MESSAGE:
                data, link = payload
                node_id = link.dst
                if self.fault_plan is not None and self.fault_plan.crashed(
                    node_id, self.now
                ):
                    link.drops += 1  # dead interface: nothing gets in
                    continue
                if link.src in self._forgotten or link.dst in self._forgotten:
                    # A hard-removed peer: late frames (and the acks they
                    # would trigger) fall on the floor instead of lazily
                    # resurrecting freed channel state.
                    link.drops += 1
                    continue
                node = self.nodes[node_id]
                started = _time.perf_counter()
                message = self.codec.decode(data)
                if isinstance(message, AckMessage):
                    # Transport housekeeping at the sender; no node handler
                    # runs and no cpu time is billed to the node.
                    self._handle_ack(node_id, message)
                elif isinstance(message, SequencedMessage):
                    self._deliver_frame(node, link, message)
                    node.cpu_time += _time.perf_counter() - started
                else:
                    if (
                        self.recorder.enabled
                        and isinstance(message, PartialBatchMessage)
                        and message.records
                    ):
                        self._record_transit(link, message, int(self.now))
                    node.on_message(message, int(self.now), self)
                    node.cpu_time += _time.perf_counter() - started
                    node.messages_handled += 1
                    self.delivered += 1
            elif kind == _TICK:
                node_id, tick_time = payload
                node = self.nodes[node_id]
                started = _time.perf_counter()
                node.on_tick(tick_time, self)
                node.cpu_time += _time.perf_counter() - started
            elif kind == _RESTART:
                node = self.nodes.get(payload)
                if node is None:
                    continue  # removed (e.g. failed over) before restarting
                started = _time.perf_counter()
                node.on_restart(int(self.now), self)
                node.cpu_time += _time.perf_counter() - started

    # -- statistics --------------------------------------------------------------------

    def stats(self) -> NetworkStats:
        stats = NetworkStats()
        for (src, dst), link in self.links.items():
            # Reliability counters aggregate before the idle-link skip: a
            # crashed sender's dropped control messages bill no bytes.
            stats.drops += link.drops
            stats.duplicates += link.duplicates
            stats.duplicate_data_bytes += link.duplicate_data_bytes
            stats.retransmits += link.retransmits
            stats.retransmit_bytes += link.retransmit_bytes
            stats.retransmit_exhausted += link.retransmit_exhausted
            stats.acks += link.acks
            stats.ack_bytes += link.ack_bytes
            stats.dedup_dropped += link.dedup_dropped
            stats.credit_stalls += link.credit_stalls
            if link.messages_sent == 0:
                continue
            stats.bytes_by_link[(src, dst)] = link.bytes_sent
            stats.messages_by_link[(src, dst)] = link.messages_sent
            stats.control_bytes += link.control_bytes
            role = self.nodes[src].role
            stats.bytes_from_role[role] = (
                stats.bytes_from_role.get(role, 0) + link.bytes_sent
            )
            stats.data_bytes_from_role[role] = (
                stats.data_bytes_from_role.get(role, 0)
                + link.bytes_sent
                - link.control_bytes
            )
        # Shedding happens before serialization, so its totals live on the
        # network (reported by nodes via note_shed), not on any link.
        stats.bytes_shed = self.bytes_shed
        stats.records_shed = self.records_shed
        stats.peak_unacked_bytes = self.peak_unacked_bytes
        stats.peak_unacked_frames = self.peak_unacked_frames
        return stats

    def cpu_time_by_role(self) -> dict[NodeRole, float]:
        """Total handler wall-clock seconds per node role."""
        rollup: dict[NodeRole, float] = defaultdict(float)
        for node in self.nodes.values():
            rollup[node.role] += node.cpu_time
        return dict(rollup)
