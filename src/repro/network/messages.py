"""Message types exchanged between nodes (the message manager's vocabulary).

Four payload families cover every deployment in the evaluation:

* :class:`EventBatchMessage` — raw events, shipped upward by centralized
  deployments (CeBuffer/Scotty in Sec 6.4) and, with timestamps, by
  root-evaluated Desis groups that contain count-based windows.
* :class:`PartialBatchMessage` — Desis' per-*slice* partial results
  (Sec 5.1): slice records carrying per-selection-context operator
  partials, activity spans for session assembly, and user-defined end
  punctuations.
* :class:`WindowPartialMessage` — Disco's per-*window* partial results;
  one message per window per node, which is why Disco's traffic grows with
  the number of concurrent windows (Fig 11d) while Desis' does not.
* :class:`ControlMessage` — query distribution (with the topology),
  heartbeats, query removals, and Disco's progress marks (Sec 3.2).

When a :class:`~repro.network.simnet.FaultPlan` is active, three transport
types join them (the paper assumes lossless links, Sec 5; we do not):

* :class:`SequencedMessage` — the reliable-channel frame wrapping a data
  message with a per-link ``(epoch, seq)`` so the receiver can dedup and
  re-order deliveries.
* :class:`AckMessage` — receiver feedback: cumulative + selective acks
  that release the sender's retransmit buffer.
* :class:`ResyncMessage` — parent-to-child state resync after a
  soft-evicted node rejoins via the heartbeat path: per query-group the
  slice sequence to resume at and the coverage already assembled without
  the child.

Checkpointed recovery adds two more (see DESIGN.md §8):

* :class:`CheckpointMessage` — the header of a node's incremental state
  snapshot (sequence numbers, forward floors, per-child merge cursors,
  the root's emit ledger).  The same type doubles as the parent-to-child
  retention-trim broadcast: after persisting a checkpoint the parent
  tells its children the coverage floor below which shipped batches can
  never be asked for again.
* :class:`SnapshotChunk` — one piece of checkpointed state: a child's
  buffered (pending) slice records, one retained upward batch, or a root
  assembler's window-state blob.

Sharded (multi-core) execution adds two single-host frames (DESIGN.md
§13), carried over OS pipes with the same :class:`BinaryCodec`:

* :class:`ShardBatchMessage` — one shard's rows of a frame as columns,
  partitioned by the parent; the worker feeds them to its engine as
  columns, never building events.
* :class:`ShardResultMessage` — a worker's closed-window partials
  (:class:`ShardWindowRecord` entries) flowing back to the parent's
  deterministic reducer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.event import Event
from repro.core.types import OperatorKind

__all__ = [
    "ContextPartial",
    "SliceRecord",
    "PartialBatchMessage",
    "EventBatchMessage",
    "WindowPartialMessage",
    "ControlMessage",
    "SequencedMessage",
    "AckMessage",
    "ResyncMessage",
    "CheckpointMessage",
    "SnapshotChunk",
    "ShardBatchMessage",
    "ShardResultMessage",
    "ShardWindowRecord",
    "Message",
]


@dataclass(slots=True)
class ContextPartial:
    """One selection context's contribution to one slice record.

    Attributes:
        count: matching events inserted in the slice.
        ops: operator kind -> partial result (Sec 4.2.1 representations).
        span: ``(first_event_time, last_event_time)`` of the context's
            activity within the slice; present when the group contains
            session windows, enabling exact gap covering at the root
            (Sec 5.1.2).
        timed: ``(time, value)`` pairs, present only for root-evaluated
            groups containing count-based windows, whose ends only the
            root can determine (Sec 5.2).
    """

    count: int = 0
    ops: dict[OperatorKind, Any] = field(default_factory=dict)
    span: tuple[int, int] | None = None
    timed: list[tuple[int, float]] | None = None


@dataclass(slots=True)
class SliceRecord:
    """Partial results of one local/intermediate slice (Sec 5.1)."""

    start: int
    end: int
    contexts: dict[int, ContextPartial] = field(default_factory=dict)
    #: user-defined window end punctuations observed in the slice:
    #: (query_id, marker event time)
    userdef_eps: list[tuple[str, int]] = field(default_factory=list)


@dataclass(slots=True)
class PartialBatchMessage:
    """A node's per-slice partial results for one query-group.

    ``first_slice_seq`` is the auto-incrementing id of the first record
    (Sec 5.1.1); parents use the ids to detect duplicated or missing
    slices.  ``covered_to`` is the sender's progress watermark: it has
    emitted everything ending at or before this time.

    ``shed`` reports coverage that overload control deliberately dropped
    below this point of the tree: ``(node_id, start, end)`` intervals of
    whole slices shed from a bounded staging buffer (DESIGN.md §12).
    Shedding happens *before* sequence assignment, so the slice-seq
    protocol stays gapless; the intervals ride up with the next batch so
    the root can stamp affected windows with ``completeness < 1.0``.
    Empty (the default) costs zero wire bytes.
    """

    sender: str
    group_id: int
    first_slice_seq: int
    covered_to: int
    records: list[SliceRecord] = field(default_factory=list)
    #: coverage intervals shed below this hop: (node_id, start, end)
    shed: list[tuple[str, int, int]] = field(default_factory=list)


@dataclass(slots=True)
class EventBatchMessage:
    """Raw events forwarded toward the root (centralized aggregation)."""

    sender: str
    covered_to: int
    events: list[Event] = field(default_factory=list)


@dataclass(slots=True)
class WindowPartialMessage:
    """Disco-style per-window partial result (one window, one sender)."""

    sender: str
    query_id: str
    start: int
    end: int
    count: int
    covered_to: int
    ops: dict[OperatorKind, Any] = field(default_factory=dict)
    values: list[float] | None = None  # shipped events for holistic functions


@dataclass(slots=True)
class ControlMessage:
    """Cluster management traffic (Sec 3.2): the query set with the
    topology, heartbeats, query removals, and Disco's progress marks."""

    sender: str
    kind: str  # "queries" | "heartbeat" | "query_remove" | "progress"
    payload: Any = None


@dataclass(slots=True)
class AckMessage:
    """Receive-side acknowledgement for one reliable channel.

    ``sender`` is the acking (receiving) node; ``cumulative`` means every
    frame with ``seq < cumulative`` of ``epoch`` was delivered in order,
    and ``selective`` lists out-of-order frames buffered beyond it, so the
    sender retransmits only the real gaps.
    """

    sender: str
    epoch: int
    cumulative: int
    selective: list[int] = field(default_factory=list)


@dataclass(slots=True)
class ResyncMessage:
    """Parent-to-child state resync after a heartbeat-path rejoin.

    ``epoch`` is the new reliable-channel epoch the parent chose when it
    re-admitted the child (see
    :meth:`~repro.network.simnet.SimNetwork.expect_resync`); the child
    restarts its send channel at it, so frames it was still retrying from
    before the outage are rejected as stale.  ``entries`` maps
    ``group_id`` to ``(next_slice_seq, covered_to)``: the slice sequence
    the parent's merger expects next from this child, and the coverage
    boundary the parent has already assembled without it (the child prunes
    pending slice records at or before it — those windows closed degraded
    during the outage and must not be re-shipped).

    Checkpointed recovery reuses the same flow with two extra fields:
    ``recover=True`` means the parent restarted from a checkpoint and the
    entries are its restored merge cursors — the child fast-forwards and
    re-ships only the retained suffix past them (original sequence
    numbers, nothing pruned).  ``new_parent`` (failover) names the node
    that adopted the child after its old parent died permanently: the
    child reparents, renumbers its retained suffix past the adoption
    floors from slice seq 0, and re-ships to the adopter.
    """

    sender: str
    epoch: int = 0
    entries: dict[int, tuple[int, int]] = field(default_factory=dict)
    recover: bool = False
    new_parent: str = ""


@dataclass(slots=True)
class CheckpointMessage:
    """Checkpoint header — and, on the wire, the retention-trim broadcast.

    As the first chunk of a persisted snapshot it carries every scalar a
    node needs to resume: per-group ``(ship_seq, forward_floor,
    forwarded_to)``, the per-child reliable merge cursors, and (root only)
    the emit-sequence ledger for exactly-once emission.

    Sent parent-to-child after a checkpoint is saved, only ``safe_to``
    matters: per group, the coverage floor the parent has durably
    assembled past — children may drop retained upward batches whose
    ``covered_to`` is at or below it, because no recovery (restart *or*
    failover) can ever ask for them again.
    """

    sender: str
    checkpoint_id: int
    at: int
    emit_seq: int = 0
    #: group_id -> (ship_seq, forward_floor, forwarded_to)
    groups: dict[int, tuple[int, int, int]] = field(default_factory=dict)
    #: reliable merge cursors: (group_id, child, next_slice_seq, covered_to)
    cursors: list[tuple[int, str, int, int]] = field(default_factory=list)
    #: retention-trim floors: group_id -> safe coverage boundary
    safe_to: dict[int, int] = field(default_factory=dict)


@dataclass(slots=True)
class SnapshotChunk:
    """One piece of checkpointed node state.

    ``kind`` selects the payload shape:

    * ``"pending"`` — one merge child's buffered-but-unreleased slice
      records (``child`` names it; the matching cursor lives in the
      header).
    * ``"retained"`` — one retained upward batch (``seq`` is its original
      ``first_slice_seq``, ``covered`` its ``covered_to``) so a restarted
      intermediate can still serve a later parent recovery.
    * ``"assembler"`` — one root group's window-assembly state:
      ``records`` holds the live cells as slice records, ``state`` a
      deterministic JSON-able blob of per-query progress (fixed
      schedules, open sessions, open trips, open count windows).
    """

    sender: str
    checkpoint_id: int
    group_id: int
    kind: str  # "pending" | "retained" | "assembler"
    child: str = ""
    seq: int = 0
    covered: int = 0
    records: list[SliceRecord] = field(default_factory=list)
    state: Any = None


@dataclass(slots=True)
class ShardBatchMessage:
    """One shard's rows of one frame, as parallel columns.

    The parent routes every row to the shard that owns its key and sends
    each worker only its own rows (DESIGN.md §13): ``times``/``values``
    plus ``key_index``, each row's slot in the shard's *session* key
    table.  ``key_table`` carries just the keys this frame appends to
    that table, so a key's text crosses the pipe once.

    Every shard receives every frame, rows or not, because the
    watermarks are global.  ``advance_before`` (set on the first frame
    only) is the bootstrap origin: every worker anchors its fixed-window
    schedules at it before touching rows, so all shards agree on slice
    cuts.  ``advance_after`` is the frame's progress watermark (the last
    event time across all shards, or an explicit :meth:`advance` time);
    draining to it keeps every shard's stream clock synchronized at frame
    boundaries, which is what makes the per-frame close sets — and hence
    the reduce — deterministic.  The final frame carries ``close=True``
    and ``final_time``.
    """

    seq: int
    advance_before: int | None = None
    advance_after: int | None = None
    close: bool = False
    final_time: int | None = None
    times: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    #: keys new to this shard's session table, in slot order
    key_table: list[str] = field(default_factory=list)
    key_index: list[int] = field(default_factory=list)
    #: sparse ``(row, marker)`` pairs (the dedup signature reads them)
    markers: list[tuple[int, str]] = field(default_factory=list)


@dataclass(slots=True)
class ShardWindowRecord:
    """One closed window's raw operator partials from one shard.

    Identity across shards is ``(group_id, ctx, start, end, query_ids)``
    — never a close ordinal, because two windows closing within the same
    frame may close in different orders on different shards.  ``ops`` are
    the shard's merged operator partials for the window (the same
    representations :func:`~repro.core.operators.merge_many_partials`
    folds); ``emitted_at`` is the shard's stream time at close — the
    global emission time is the minimum across shards.
    """

    group_id: int
    ctx: int
    start: int
    end: int
    event_count: int
    emitted_at: int
    query_ids: tuple[str, ...] = ()
    ops: dict[OperatorKind, Any] = field(default_factory=dict)


@dataclass(slots=True)
class ShardResultMessage:
    """A worker's reply frame: closed windows, and on close, its totals.

    ``seq`` echoes the input frame that produced these windows (the
    parent uses it to bound in-flight frames per shard).  The final reply
    sets ``done=True`` and carries the worker's cumulative CPU busy time
    and its engine's stat counters; ``error`` reports a worker-side
    exception instead of killing the pipe silently.
    """

    shard: int
    seq: int
    windows: list[ShardWindowRecord] = field(default_factory=list)
    done: bool = False
    busy_ns: int = 0
    stats: dict[str, int] = field(default_factory=dict)
    error: str = ""


@dataclass(slots=True)
class SequencedMessage:
    """A reliable-channel frame: one data message with per-link ordering.

    ``epoch`` guards channel resets (a resync bumps it; stale-epoch frames
    and acks are discarded), ``seq`` is the per-``(link, epoch)``
    auto-incrementing frame number the receiver dedups and re-orders on.
    """

    epoch: int
    seq: int
    inner: "Message"


Message = (
    PartialBatchMessage
    | EventBatchMessage
    | WindowPartialMessage
    | ControlMessage
    | SequencedMessage
    | AckMessage
    | ResyncMessage
    | CheckpointMessage
    | SnapshotChunk
    | ShardBatchMessage
    | ShardResultMessage
)
