"""Checkpoint persistence and state snapshot/restore helpers (DESIGN.md §8).

A checkpoint is a list of codec-serialized messages: one
:class:`~repro.network.messages.CheckpointMessage` header (sequence
numbers, forward floors, per-child merge cursors, the root's emit ledger)
followed by :class:`~repro.network.messages.SnapshotChunk` payloads — the
per-child pending slice records, the retained upward batches an
intermediate may still be asked to re-ship, and the root's per-group
window-assembly state.  Serializing through the codec keeps snapshots
deterministic (the same state always produces the same bytes) and reuses
the round-trip-fuzzed wire format instead of inventing a second one.

Stores are pluggable: :class:`InMemoryCheckpointStore` for simulation and
tests, :class:`DirCheckpointStore` for crash-surviving files written with
an atomic rename.  Only the latest checkpoint per node is kept — recovery
never reads history, and retention trimming is keyed off the newest floor.
"""

from __future__ import annotations

import os
from typing import Any

from repro.core.errors import ClusterError
from repro.core.operators import OperatorSetState
from repro.core.types import OperatorKind
from repro.network.codec import (
    BinaryCodec,
    _ops_from_jsonable,
    _ops_to_jsonable,
)
from repro.network.messages import (
    CheckpointMessage,
    Message,
    PartialBatchMessage,
    SnapshotChunk,
)

__all__ = [
    "CheckpointStore",
    "InMemoryCheckpointStore",
    "DirCheckpointStore",
    "encode_checkpoint",
    "decode_checkpoint",
    "merger_cursors",
    "pending_chunks",
    "restore_mergers",
    "retained_chunks",
    "restore_retained",
    "assembler_chunks",
    "restore_assembler",
    "seed_operator_set",
    "shed_chunks",
    "restore_shed",
]

#: canonical serialization for persisted chunks, independent of the wire
#: codec the deployment happens to use (a StringCodec cluster still saves
#: compact deterministic snapshots)
_CODEC = BinaryCodec()

_U32_MAX = 0xFFFFFFFF


class CheckpointStore:
    """Persistence interface: keep the latest checkpoint per node."""

    def save(self, node_id: str, checkpoint_id: int, chunks: list[bytes]) -> None:
        raise NotImplementedError

    def load_latest(self, node_id: str) -> tuple[int, list[bytes]] | None:
        """``(checkpoint_id, chunks)`` of the newest checkpoint, or ``None``."""
        raise NotImplementedError


class InMemoryCheckpointStore(CheckpointStore):
    """Latest-only in-process store (simulation and tests)."""

    def __init__(self) -> None:
        self._snapshots: dict[str, tuple[int, list[bytes]]] = {}
        self.saves = 0
        self.bytes_written = 0

    def save(self, node_id: str, checkpoint_id: int, chunks: list[bytes]) -> None:
        self._snapshots[node_id] = (checkpoint_id, list(chunks))
        self.saves += 1
        self.bytes_written += sum(len(chunk) for chunk in chunks)

    def load_latest(self, node_id: str) -> tuple[int, list[bytes]] | None:
        found = self._snapshots.get(node_id)
        if found is None:
            return None
        checkpoint_id, chunks = found
        return checkpoint_id, list(chunks)


class DirCheckpointStore(CheckpointStore):
    """One ``<node>.ckpt`` file per node, replaced atomically on save.

    File layout: ``u32 chunk-count`` then per chunk ``u32 length + bytes``,
    preceded by a ``u32`` checkpoint id.  The write goes to a ``.tmp``
    sibling first and is moved into place with :func:`os.replace`, so a
    crash mid-save leaves the previous checkpoint intact.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.saves = 0
        self.bytes_written = 0

    def _path(self, node_id: str) -> str:
        return os.path.join(self.directory, f"{node_id}.ckpt")

    def save(self, node_id: str, checkpoint_id: int, chunks: list[bytes]) -> None:
        if not 0 <= checkpoint_id <= _U32_MAX:
            raise ClusterError(f"checkpoint id out of range: {checkpoint_id}")
        parts = [checkpoint_id.to_bytes(4, "big"), len(chunks).to_bytes(4, "big")]
        for chunk in chunks:
            parts.append(len(chunk).to_bytes(4, "big"))
            parts.append(chunk)
        blob = b"".join(parts)
        path = self._path(node_id)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
        self.saves += 1
        self.bytes_written += len(blob)

    def load_latest(self, node_id: str) -> tuple[int, list[bytes]] | None:
        path = self._path(node_id)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            return None
        if len(blob) < 8:
            raise ClusterError(f"corrupt checkpoint file: {path}")
        checkpoint_id = int.from_bytes(blob[0:4], "big")
        count = int.from_bytes(blob[4:8], "big")
        chunks: list[bytes] = []
        pos = 8
        for _ in range(count):
            if pos + 4 > len(blob):
                raise ClusterError(f"corrupt checkpoint file: {path}")
            size = int.from_bytes(blob[pos : pos + 4], "big")
            pos += 4
            if pos + size > len(blob):
                raise ClusterError(f"corrupt checkpoint file: {path}")
            chunks.append(blob[pos : pos + size])
            pos += size
        return checkpoint_id, chunks


# -- serialization ---------------------------------------------------------------


def encode_checkpoint(messages: list[Message]) -> list[bytes]:
    return [_CODEC.encode(message) for message in messages]


def decode_checkpoint(
    blobs: list[bytes],
) -> tuple[CheckpointMessage, list[SnapshotChunk]]:
    """Split a loaded checkpoint back into its header and chunks."""
    if not blobs:
        raise ClusterError("empty checkpoint")
    header = _CODEC.decode(blobs[0])
    if not isinstance(header, CheckpointMessage):
        raise ClusterError(
            f"checkpoint does not start with a header: {type(header).__name__}"
        )
    chunks: list[SnapshotChunk] = []
    for blob in blobs[1:]:
        chunk = _CODEC.decode(blob)
        if not isinstance(chunk, SnapshotChunk):
            raise ClusterError(
                f"unexpected checkpoint chunk: {type(chunk).__name__}"
            )
        chunks.append(chunk)
    return header, chunks


# -- merger state ----------------------------------------------------------------


def merger_cursors(mergers) -> list[tuple[int, str, int, int]]:
    """Per-child reliable merge cursors for the checkpoint header."""
    return [
        (group_id, child, state.next_seq, state.covered)
        for group_id, merger in enumerate(mergers)
        for child, state in merger.children.items()
    ]


def pending_chunks(node_id: str, checkpoint_id: int, mergers) -> list[SnapshotChunk]:
    """One chunk per (group, child) with buffered-but-unreleased records."""
    return [
        SnapshotChunk(
            sender=node_id,
            checkpoint_id=checkpoint_id,
            group_id=group_id,
            kind="pending",
            child=child,
            records=list(state.pending),
        )
        for group_id, merger in enumerate(mergers)
        for child, state in merger.children.items()
        if state.pending
    ]


def restore_mergers(
    mergers, header: CheckpointMessage, chunks: list[SnapshotChunk]
) -> None:
    """Apply checkpointed coverage, cursors, and pending buffers to fresh
    mergers (children must already be attached)."""
    for group_id, (_, _, forwarded_to) in header.groups.items():
        if group_id < len(mergers):
            mergers[group_id].forwarded_to = forwarded_to
    for group_id, child, next_seq, covered in header.cursors:
        if group_id >= len(mergers):
            continue
        state = mergers[group_id].children.get(child)
        if state is not None:
            state.next_seq = next_seq
            state.covered = covered
    for chunk in chunks:
        if chunk.kind != "pending" or chunk.group_id >= len(mergers):
            continue
        state = mergers[chunk.group_id].children.get(chunk.child)
        if state is not None:
            state.pending = list(chunk.records)


# -- retained upward batches ------------------------------------------------------


def retained_chunks(
    node_id: str, checkpoint_id: int, retained: list[PartialBatchMessage]
) -> list[SnapshotChunk]:
    """The retained upward batches, in original ship order."""
    return [
        SnapshotChunk(
            sender=node_id,
            checkpoint_id=checkpoint_id,
            group_id=batch.group_id,
            kind="retained",
            seq=batch.first_slice_seq,
            covered=batch.covered_to,
            records=list(batch.records),
        )
        for batch in retained
    ]


def restore_retained(
    node_id: str, chunks: list[SnapshotChunk]
) -> list[PartialBatchMessage]:
    """Rebuild the retention list (chunk order is the original ship order)."""
    return [
        PartialBatchMessage(
            sender=node_id,
            group_id=chunk.group_id,
            first_slice_seq=chunk.seq,
            covered_to=chunk.covered,
            records=list(chunk.records),
        )
        for chunk in chunks
        if chunk.kind == "retained"
    ]


# -- shed-coverage ledger (DESIGN.md §12) ------------------------------------------


def shed_chunks(
    node_id: str, checkpoint_id: int, shed_pending: list[list[tuple[str, int, int]]]
) -> list[SnapshotChunk]:
    """One chunk per group with shed coverage not yet reported upward.

    The ledger is snapshot state: a recovering node must still forward the
    shed intervals it had accumulated, or the root would stamp affected
    windows complete after a crash.
    """
    return [
        SnapshotChunk(
            sender=node_id,
            checkpoint_id=checkpoint_id,
            group_id=group_id,
            kind="shed",
            state=[list(entry) for entry in entries],
        )
        for group_id, entries in enumerate(shed_pending)
        if entries
    ]


def restore_shed(
    n_groups: int, chunks: list[SnapshotChunk]
) -> list[list[tuple[str, int, int]]]:
    """Rebuild the per-group pending shed ledger from its chunks."""
    shed_pending: list[list[tuple[str, int, int]]] = [[] for _ in range(n_groups)]
    for chunk in chunks:
        if chunk.kind == "shed" and chunk.group_id < n_groups:
            shed_pending[chunk.group_id] = [
                (node, int(start), int(end)) for node, start, end in chunk.state
            ]
    return shed_pending


# -- root assembler state ---------------------------------------------------------


def seed_operator_set(kinds, inserts: int, partials: dict[OperatorKind, Any]):
    """Rebuild an :class:`OperatorSetState` from frozen partials.

    Exact for every operator: the scalar accumulators resume from the
    precise value they held, and sort buffers resume from the (sorted)
    value multiset — ``partial()`` sorts again on the next freeze, so the
    result is identical to an uninterrupted run.
    """
    ops = OperatorSetState(kinds)
    ops.inserts = inserts
    for state in ops.states:
        partial = partials.get(state.kind)
        if partial is None and state.kind is not OperatorKind.DECOMPOSABLE_SORT:
            continue
        if state.kind in (OperatorKind.SUM, OperatorKind.SUM_OF_SQUARES):
            state.total = float(partial)
        elif state.kind is OperatorKind.COUNT:
            state.count = int(partial)
        elif state.kind is OperatorKind.MULTIPLICATION:
            state.product = float(partial)
        elif state.kind is OperatorKind.DECOMPOSABLE_SORT:
            if partial is None:
                state.lo = None
                state.hi = None
            else:
                state.lo, state.hi = float(partial[0]), float(partial[1])
        elif state.kind is OperatorKind.NON_DECOMPOSABLE_SORT:
            state.values = [float(v) for v in partial]
    return ops


def assembler_chunks(node_id: str, checkpoint_id: int, assemblers) -> list[SnapshotChunk]:
    """One chunk per group with the record buffer and per-query progress."""
    chunks = []
    for assembler in assemblers:
        state = {
            "covered": assembler.covered,
            "base": assembler.base,
            "fixed": [
                [query.query_id, tracker.next_close_start]
                for tracker in assembler.fixed
                for query in tracker.queries
            ],
            "sessions": [
                [
                    s.query.query_id,
                    s.open_start,
                    s.last,
                    s.count,
                    _ops_to_jsonable(s.ops),
                ]
                for s in assembler.sessions
            ],
            "userdef": [
                [s.query.query_id, list(s.eps), s.prev_end, s.pointer]
                for s in assembler.userdef
            ],
            "counts": [
                [
                    s.query.query_id,
                    s.seen,
                    [
                        [start, ops.inserts, _ops_to_jsonable(ops.partials())]
                        for start, ops in s.open
                    ],
                ]
                for s in assembler.counts
            ],
        }
        if assembler.shed:
            # Optional key: checkpoints without shedding stay byte-identical
            # to pre-overload snapshots (restore uses ``.get`` defaults).
            state["shed"] = [list(entry) for entry in assembler.shed]
        chunks.append(
            SnapshotChunk(
                sender=node_id,
                checkpoint_id=checkpoint_id,
                group_id=assembler.group.group_id,
                kind="assembler",
                covered=assembler.covered,
                # Raw records where user-defined windows still read them
                # (restore re-folds those into cells), the cells otherwise.
                records=(
                    list(assembler.records)
                    if assembler.userdef
                    else assembler.cell_records()
                ),
                state=state,
            )
        )
    return chunks


def restore_assembler(assembler, chunk: SnapshotChunk) -> None:
    """Load one group's window-assembly progress from its chunk."""
    state = chunk.state or {}
    if assembler.userdef:
        assembler.records = list(chunk.records)
        assembler.ends = [record.end for record in assembler.records]
        assembler.base = state.get("base", 0)
    # Cells and Two-Stacks streams are derived state: whatever records the
    # chunk holds — this root's cells or a cell-less root's raw records —
    # fold into cells again.
    assembler.rebuild(chunk.records)
    assembler.covered = state.get("covered", assembler.origin)
    assembler.shed = [
        (node, int(start), int(end))
        for node, start, end in state.get("shed", [])
    ]
    fixed = {
        query.query_id: tracker
        for tracker in assembler.fixed
        for query in tracker.queries
    }
    for query_id, next_close_start in state.get("fixed", []):
        found = fixed.get(query_id)
        if found is not None:
            found.next_close_start = next_close_start
    sessions = {s.query.query_id: s for s in assembler.sessions}
    for query_id, open_start, last, count, ops in state.get("sessions", []):
        found = sessions.get(query_id)
        if found is None:
            continue
        found.open_start = open_start
        found.last = last
        found.count = count
        found.ops = _ops_from_jsonable(ops)
    userdef = {s.query.query_id: s for s in assembler.userdef}
    for query_id, eps, prev_end, pointer in state.get("userdef", []):
        found = userdef.get(query_id)
        if found is None:
            continue
        found.eps = list(eps)
        found.prev_end = prev_end
        found.pointer = pointer
    counts = {s.query.query_id: s for s in assembler.counts}
    for query_id, seen, open_windows in state.get("counts", []):
        found = counts.get(query_id)
        if found is None:
            continue
        found.seen = seen
        found.open = [
            (start, seed_operator_set(found.kinds, inserts, _ops_from_jsonable(ops)))
            for start, inserts, ops in open_windows
        ]
