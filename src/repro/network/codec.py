"""Message codecs: compact binary and Disco-style strings.

Network overhead in the evaluation is the number of bytes that actually
cross each link, so messages are really encoded (and decoded on delivery)
rather than size-estimated:

* :class:`BinaryCodec` — a compact ``struct``-based wire format.  Desis,
  Scotty, and CeBuffer "send bytes directly" (Sec 6.4.1).
* :class:`StringCodec` — JSON text.  Disco "uses strings to send events
  and messages between nodes", which is why its traffic is higher for the
  same payload (Fig 11b).
"""

from __future__ import annotations

import json
import struct
from typing import Any

from repro.core.errors import CodecError
from repro.core.event import Event
from repro.core.types import OperatorKind
from repro.network.messages import (
    AckMessage,
    CheckpointMessage,
    ContextPartial,
    ControlMessage,
    EventBatchMessage,
    Message,
    PartialBatchMessage,
    ResyncMessage,
    SequencedMessage,
    ShardBatchMessage,
    ShardResultMessage,
    ShardWindowRecord,
    SliceRecord,
    SnapshotChunk,
    WindowPartialMessage,
)

__all__ = ["Codec", "BinaryCodec", "StringCodec", "FRAME_HEADER_BYTES"]

_TAG_PARTIAL = 1
_TAG_EVENTS = 2
_TAG_WINDOW = 3
_TAG_CONTROL = 4
_TAG_SEQUENCED = 5
_TAG_ACK = 6
_TAG_RESYNC = 7
_TAG_CHECKPOINT = 8
_TAG_SNAPSHOT = 9
_TAG_SHARD_BATCH = 10
_TAG_SHARD_RESULT = 11

#: wire overhead a :class:`SequencedMessage` envelope adds to its inner
#: message in the binary codec: tag (u8) + epoch (u32) + seq (i64).
FRAME_HEADER_BYTES = 13

_OP_CODES = {kind: code for code, kind in enumerate(OperatorKind)}
_OP_KINDS = {code: kind for kind, code in _OP_CODES.items()}

_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

# The slice-record path packs and unpacks one Struct per fixed-layout
# stretch: a call per stretch, not per field, is where its speed comes
# from.  The layout itself is pinned by tests/network/test_wire_golden.py.
_BATCH_HEAD = struct.Struct(">Hqq")  # group id, first slice seq, covered_to
_RECORD_HEAD = struct.Struct(">qqH")  # start, end, context count
_CONTEXT_HEAD = struct.Struct(">HIB")  # ctx, event count, flags
_SPAN = struct.Struct(">qq")
_OP_F64 = struct.Struct(">Bd")  # op code, scalar partial
_OP_I64 = struct.Struct(">Bq")  # op code, count
_OP_EXTREMA = struct.Struct(">BBdd")  # op code, present, min, max
_F64_PAIR = struct.Struct(">dd")

_FLOAT_OPS = frozenset(
    (OperatorKind.SUM, OperatorKind.MULTIPLICATION, OperatorKind.SUM_OF_SQUARES)
)

#: bound on the float-array Struct memo: partial batches reuse a handful
#: of run lengths, but raw value arrays can take any length — beyond the
#: bound, odd sizes fall back to one-shot pack/unpack instead of growing
#: the table forever.
_FLOAT_STRUCT_CACHE_MAX = 256
_float_structs: dict[int, struct.Struct] = {}


def _float_struct(n: int) -> struct.Struct:
    """A cached big-endian ``n``-float Struct (compiled format strings)."""
    cached = _float_structs.get(n)
    if cached is None:
        cached = struct.Struct(f">{n}d")
        if len(_float_structs) < _FLOAT_STRUCT_CACHE_MAX:
            _float_structs[n] = cached
    return cached


class _Writer:
    __slots__ = ("parts",)

    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def u8(self, v: int) -> None:
        self.parts.append(_U8.pack(v))

    def u16(self, v: int) -> None:
        self.parts.append(_U16.pack(v))

    def u32(self, v: int) -> None:
        self.parts.append(_U32.pack(v))

    def i64(self, v: int) -> None:
        self.parts.append(_I64.pack(v))

    def f64(self, v: float) -> None:
        self.parts.append(_F64.pack(v))

    def text(self, s: str) -> None:
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise CodecError(f"string too long to encode: {len(raw)} bytes")
        self.u16(len(raw))
        self.parts.append(raw)

    def floats(self, values) -> None:
        self.u32(len(values))
        self.parts.append(_float_struct(len(values)).pack(*values))

    def column(self, code: str, values) -> None:
        """One shard-batch column (struct type ``code``), little-endian:
        these frames never leave the host, and CPython packs ``<q`` about
        three times faster than ``>q`` on the little-endian hosts it
        runs on."""
        self.u32(len(values))
        self.parts.append(struct.pack(f"<{len(values)}{code}", *values))

    def bytes(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _take(self, fmt: struct.Struct):
        value = fmt.unpack_from(self.data, self.pos)[0]
        self.pos += fmt.size
        return value

    def u8(self) -> int:
        return self._take(_U8)

    def u16(self) -> int:
        return self._take(_U16)

    def u32(self) -> int:
        return self._take(_U32)

    def i64(self) -> int:
        return self._take(_I64)

    def f64(self) -> float:
        return self._take(_F64)

    def raw(self, n: int) -> bytes:
        """``n`` bytes; a slice past the end would come back short
        without complaint, so the length is checked here."""
        end = self.pos + n
        if end > len(self.data):
            raise CodecError(f"truncated message: {n}-byte block cut short")
        raw = self.data[self.pos : end]
        self.pos = end
        return raw

    def text(self) -> str:
        return self.raw(self.u16()).decode("utf-8")

    def floats(self) -> list[float]:
        n = self.u32()
        values = list(_float_struct(n).unpack_from(self.data, self.pos))
        self.pos += 8 * n
        return values

    def column(self, code: str) -> list:
        fmt = struct.Struct(f"<{self.u32()}{code}")
        values = list(fmt.unpack_from(self.data, self.pos))
        self.pos += fmt.size
        return values


class Codec:
    """Codec interface: ``encode`` to bytes, ``decode`` back to a message."""

    name = "abstract"

    def encode(self, message: Message) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes) -> Message:
        raise NotImplementedError


class BinaryCodec(Codec):
    """Compact struct-based wire format (Desis / Scotty / CeBuffer)."""

    name = "binary"

    # -- encoding ---------------------------------------------------------------

    def encode(self, message: Message) -> bytes:
        w = _Writer()
        if isinstance(message, SequencedMessage):
            self._encode_sequenced(w, message)
        else:
            self._encode_any(w, message)
        return w.bytes()

    def _encode_ops(self, w: _Writer, ops: dict[OperatorKind, Any]) -> None:
        append = w.parts.append
        append(_U8.pack(len(ops)))
        for kind, partial in ops.items():
            code = _OP_CODES[kind]
            if kind in _FLOAT_OPS:
                append(_OP_F64.pack(code, float(partial)))
            elif kind is OperatorKind.COUNT:
                append(_OP_I64.pack(code, int(partial)))
            elif kind is OperatorKind.DECOMPOSABLE_SORT:
                if partial is None:
                    append(bytes((code, 0)))
                else:
                    append(_OP_EXTREMA.pack(code, 1, partial[0], partial[1]))
            elif kind is OperatorKind.NON_DECOMPOSABLE_SORT:
                w.u8(code)
                w.floats(partial)
            else:  # pragma: no cover - enum exhaustive
                raise CodecError(f"cannot encode operator {kind!r}")

    def _decode_ops(self, r: _Reader) -> dict[OperatorKind, Any]:
        """The op-set at ``r.pos``.  Single bytes are read by indexing,
        payloads by one ``unpack_from`` each: both raise on a short
        buffer (see :meth:`decode`)."""
        data = r.data
        ops: dict[OperatorKind, Any] = {}
        count = data[r.pos]
        r.pos += 1
        for _ in range(count):
            kind = _OP_KINDS[data[r.pos]]
            r.pos += 1
            if kind in _FLOAT_OPS:
                (ops[kind],) = _F64.unpack_from(data, r.pos)
                r.pos += 8
            elif kind is OperatorKind.COUNT:
                (ops[kind],) = _I64.unpack_from(data, r.pos)
                r.pos += 8
            elif kind is OperatorKind.DECOMPOSABLE_SORT:
                if data[r.pos]:
                    ops[kind] = _F64_PAIR.unpack_from(data, r.pos + 1)
                    r.pos += 17
                else:
                    ops[kind] = None
                    r.pos += 1
            else:
                ops[kind] = r.floats()
        return ops

    def _encode_records(self, w: _Writer, records: list[SliceRecord]) -> None:
        append = w.parts.append
        append(_U32.pack(len(records)))
        for record in records:
            contexts = record.contexts
            append(_RECORD_HEAD.pack(record.start, record.end, len(contexts)))
            for ctx, part in contexts.items():
                span, timed = part.span, part.timed
                flags = (span is not None) | (timed is not None) << 1
                append(_CONTEXT_HEAD.pack(ctx, part.count, flags))
                if span is not None:
                    append(_SPAN.pack(span[0], span[1]))
                self._encode_ops(w, part.ops)
                if timed is not None:
                    w.u32(len(timed))
                    for time, value in timed:
                        w.i64(time)
                        w.f64(value)
            append(_U16.pack(len(record.userdef_eps)))
            for query_id, end in record.userdef_eps:
                w.text(query_id)
                w.i64(end)

    def _decode_records(self, r: _Reader) -> list[SliceRecord]:
        data = r.data
        records = []
        for _ in range(r.u32()):
            start, end, context_count = _RECORD_HEAD.unpack_from(data, r.pos)
            r.pos += _RECORD_HEAD.size
            contexts: dict[int, ContextPartial] = {}
            for _ in range(context_count):
                ctx, count, flags = _CONTEXT_HEAD.unpack_from(data, r.pos)
                r.pos += _CONTEXT_HEAD.size
                span = None
                if flags & 1:
                    span = _SPAN.unpack_from(data, r.pos)
                    r.pos += _SPAN.size
                ops = self._decode_ops(r)
                timed = None
                if flags & 2:
                    timed = [(r.i64(), r.f64()) for _ in range(r.u32())]
                contexts[ctx] = ContextPartial(count, ops, span, timed)
            eps = [(r.text(), r.i64()) for _ in range(r.u16())]
            records.append(SliceRecord(start, end, contexts, eps))
        return records

    def _encode_partial(self, w: _Writer, msg: PartialBatchMessage) -> None:
        w.u8(_TAG_PARTIAL)
        w.text(msg.sender)
        w.parts.append(
            _BATCH_HEAD.pack(msg.group_id, msg.first_slice_seq, msg.covered_to)
        )
        self._encode_records(w, msg.records)
        # Shed-coverage report is a trailing optional block: absent when
        # nothing was shed, so overload-free traffic stays byte-identical.
        # Partial batches are always tail-positioned (a sequenced frame
        # encodes its inner message last), which makes presence detectable
        # from the remaining buffer length.
        if msg.shed:
            w.u32(len(msg.shed))
            for node_id, start, end in msg.shed:
                w.text(node_id)
                w.i64(start)
                w.i64(end)

    def _decode_partial(self, r: _Reader) -> PartialBatchMessage:
        sender = r.text()
        group_id, first_seq, covered = _BATCH_HEAD.unpack_from(r.data, r.pos)
        r.pos += _BATCH_HEAD.size
        records = self._decode_records(r)
        shed: list[tuple[str, int, int]] = []
        if r.pos < len(r.data):
            shed = [
                (r.text(), r.i64(), r.i64()) for _ in range(r.u32())
            ]
            if not shed:
                raise CodecError("empty shed block: trailing bytes")
        return PartialBatchMessage(
            sender=sender,
            group_id=group_id,
            first_slice_seq=first_seq,
            covered_to=covered,
            records=records,
            shed=shed,
        )

    def _encode_events(self, w: _Writer, msg: EventBatchMessage) -> None:
        w.u8(_TAG_EVENTS)
        w.text(msg.sender)
        w.i64(msg.covered_to)
        w.u32(len(msg.events))
        for event in msg.events:
            w.i64(event.time)
            w.text(event.key)
            w.f64(event.value)
            if event.marker is None:
                w.u8(0)
            else:
                w.u8(1)
                w.text(event.marker)

    def _decode_events(self, r: _Reader) -> EventBatchMessage:
        sender = r.text()
        covered = r.i64()
        events = []
        for _ in range(r.u32()):
            time = r.i64()
            key = r.text()
            value = r.f64()
            marker = r.text() if r.u8() else None
            events.append(Event(time, key, value, marker))
        return EventBatchMessage(sender=sender, covered_to=covered, events=events)

    def _encode_window(self, w: _Writer, msg: WindowPartialMessage) -> None:
        w.u8(_TAG_WINDOW)
        w.text(msg.sender)
        w.text(msg.query_id)
        w.i64(msg.start)
        w.i64(msg.end)
        w.u32(msg.count)
        w.i64(msg.covered_to)
        self._encode_ops(w, msg.ops)
        if msg.values is None:
            w.u8(0)
        else:
            w.u8(1)
            w.floats(msg.values)

    def _decode_window(self, r: _Reader) -> WindowPartialMessage:
        sender = r.text()
        query_id = r.text()
        start = r.i64()
        end = r.i64()
        count = r.u32()
        covered = r.i64()
        ops = self._decode_ops(r)
        values = r.floats() if r.u8() else None
        return WindowPartialMessage(
            sender=sender,
            query_id=query_id,
            start=start,
            end=end,
            count=count,
            covered_to=covered,
            ops=ops,
            values=values,
        )

    def _encode_control(self, w: _Writer, msg: ControlMessage) -> None:
        w.u8(_TAG_CONTROL)
        w.text(msg.sender)
        w.text(msg.kind)
        try:
            payload = json.dumps(msg.payload)
        except TypeError as exc:
            raise CodecError(f"control payload not JSON-serializable: {exc}") from exc
        raw = payload.encode("utf-8")
        w.u32(len(raw))
        w.parts.append(raw)

    def _decode_control(self, r: _Reader) -> ControlMessage:
        sender = r.text()
        kind = r.text()
        raw = r.raw(r.u32())
        return ControlMessage(
            sender=sender, kind=kind, payload=json.loads(raw.decode("utf-8"))
        )

    def _encode_sequenced(self, w: _Writer, msg: SequencedMessage) -> None:
        if isinstance(msg.inner, SequencedMessage):
            raise CodecError("sequenced frames do not nest")
        w.u8(_TAG_SEQUENCED)
        w.u32(msg.epoch)
        w.i64(msg.seq)
        self._encode_any(w, msg.inner)

    def _decode_sequenced(self, r: _Reader) -> SequencedMessage:
        epoch = r.u32()
        seq = r.i64()
        inner = self._decode_any(r)
        if isinstance(inner, SequencedMessage):
            raise CodecError("sequenced frames do not nest")
        return SequencedMessage(epoch=epoch, seq=seq, inner=inner)

    def _encode_ack(self, w: _Writer, msg: AckMessage) -> None:
        w.u8(_TAG_ACK)
        w.text(msg.sender)
        w.u32(msg.epoch)
        w.i64(msg.cumulative)
        w.u16(len(msg.selective))
        for seq in msg.selective:
            w.i64(seq)

    def _decode_ack(self, r: _Reader) -> AckMessage:
        sender = r.text()
        epoch = r.u32()
        cumulative = r.i64()
        selective = [r.i64() for _ in range(r.u16())]
        return AckMessage(
            sender=sender, epoch=epoch, cumulative=cumulative, selective=selective
        )

    def _encode_resync(self, w: _Writer, msg: ResyncMessage) -> None:
        w.u8(_TAG_RESYNC)
        w.text(msg.sender)
        w.u32(msg.epoch)
        w.u16(len(msg.entries))
        for group_id, (next_seq, covered_to) in msg.entries.items():
            w.u16(group_id)
            w.i64(next_seq)
            w.i64(covered_to)
        flags = (1 if msg.recover else 0) | (2 if msg.new_parent else 0)
        w.u8(flags)
        if msg.new_parent:
            w.text(msg.new_parent)

    def _decode_resync(self, r: _Reader) -> ResyncMessage:
        sender = r.text()
        epoch = r.u32()
        entries = {}
        for _ in range(r.u16()):
            group_id = r.u16()
            entries[group_id] = (r.i64(), r.i64())
        flags = r.u8()
        new_parent = r.text() if flags & 2 else ""
        return ResyncMessage(
            sender=sender,
            epoch=epoch,
            entries=entries,
            recover=bool(flags & 1),
            new_parent=new_parent,
        )

    def _encode_checkpoint(self, w: _Writer, msg: CheckpointMessage) -> None:
        w.u8(_TAG_CHECKPOINT)
        w.text(msg.sender)
        w.i64(msg.checkpoint_id)
        w.i64(msg.at)
        w.i64(msg.emit_seq)
        w.u16(len(msg.groups))
        for group_id, (ship_seq, floor, forwarded) in msg.groups.items():
            w.u16(group_id)
            w.i64(ship_seq)
            w.i64(floor)
            w.i64(forwarded)
        w.u32(len(msg.cursors))
        for group_id, child, next_seq, covered in msg.cursors:
            w.u16(group_id)
            w.text(child)
            w.i64(next_seq)
            w.i64(covered)
        w.u16(len(msg.safe_to))
        for group_id, safe in msg.safe_to.items():
            w.u16(group_id)
            w.i64(safe)

    def _decode_checkpoint(self, r: _Reader) -> CheckpointMessage:
        sender = r.text()
        checkpoint_id = r.i64()
        at = r.i64()
        emit_seq = r.i64()
        groups = {}
        for _ in range(r.u16()):
            group_id = r.u16()
            groups[group_id] = (r.i64(), r.i64(), r.i64())
        cursors = []
        for _ in range(r.u32()):
            group_id = r.u16()
            child = r.text()
            cursors.append((group_id, child, r.i64(), r.i64()))
        safe_to = {}
        for _ in range(r.u16()):
            group_id = r.u16()
            safe_to[group_id] = r.i64()
        return CheckpointMessage(
            sender=sender,
            checkpoint_id=checkpoint_id,
            at=at,
            emit_seq=emit_seq,
            groups=groups,
            cursors=cursors,
            safe_to=safe_to,
        )

    def _encode_snapshot(self, w: _Writer, msg: SnapshotChunk) -> None:
        w.u8(_TAG_SNAPSHOT)
        w.text(msg.sender)
        w.i64(msg.checkpoint_id)
        w.u16(msg.group_id)
        w.text(msg.kind)
        w.text(msg.child)
        w.i64(msg.seq)
        w.i64(msg.covered)
        self._encode_records(w, msg.records)
        if msg.state is None:
            w.u8(0)
        else:
            w.u8(1)
            try:
                raw = json.dumps(msg.state, sort_keys=True).encode("utf-8")
            except TypeError as exc:
                raise CodecError(
                    f"snapshot state not JSON-serializable: {exc}"
                ) from exc
            w.u32(len(raw))
            w.parts.append(raw)

    def _decode_snapshot(self, r: _Reader) -> SnapshotChunk:
        sender = r.text()
        checkpoint_id = r.i64()
        group_id = r.u16()
        kind = r.text()
        child = r.text()
        seq = r.i64()
        covered = r.i64()
        records = self._decode_records(r)
        state = None
        if r.u8():
            state = json.loads(r.raw(r.u32()).decode("utf-8"))
        return SnapshotChunk(
            sender=sender,
            checkpoint_id=checkpoint_id,
            group_id=group_id,
            kind=kind,
            child=child,
            seq=seq,
            covered=covered,
            records=records,
            state=state,
        )

    def _encode_shard_batch(self, w: _Writer, msg: ShardBatchMessage) -> None:
        w.u8(_TAG_SHARD_BATCH)
        w.i64(msg.seq)
        flags = (
            (1 if msg.advance_before is not None else 0)
            | (2 if msg.advance_after is not None else 0)
            | (4 if msg.close else 0)
            | (8 if msg.final_time is not None else 0)
        )
        w.u8(flags)
        if msg.advance_before is not None:
            w.i64(msg.advance_before)
        if msg.advance_after is not None:
            w.i64(msg.advance_after)
        if msg.final_time is not None:
            w.i64(msg.final_time)
        w.u32(len(msg.key_table))
        for key in msg.key_table:
            w.text(key)
        w.column("q", msg.times)
        w.column("I", msg.key_index)
        w.column("d", msg.values)
        w.u32(len(msg.markers))
        for row, marker in msg.markers:
            w.u32(row)
            w.text(marker)

    def _decode_shard_batch(self, r: _Reader) -> ShardBatchMessage:
        seq = r.i64()
        flags = r.u8()
        advance_before = r.i64() if flags & 1 else None
        advance_after = r.i64() if flags & 2 else None
        final_time = r.i64() if flags & 8 else None
        key_table = [r.text() for _ in range(r.u32())]
        times = r.column("q")
        key_index = r.column("I")
        values = r.column("d")
        markers = [(r.u32(), r.text()) for _ in range(r.u32())]
        return ShardBatchMessage(
            seq=seq,
            advance_before=advance_before,
            advance_after=advance_after,
            close=bool(flags & 4),
            final_time=final_time,
            times=times,
            values=values,
            key_table=key_table,
            key_index=key_index,
            markers=markers,
        )

    def _encode_shard_result(self, w: _Writer, msg: ShardResultMessage) -> None:
        w.u8(_TAG_SHARD_RESULT)
        w.u16(msg.shard)
        w.i64(msg.seq)
        flags = (1 if msg.done else 0) | (2 if msg.error else 0)
        w.u8(flags)
        w.i64(msg.busy_ns)
        if msg.error:
            w.text(msg.error)
        w.u16(len(msg.stats))
        for name, value in msg.stats.items():
            w.text(name)
            w.i64(value)
        w.u32(len(msg.windows))
        for rec in msg.windows:
            w.u16(rec.group_id)
            w.u16(rec.ctx)
            w.i64(rec.start)
            w.i64(rec.end)
            w.u32(rec.event_count)
            w.i64(rec.emitted_at)
            w.u16(len(rec.query_ids))
            for query_id in rec.query_ids:
                w.text(query_id)
            self._encode_ops(w, rec.ops)

    def _decode_shard_result(self, r: _Reader) -> ShardResultMessage:
        shard = r.u16()
        seq = r.i64()
        flags = r.u8()
        busy_ns = r.i64()
        error = r.text() if flags & 2 else ""
        stats = {r.text(): r.i64() for _ in range(r.u16())}
        windows = []
        for _ in range(r.u32()):
            group_id = r.u16()
            ctx = r.u16()
            start = r.i64()
            end = r.i64()
            event_count = r.u32()
            emitted_at = r.i64()
            query_ids = tuple(r.text() for _ in range(r.u16()))
            ops = self._decode_ops(r)
            windows.append(
                ShardWindowRecord(
                    group_id=group_id,
                    ctx=ctx,
                    start=start,
                    end=end,
                    event_count=event_count,
                    emitted_at=emitted_at,
                    query_ids=query_ids,
                    ops=ops,
                )
            )
        return ShardResultMessage(
            shard=shard,
            seq=seq,
            windows=windows,
            done=bool(flags & 1),
            busy_ns=busy_ns,
            stats=stats,
            error=error,
        )

    # -- decoding ----------------------------------------------------------------

    def _encode_any(self, w: _Writer, message: Message) -> None:
        if isinstance(message, PartialBatchMessage):
            self._encode_partial(w, message)
        elif isinstance(message, EventBatchMessage):
            self._encode_events(w, message)
        elif isinstance(message, WindowPartialMessage):
            self._encode_window(w, message)
        elif isinstance(message, ControlMessage):
            self._encode_control(w, message)
        elif isinstance(message, AckMessage):
            self._encode_ack(w, message)
        elif isinstance(message, ResyncMessage):
            self._encode_resync(w, message)
        elif isinstance(message, CheckpointMessage):
            self._encode_checkpoint(w, message)
        elif isinstance(message, SnapshotChunk):
            self._encode_snapshot(w, message)
        elif isinstance(message, ShardBatchMessage):
            self._encode_shard_batch(w, message)
        elif isinstance(message, ShardResultMessage):
            self._encode_shard_result(w, message)
        else:
            raise CodecError(f"cannot encode message type {type(message).__name__}")

    def _decode_any(self, r: _Reader) -> Message:
        tag = r.u8()
        if tag == _TAG_PARTIAL:
            return self._decode_partial(r)
        if tag == _TAG_EVENTS:
            return self._decode_events(r)
        if tag == _TAG_WINDOW:
            return self._decode_window(r)
        if tag == _TAG_CONTROL:
            return self._decode_control(r)
        if tag == _TAG_SEQUENCED:
            return self._decode_sequenced(r)
        if tag == _TAG_ACK:
            return self._decode_ack(r)
        if tag == _TAG_RESYNC:
            return self._decode_resync(r)
        if tag == _TAG_CHECKPOINT:
            return self._decode_checkpoint(r)
        if tag == _TAG_SNAPSHOT:
            return self._decode_snapshot(r)
        if tag == _TAG_SHARD_BATCH:
            return self._decode_shard_batch(r)
        if tag == _TAG_SHARD_RESULT:
            return self._decode_shard_result(r)
        raise CodecError(f"unknown message tag: {tag}")

    def decode(self, data: bytes) -> Message:
        """Decode one whole frame; anything else raises ``CodecError``.

        Every strict prefix of a frame and every frame with bytes appended
        is rejected, never half-delivered.  The one cut no decoder of this
        format can see: a :class:`PartialBatchMessage` that ends exactly
        before its optional trailing shed block is the valid frame of the
        same batch with nothing shed.
        """
        r = _Reader(data)
        try:
            message = self._decode_any(r)
        except (struct.error, LookupError, ValueError) as exc:
            # LookupError: a byte indexed past the end, or an unknown op
            # code; ValueError: undecodable text or JSON cut short
            raise CodecError(f"truncated or corrupt message: {exc}") from exc
        if r.pos != len(data):
            raise CodecError(
                f"{len(data) - r.pos} trailing bytes after the message"
            )
        return message


class StringCodec(Codec):
    """Disco-style JSON-text encoding (verbose on purpose)."""

    name = "string"

    def encode(self, message: Message) -> bytes:
        payload = _to_jsonable(message)
        return json.dumps(payload).encode("utf-8")

    def decode(self, data: bytes) -> Message:
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CodecError(f"corrupt string message: {exc}") from exc
        return _from_jsonable(payload)


def _ops_to_jsonable(ops: dict[OperatorKind, Any]) -> dict[str, Any]:
    return {kind.value: partial for kind, partial in ops.items()}


def _ops_from_jsonable(data: dict[str, Any]) -> dict[OperatorKind, Any]:
    out: dict[OperatorKind, Any] = {}
    for key, partial in data.items():
        kind = OperatorKind(key)
        if kind is OperatorKind.DECOMPOSABLE_SORT and partial is not None:
            partial = tuple(partial)
        out[kind] = partial
    return out


def _records_to_jsonable(records: list[SliceRecord]) -> list[dict[str, Any]]:
    return [
        {
            "start": record.start,
            "end": record.end,
            "contexts": {
                str(ctx): {
                    "count": part.count,
                    "ops": _ops_to_jsonable(part.ops),
                    "span": part.span,
                    "timed": part.timed,
                }
                for ctx, part in record.contexts.items()
            },
            "userdef_eps": record.userdef_eps,
        }
        for record in records
    ]


def _records_from_jsonable(data: list[dict[str, Any]]) -> list[SliceRecord]:
    return [
        SliceRecord(
            start=record["start"],
            end=record["end"],
            contexts={
                int(ctx): ContextPartial(
                    count=part["count"],
                    ops=_ops_from_jsonable(part["ops"]),
                    span=tuple(part["span"]) if part["span"] else None,
                    timed=[tuple(tv) for tv in part["timed"]]
                    if part["timed"] is not None
                    else None,
                )
                for ctx, part in record["contexts"].items()
            },
            userdef_eps=[tuple(ep) for ep in record["userdef_eps"]],
        )
        for record in data
    ]


def _to_jsonable(message: Message) -> dict[str, Any]:
    if isinstance(message, PartialBatchMessage):
        out = {
            "type": "partial",
            "sender": message.sender,
            "group_id": message.group_id,
            "first_slice_seq": message.first_slice_seq,
            "covered_to": message.covered_to,
            "records": _records_to_jsonable(message.records),
        }
        if message.shed:  # optional, mirroring the binary trailing block
            out["shed"] = [list(entry) for entry in message.shed]
        return out
    if isinstance(message, EventBatchMessage):
        return {
            "type": "events",
            "sender": message.sender,
            "covered_to": message.covered_to,
            "events": [
                [e.time, e.key, e.value, e.marker] for e in message.events
            ],
        }
    if isinstance(message, WindowPartialMessage):
        return {
            "type": "window",
            "sender": message.sender,
            "query_id": message.query_id,
            "start": message.start,
            "end": message.end,
            "count": message.count,
            "covered_to": message.covered_to,
            "ops": _ops_to_jsonable(message.ops),
            "values": message.values,
        }
    if isinstance(message, ControlMessage):
        return {
            "type": "control",
            "sender": message.sender,
            "kind": message.kind,
            "payload": message.payload,
        }
    if isinstance(message, SequencedMessage):
        if isinstance(message.inner, SequencedMessage):
            raise CodecError("sequenced frames do not nest")
        return {
            "type": "sequenced",
            "epoch": message.epoch,
            "seq": message.seq,
            "inner": _to_jsonable(message.inner),
        }
    if isinstance(message, AckMessage):
        return {
            "type": "ack",
            "sender": message.sender,
            "epoch": message.epoch,
            "cumulative": message.cumulative,
            "selective": message.selective,
        }
    if isinstance(message, ResyncMessage):
        return {
            "type": "resync",
            "sender": message.sender,
            "epoch": message.epoch,
            "entries": {
                str(group_id): list(entry)
                for group_id, entry in message.entries.items()
            },
            "recover": message.recover,
            "new_parent": message.new_parent,
        }
    if isinstance(message, CheckpointMessage):
        return {
            "type": "checkpoint",
            "sender": message.sender,
            "checkpoint_id": message.checkpoint_id,
            "at": message.at,
            "emit_seq": message.emit_seq,
            "groups": {
                str(group_id): list(entry)
                for group_id, entry in message.groups.items()
            },
            "cursors": [list(cursor) for cursor in message.cursors],
            "safe_to": {
                str(group_id): safe
                for group_id, safe in message.safe_to.items()
            },
        }
    if isinstance(message, SnapshotChunk):
        try:
            state = json.loads(json.dumps(message.state, sort_keys=True))
        except TypeError as exc:
            raise CodecError(
                f"snapshot state not JSON-serializable: {exc}"
            ) from exc
        return {
            "type": "snapshot",
            "sender": message.sender,
            "checkpoint_id": message.checkpoint_id,
            "group_id": message.group_id,
            "kind": message.kind,
            "child": message.child,
            "seq": message.seq,
            "covered": message.covered,
            "records": _records_to_jsonable(message.records),
            "state": state,
        }
    raise CodecError(f"cannot encode message type {type(message).__name__}")


def _from_jsonable(data: dict[str, Any]) -> Message:
    kind = data.get("type")
    if kind == "partial":
        return PartialBatchMessage(
            sender=data["sender"],
            group_id=data["group_id"],
            first_slice_seq=data["first_slice_seq"],
            covered_to=data["covered_to"],
            records=_records_from_jsonable(data["records"]),
            shed=[
                (node_id, start, end)
                for node_id, start, end in data.get("shed", [])
            ],
        )
    if kind == "events":
        return EventBatchMessage(
            sender=data["sender"],
            covered_to=data["covered_to"],
            events=[Event(t, k, v, m) for t, k, v, m in data["events"]],
        )
    if kind == "window":
        return WindowPartialMessage(
            sender=data["sender"],
            query_id=data["query_id"],
            start=data["start"],
            end=data["end"],
            count=data["count"],
            covered_to=data["covered_to"],
            ops=_ops_from_jsonable(data["ops"]),
            values=data["values"],
        )
    if kind == "control":
        return ControlMessage(
            sender=data["sender"], kind=data["kind"], payload=data["payload"]
        )
    if kind == "sequenced":
        inner = _from_jsonable(data["inner"])
        if isinstance(inner, SequencedMessage):
            raise CodecError("sequenced frames do not nest")
        return SequencedMessage(epoch=data["epoch"], seq=data["seq"], inner=inner)
    if kind == "ack":
        return AckMessage(
            sender=data["sender"],
            epoch=data["epoch"],
            cumulative=data["cumulative"],
            selective=list(data["selective"]),
        )
    if kind == "resync":
        return ResyncMessage(
            sender=data["sender"],
            epoch=data["epoch"],
            entries={
                int(group_id): tuple(entry)
                for group_id, entry in data["entries"].items()
            },
            recover=bool(data.get("recover", False)),
            new_parent=data.get("new_parent", ""),
        )
    if kind == "checkpoint":
        return CheckpointMessage(
            sender=data["sender"],
            checkpoint_id=data["checkpoint_id"],
            at=data["at"],
            emit_seq=data["emit_seq"],
            groups={
                int(group_id): tuple(entry)
                for group_id, entry in data["groups"].items()
            },
            cursors=[
                (group_id, child, next_seq, covered)
                for group_id, child, next_seq, covered in data["cursors"]
            ],
            safe_to={
                int(group_id): safe
                for group_id, safe in data["safe_to"].items()
            },
        )
    if kind == "snapshot":
        return SnapshotChunk(
            sender=data["sender"],
            checkpoint_id=data["checkpoint_id"],
            group_id=data["group_id"],
            kind=data["kind"],
            child=data["child"],
            seq=data["seq"],
            covered=data["covered"],
            records=_records_from_jsonable(data["records"]),
            state=data["state"],
        )
    raise CodecError(f"unknown string message type: {kind!r}")
