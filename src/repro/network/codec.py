"""Message codecs: compact binary and Disco-style strings.

Network overhead in the evaluation is the number of bytes that actually
cross each link, so messages are really encoded (and decoded on delivery)
rather than size-estimated:

* :class:`BinaryCodec` — a compact ``struct``-based wire format.  Desis,
  Scotty, and CeBuffer "send bytes directly" (Sec 6.4.1).
* :class:`StringCodec` — JSON text.  Disco "uses strings to send events
  and messages between nodes", which is why its traffic is higher for the
  same payload (Fig 11b).

Every frame kind but the partial batch is described once, in
:data:`_FRAMES`: its tag, its name in string frames, and its fields in
wire order.  Both codecs read that table; the partial batch — the frame
of every tick — and the event row keep hand-packed paths.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from operator import attrgetter, itemgetter
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
_PARTIAL_HEAD = bytes((_TAG_PARTIAL,))

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

# The hand-packed paths pack and unpack one Struct per fixed-layout
# stretch: a call per stretch, not per field, is where their speed comes
# from.  The layout itself is pinned by tests/network/test_wire_golden.py.
_BATCH_HEAD = struct.Struct(">Hqq")  # group id, first slice seq, covered_to
_RECORD_HEAD = struct.Struct(">qqH")  # start, end, context count
# a context's head (ctx, event count, flags), and its span when flags & 1
_CONTEXT_HEAD = struct.Struct(">HIB")
_CONTEXT_SPAN = struct.Struct(">HIBqq")
_SPAN = struct.Struct(">qq")
_OP_F64 = struct.Struct(">Bd")  # op code, scalar partial
_OP_I64 = struct.Struct(">Bq")  # op code, count
_OP_EXTREMA = struct.Struct(">BBdd")  # op code, present, min, max
_TIMED_PAIR = struct.Struct(">qd")
_F64_PAIR = struct.Struct(">dd")
_EVENT_TAIL = struct.Struct(">dB")  # value, marker present

_FLOAT_OPS = frozenset(
    (OperatorKind.SUM, OperatorKind.MULTIPLICATION, OperatorKind.SUM_OF_SQUARES)
)

#: bound on each run field's Struct memo: partial batches reuse a handful
#: of run lengths, but raw value arrays and shard columns can take any
#: length — beyond the bound, odd sizes are compiled per call instead of
#: growing the table forever.
_RUN_STRUCT_CACHE_MAX = 256

#: what ``struct``, ``str.encode`` and ``json.dumps`` raise for a field
#: its frame cannot carry (out of range, wrong type, not serializable)
_ENCODE_ERRORS = (struct.error, TypeError, ValueError, OverflowError, LookupError)


class _Field:
    """One field kind: packs a value's bytes, reads them back, and gives
    its JSON form (``None`` where the value is its own JSON form; only the
    kinds Disco's frames carry define another).  ``code`` is the ``struct``
    code of a fixed-size scalar, so runs of them pack as one Struct."""

    __slots__ = ("pack", "read", "to_json", "from_json", "code")

    def __init__(self, pack, read, to_json=None, from_json=None, code=None):
        self.pack = pack  # (value, append) -> None
        self.read = read  # (data, pos) -> (value, pos after it)
        self.to_json = to_json
        self.from_json = from_json
        self.code = code


def _scalar(code: str) -> _Field:
    fmt = struct.Struct(">" + code)
    size = fmt.size

    def pack(value, append):
        append(fmt.pack(value))

    def read(data, pos):
        return fmt.unpack_from(data, pos)[0], pos + size

    return _Field(pack, read, code=code)


def _pack_text(value: str, append) -> None:
    raw = value.encode("utf-8")
    append(_U16.pack(len(raw)))
    append(raw)


def _read_text(data: bytes, pos: int) -> tuple[str, int]:
    """The length-prefixed UTF-8 string at ``pos`` and the position after
    it; a slice past the end would come back short without complaint, so
    the length is checked here."""
    (size,) = _U16.unpack_from(data, pos)
    end = pos + 2 + size
    if end > len(data):
        raise CodecError(f"truncated message: {size}-byte text cut short")
    return data[pos + 2 : end].decode("utf-8"), end


def _json_blob(sort_keys: bool) -> _Field:
    """A ``>I`` length and UTF-8 JSON text; in string frames the value
    itself."""

    def pack(value, append):
        raw = json.dumps(value, sort_keys=sort_keys).encode("utf-8")
        append(_U32.pack(len(raw)))
        append(raw)

    def read(data, pos):
        (size,) = _U32.unpack_from(data, pos)
        end = pos + 4 + size
        if end > len(data):
            raise CodecError(f"truncated message: {size}-byte JSON cut short")
        return json.loads(data[pos + 4 : end].decode("utf-8")), end

    return _Field(pack, read)


def _run(count: str, code: str) -> _Field:
    """A counted run of one scalar type (``code`` with its byte order),
    packed and unpacked by one Struct per length."""
    head = struct.Struct(count)
    order, kind = code[0], code[1:]
    structs: dict[int, struct.Struct] = {}

    def compiled(n):
        fmt = structs.get(n)
        if fmt is None:
            fmt = struct.Struct(f"{order}{n}{kind}")
            if len(structs) < _RUN_STRUCT_CACHE_MAX:
                structs[n] = fmt
        return fmt

    def pack(values, append):
        append(head.pack(len(values)))
        append(compiled(len(values)).pack(*values))

    def read(data, pos):
        (n,) = head.unpack_from(data, pos)
        fmt = compiled(n)
        pos += head.size
        return list(fmt.unpack_from(data, pos)), pos + fmt.size

    return _Field(pack, read)


def _maybe(field: _Field) -> _Field:
    """``None`` as a 0 byte, anything else as a 1 byte and the value."""
    inner_pack, inner_read = field.pack, field.read

    def pack(value, append):
        if value is None:
            append(b"\x00")
        else:
            append(b"\x01")
            inner_pack(value, append)

    def read(data, pos):
        if data[pos]:
            return inner_read(data, pos + 1)
        return None, pos + 1

    def to_json(value):
        return None if value is None else field.to_json(value)

    def from_json(value):
        return None if value is None else field.from_json(value)

    return _Field(pack, read, field.to_json and to_json, field.from_json and from_json)


def _seq(count: str, item: _Field, make=list) -> _Field:
    """A counted sequence of ``item``s, read back into ``make``."""
    head = struct.Struct(count)
    item_pack, item_read = item.pack, item.read

    def pack(values, append):
        append(head.pack(len(values)))
        for value in values:
            item_pack(value, append)

    def read(data, pos):
        (n,) = head.unpack_from(data, pos)
        pos += head.size
        values = []
        for _ in range(n):
            value, pos = item_read(data, pos)
            values.append(value)
        return (values if make is list else make(values)), pos

    return _Field(pack, read)


def _map(count: str, key: _Field, value: _Field) -> _Field:
    """A counted map: each entry its key, then its value."""
    head = struct.Struct(count)
    key_pack, key_read, value_pack, value_read = key.pack, key.read, value.pack, value.read

    def pack(entries, append):
        append(head.pack(len(entries)))
        for k, v in entries.items():
            key_pack(k, append)
            value_pack(v, append)

    def read(data, pos):
        (n,) = head.unpack_from(data, pos)
        pos += head.size
        entries = {}
        for _ in range(n):
            k, pos = key_read(data, pos)
            entries[k], pos = value_read(data, pos)
        return entries, pos

    return _Field(pack, read)


def _row(*items: _Field) -> _Field:
    """A tuple of ``items``; one Struct when every item is a scalar."""
    if all(item.code for item in items):
        fmt = struct.Struct(">" + "".join(item.code for item in items))
        size = fmt.size

        def pack(value, append):
            append(fmt.pack(*value))

        def read(data, pos):
            return fmt.unpack_from(data, pos), pos + size

        return _Field(pack, read)

    packs = [item.pack for item in items]
    reads = [item.read for item in items]

    def pack(value, append):
        for item_pack, part in zip(packs, value):
            item_pack(part, append)

    def read(data, pos):
        parts = []
        for item_read in reads:
            part, pos = item_read(data, pos)
            parts.append(part)
        return tuple(parts), pos

    return _Field(pack, read)


def _pack_ops(ops: dict[OperatorKind, Any], append) -> None:
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
        else:  # NON_DECOMPOSABLE_SORT: a float run
            append(_U8.pack(code))
            _floats.pack(partial, append)


def _read_ops(data: bytes, pos: int) -> tuple[dict[OperatorKind, Any], int]:
    """The op-set at ``pos`` and the position after it.  Single bytes are
    read by indexing, payloads by one ``unpack_from`` each: both raise on
    a short buffer (see :meth:`BinaryCodec.decode`)."""
    ops: dict[OperatorKind, Any] = {}
    count = data[pos]
    pos += 1
    for _ in range(count):
        kind = _OP_KINDS[data[pos]]
        if kind in _FLOAT_OPS:
            (ops[kind],) = _F64.unpack_from(data, pos + 1)
            pos += 9
        elif kind is OperatorKind.COUNT:
            (ops[kind],) = _I64.unpack_from(data, pos + 1)
            pos += 9
        elif kind is OperatorKind.DECOMPOSABLE_SORT:
            if data[pos + 1]:
                ops[kind] = _F64_PAIR.unpack_from(data, pos + 2)
                pos += 18
            else:
                ops[kind] = None
                pos += 2
        else:
            ops[kind], pos = _floats.read(data, pos + 1)
    return ops, pos


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


def _pack_records(records: list[SliceRecord], append) -> None:
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
            _pack_ops(part.ops, append)
            if timed is not None:
                append(_U32.pack(len(timed)))
                for time, value in timed:
                    append(_TIMED_PAIR.pack(time, value))
        append(_U16.pack(len(record.userdef_eps)))
        for query_id, end in record.userdef_eps:
            _pack_text(query_id, append)
            append(_I64.pack(end))


def _read_records(data: bytes, pos: int) -> tuple[list[SliceRecord], int]:
    """The record count and records at ``pos``, and the position after
    them: one ``unpack_from`` per fixed-layout stretch, positions kept in
    a local."""
    (count,) = _U32.unpack_from(data, pos)
    pos += 4
    records = []
    for _ in range(count):
        start, end, context_count = _RECORD_HEAD.unpack_from(data, pos)
        pos += 18
        contexts: dict[int, ContextPartial] = {}
        for _ in range(context_count):
            # the flags byte says whether a span precedes the op-set
            if data[pos + 6] & 1:
                ctx, n, flags, first, last = _CONTEXT_SPAN.unpack_from(data, pos)
                span = (first, last)
                pos += 23
            else:
                ctx, n, flags = _CONTEXT_HEAD.unpack_from(data, pos)
                span = None
                pos += 7
            ops, pos = _read_ops(data, pos)
            timed = None
            if flags & 2:
                (size,) = _U32.unpack_from(data, pos)
                pos += 4
                timed = [
                    _TIMED_PAIR.unpack_from(data, pos + 16 * k) for k in range(size)
                ]
                pos += 16 * size
            contexts[ctx] = ContextPartial(n, ops, span, timed)
        (size,) = _U16.unpack_from(data, pos)
        pos += 2
        eps = []
        for _ in range(size):
            query_id, pos = _read_text(data, pos)
            (at,) = _I64.unpack_from(data, pos)
            pos += 8
            eps.append((query_id, at))
        records.append(SliceRecord(start, end, contexts, eps))
    return records, pos


def _pack_partial(msg: PartialBatchMessage, append) -> None:
    append(_PARTIAL_HEAD)
    _pack_text(msg.sender, append)
    append(_BATCH_HEAD.pack(msg.group_id, msg.first_slice_seq, msg.covered_to))
    _pack_records(msg.records, append)
    # Shed-coverage report is a trailing optional block: absent when
    # nothing was shed, so overload-free traffic stays byte-identical.
    # Partial batches are always tail-positioned (a sequenced frame
    # encodes its inner message last), which makes presence detectable
    # from the remaining buffer length.
    if msg.shed:
        append(_U32.pack(len(msg.shed)))
        for node_id, start, end in msg.shed:
            _pack_text(node_id, append)
            append(_SPAN.pack(start, end))


def _read_partial(data: bytes, pos: int) -> tuple[PartialBatchMessage, int]:
    """The partial batch whose tag ends at ``pos``, and the position after
    it (its optional shed block runs to the end of the frame)."""
    sender, pos = _read_text(data, pos)
    group_id, first_seq, covered = _BATCH_HEAD.unpack_from(data, pos)
    records, pos = _read_records(data, pos + 18)
    shed: list[tuple[str, int, int]] = []
    if pos < len(data):
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        for _ in range(count):
            node_id, pos = _read_text(data, pos)
            start, end = _SPAN.unpack_from(data, pos)
            pos += 16
            shed.append((node_id, start, end))
        if not shed:
            raise CodecError("empty shed block: trailing bytes")
    return PartialBatchMessage(sender, group_id, first_seq, covered, records, shed), pos


def _pack_events(events: list[Event], append) -> None:
    """The event rows: time, key, then value and marker flag as one
    Struct, and the marker when there is one (a raw event frame carries
    thousands, so they are packed by hand)."""
    append(_U32.pack(len(events)))
    for event in events:
        append(_I64.pack(event.time))
        _pack_text(event.key, append)
        marker = event.marker
        if marker is None:
            append(_EVENT_TAIL.pack(event.value, 0))
        else:
            append(_EVENT_TAIL.pack(event.value, 1))
            _pack_text(marker, append)


def _read_events(data: bytes, pos: int) -> tuple[list[Event], int]:
    (count,) = _U32.unpack_from(data, pos)
    pos += 4
    events = []
    for _ in range(count):
        (time,) = _I64.unpack_from(data, pos)
        key, pos = _read_text(data, pos + 8)
        value, marked = _EVENT_TAIL.unpack_from(data, pos)
        pos += 9
        marker = None
        if marked:
            marker, pos = _read_text(data, pos)
        events.append(Event(time, key, value, marker))
    return events, pos


def _events_to_json(events: list[Event]) -> list[list[Any]]:
    return [[e.time, e.key, e.value, e.marker] for e in events]


def _events_from_json(rows: list[list[Any]]) -> list[Event]:
    events = []
    for row in rows:
        time, key, value, marker = row
        if (
            type(time) is not int
            or type(key) is not str
            or type(value) not in (float, int)
            or not (marker is None or type(marker) is str)
        ):
            raise TypeError(f"malformed event row: {row!r}")
        events.append(Event(time, key, value, marker))
    return events


def _unnested(message: Message) -> Message:
    """``message``, which a sequenced frame wraps: anything but another
    sequenced frame."""
    if type(message) is SequencedMessage:
        raise CodecError("sequenced frames do not nest")
    return message


def _pack_inner(message: Message, append) -> None:
    _pack_message(_unnested(message), append)


def _read_inner(data: bytes, pos: int) -> tuple[Message, int]:
    message, pos = _read_message(data, pos)
    return _unnested(message), pos


_u16 = _scalar("H")
_u32 = _scalar("I")
_i64 = _scalar("q")
_text = _Field(_pack_text, _read_text)
_floats = _run(">I", ">d")
_ops = _Field(_pack_ops, _read_ops, _ops_to_jsonable, _ops_from_jsonable)
_records = _Field(_pack_records, _read_records)
_events = _Field(_pack_events, _read_events, _events_to_json, _events_from_json)
_inner = _Field(
    _pack_inner, _read_inner,
    lambda message: _to_json(_unnested(message)),
    lambda data: _unnested(_from_json(data)),
)
#: a flag bit of its layout's flags byte that carries no bytes of its own:
#: the value is ``True`` when the bit is set, ``False`` when it is not
_bit = _Field(None, None)
#: marks where a layout's flags byte sits; each ``(name, _bit)`` and
#: ``(name, field, absent)`` entry is a bit of it, in order (1, 2, 4, ...),
#: and a flagged field's bytes follow only when its value is not ``absent``
_FLAGS = object()


def _getter(make, names: list[str]):
    """``make(*names)`` (an ``attrgetter`` or ``itemgetter``) that returns
    a tuple for a single name too."""
    get = make(*names)
    return get if len(names) > 1 else lambda obj: (get(obj),)


class _Layout(_Field):
    """An object's fields in wire order, read back by keyword.  Each
    entry is ``(name, field)``, the flags byte ``_FLAGS``, or a flagged
    ``(name, field, absent)``; adjacent scalars pack as one Struct."""

    __slots__ = ("cls", "encoders", "decoders")

    def __init__(self, cls, *entries) -> None:
        super().__init__(self._pack, self._read)
        self.cls = cls
        self.encoders: list = []  # (getter, pack(value, append))
        self.decoders: list = []  # decode(data, pos, kw) -> pos
        flagged = [
            (entry[0], 1 << bit, entry[2] if len(entry) == 3 else False)
            for bit, entry in enumerate(
                e for e in entries if e is not _FLAGS and (len(e) == 3 or e[1] is _bit)
            )
        ]
        scalars: list[tuple[str, _Field]] = []
        for entry in entries:
            if entry is not _FLAGS and len(entry) == 2 and entry[1].code:
                scalars.append(entry)
                continue
            self._add_scalars(scalars)
            scalars = []
            if entry is _FLAGS:
                self._add_flags(flagged)
            elif len(entry) == 3:
                self._add_flagged(*entry)
            elif entry[1] is not _bit:
                self._add(*entry)
        self._add_scalars(scalars)

    def _add(self, name: str, field: _Field) -> None:
        read = field.read

        def decode(data, pos, kw):
            kw[name], pos = read(data, pos)
            return pos

        self.encoders.append((attrgetter(name), field.pack))
        self.decoders.append(decode)

    def _add_scalars(self, scalars: list[tuple[str, _Field]]) -> None:
        if not scalars:
            return
        names = [name for name, _ in scalars]
        fmt = struct.Struct(">" + "".join(field.code for _, field in scalars))
        size = fmt.size

        def encode(values, append):
            append(fmt.pack(*values))

        def decode(data, pos, kw):
            kw.update(zip(names, fmt.unpack_from(data, pos)))
            return pos + size

        self.encoders.append((_getter(attrgetter, names), encode))
        self.decoders.append(decode)

    def _add_flags(self, flagged: list[tuple[str, int, Any]]) -> None:
        def encode(values, append):
            flags = 0
            for (_, bit, absent), value in zip(flagged, values):
                if value != absent:
                    flags |= bit
            append(_U8.pack(flags))

        def decode(data, pos, kw):
            flags = data[pos]
            for name, bit, _ in flagged:
                kw[name] = bool(flags & bit)
            return pos + 1

        self.encoders.append((_getter(attrgetter, [n for n, _, _ in flagged]), encode))
        self.decoders.append(decode)

    def _add_flagged(self, name: str, field: _Field, absent: Any) -> None:
        pack, read = field.pack, field.read

        def encode(value, append):
            if value != absent:
                pack(value, append)

        def decode(data, pos, kw):
            if kw[name]:
                kw[name], pos = read(data, pos)
            else:
                kw[name] = absent
            return pos

        self.encoders.append((attrgetter(name), encode))
        self.decoders.append(decode)

    def _pack(self, obj, append) -> None:
        for get, pack in self.encoders:
            pack(get(obj), append)

    def _read(self, data: bytes, pos: int):
        kw: dict[str, Any] = {}
        for decode in self.decoders:
            pos = decode(data, pos, kw)
        return self.cls(**kw), pos


class _Frame(_Layout):
    """A message kind: its tag byte, its layout, and its name in string
    frames (``None`` where Disco never sends it), whose JSON object holds
    every field under its name, in its JSON form."""

    __slots__ = ("tag", "name", "json_out", "take_all", "json_in")

    def __init__(self, cls, tag: int, name: str | None, *entries) -> None:
        super().__init__(cls, *entries)
        self.tag = bytes((tag,))
        self.name = name
        fields = {entry[0]: entry[1] for entry in entries if entry is not _FLAGS}
        self.json_out = [(n, field.to_json) for n, field in fields.items()]
        # read back positionally, in the dataclass's field order
        order = [f.name for f in dataclasses.fields(cls)]
        self.take_all = _getter(itemgetter, order)
        self.json_in = [
            (i, fields[n].from_json) for i, n in enumerate(order) if fields[n].from_json
        ]


_FRAMES = (
    _Frame(
        EventBatchMessage, 2, "events",
        ("sender", _text), ("covered_to", _i64), ("events", _events),
    ),
    _Frame(
        WindowPartialMessage, 3, "window",
        ("sender", _text), ("query_id", _text), ("start", _i64), ("end", _i64),
        ("count", _u32), ("covered_to", _i64), ("ops", _ops),
        ("values", _maybe(_floats)),
    ),
    _Frame(
        ControlMessage, 4, "control",
        ("sender", _text), ("kind", _text), ("payload", _json_blob(sort_keys=False)),
    ),
    _Frame(
        SequencedMessage, 5, "sequenced",
        ("epoch", _u32), ("seq", _i64), ("inner", _inner),
    ),
    _Frame(
        AckMessage, 6, "ack",
        ("sender", _text), ("epoch", _u32), ("cumulative", _i64),
        ("selective", _run(">H", ">q")),
    ),
    _Frame(
        ResyncMessage, 7, None,
        ("sender", _text), ("epoch", _u32),
        ("entries", _map(">H", _u16, _row(_i64, _i64))),
        _FLAGS, ("recover", _bit), ("new_parent", _text, ""),
    ),
    _Frame(
        CheckpointMessage, 8, None,
        ("sender", _text), ("checkpoint_id", _i64), ("at", _i64),
        ("emit_seq", _i64),
        ("groups", _map(">H", _u16, _row(_i64, _i64, _i64))),
        ("cursors", _seq(">I", _row(_u16, _text, _i64, _i64))),
        ("safe_to", _map(">H", _u16, _i64)),
    ),
    _Frame(
        SnapshotChunk, 9, None,
        ("sender", _text), ("checkpoint_id", _i64), ("group_id", _u16),
        ("kind", _text), ("child", _text), ("seq", _i64), ("covered", _i64),
        ("records", _records), ("state", _maybe(_json_blob(sort_keys=True))),
    ),
    # the sharded backend's pipe frames never leave the host: their
    # columns are little-endian, which CPython packs about three times
    # faster than big-endian on the little-endian hosts it runs on
    _Frame(
        ShardBatchMessage, 10, None,
        ("seq", _i64),
        _FLAGS, ("advance_before", _i64, None), ("advance_after", _i64, None),
        ("close", _bit), ("final_time", _i64, None),
        ("key_table", _seq(">I", _text)),
        ("times", _run(">I", "<q")), ("key_index", _run(">I", "<I")),
        ("values", _run(">I", "<d")),
        ("markers", _seq(">I", _row(_u32, _text))),
    ),
    _Frame(
        ShardResultMessage, 11, None,
        ("shard", _u16), ("seq", _i64),
        _FLAGS, ("done", _bit), ("busy_ns", _i64), ("error", _text, ""),
        ("stats", _map(">H", _text, _i64)),
        ("windows", _seq(">I", _Layout(
            ShardWindowRecord,
            ("group_id", _u16), ("ctx", _u16), ("start", _i64), ("end", _i64),
            ("event_count", _u32), ("emitted_at", _i64),
            ("query_ids", _seq(">H", _text, tuple)), ("ops", _ops),
        ))),
    ),
)
_BY_CLASS = {frame.cls: frame for frame in _FRAMES}
_BY_TAG = {frame.tag[0]: frame for frame in _FRAMES}
_BY_NAME = {frame.name: frame for frame in _FRAMES if frame.name is not None}


def _pack_message(message: Message, append) -> None:
    if type(message) is PartialBatchMessage:
        _pack_partial(message, append)
        return
    frame = _BY_CLASS.get(type(message))
    if frame is None:
        raise CodecError(f"cannot encode message type {type(message).__name__}")
    append(frame.tag)
    frame.pack(message, append)


def _read_message(data: bytes, pos: int) -> tuple[Message, int]:
    tag = data[pos]
    if tag == _TAG_PARTIAL:  # the frame of every tick
        return _read_partial(data, pos + 1)
    frame = _BY_TAG.get(tag)
    if frame is None:
        raise CodecError(f"unknown message tag: {tag}")
    return frame.read(data, pos + 1)


def _to_json(message: Message) -> dict[str, Any]:
    frame = _BY_CLASS.get(type(message))
    if frame is None or frame.name is None:
        raise CodecError(f"cannot encode message type {type(message).__name__}")
    out: dict[str, Any] = {"type": frame.name}
    for name, to_json in frame.json_out:
        value = getattr(message, name)
        out[name] = value if to_json is None else to_json(value)
    return out


def _from_json(data: dict[str, Any]) -> Message:
    kind = data.get("type")
    frame = _BY_NAME.get(kind) if type(kind) is str else None
    if frame is None:
        raise CodecError(f"unknown string message type: {kind!r}")
    args = frame.take_all(data)
    if frame.json_in:
        args = list(args)
        for i, from_json in frame.json_in:
            args[i] = from_json(args[i])
    return frame.cls(*args)


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

    def encode(self, message: Message) -> bytes:
        """The frame of ``message``; a field its frame cannot carry (out
        of its wire range, or not JSON-serializable) raises ``CodecError``."""
        parts: list[bytes] = []
        try:
            _pack_message(message, parts.append)
        except _ENCODE_ERRORS as exc:
            raise CodecError(f"cannot encode {type(message).__name__}: {exc}") from exc
        return b"".join(parts)

    def decode(self, data: bytes) -> Message:
        """Decode one whole frame; anything else raises ``CodecError``.

        Every strict prefix of a frame and every frame with bytes appended
        is rejected, never half-delivered.  The one cut no decoder of this
        format can see: a :class:`PartialBatchMessage` that ends exactly
        before its optional trailing shed block is the valid frame of the
        same batch with nothing shed.
        """
        try:
            message, pos = _read_message(data, 0)
        except (struct.error, LookupError, ValueError) as exc:
            # LookupError: a byte indexed past the end, or an unknown op
            # code; ValueError: undecodable text, JSON cut short, or
            # an event value that is NaN (NaNValueError)
            raise CodecError(f"truncated or corrupt message: {exc}") from exc
        if pos != len(data):
            raise CodecError(f"{len(data) - pos} trailing bytes after the message")
        return message


class StringCodec(Codec):
    """Disco-style JSON-text encoding (verbose on purpose).

    It carries the frames a Disco deployment sends — window partials and
    control messages, in sequenced frames with acks under a fault plan —
    and raw event batches, each as a JSON object of its ``_FRAMES``
    fields; encoding any other message type raises ``CodecError``.
    """

    name = "string"

    def encode(self, message: Message) -> bytes:
        """The JSON text of ``message``; a payload that is not
        JSON-serializable raises ``CodecError``."""
        try:
            return json.dumps(_to_json(message)).encode("utf-8")
        except _ENCODE_ERRORS as exc:
            raise CodecError(f"cannot encode {type(message).__name__}: {exc}") from exc

    def decode(self, data: bytes) -> Message:
        """Decode one frame; anything malformed raises ``CodecError``:
        text that is not JSON, a missing key, a field of the wrong shape,
        an unknown message type or operator kind, and an event whose
        value is not a number or is NaN."""
        try:
            return _from_json(json.loads(data.decode("utf-8")))
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            # LookupError: a missing key; TypeError / AttributeError: a
            # field of the wrong JSON type; ValueError: undecodable text,
            # an unknown operator kind, a row of the wrong length, or an
            # event value that is NaN (NaNValueError)
            raise CodecError(f"corrupt string message: {exc}") from exc
