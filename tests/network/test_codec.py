"""Codec tests: exact roundtrips for both wire formats."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import CodecError
from repro.core.event import Event
from repro.core.types import OperatorKind
from repro.network.codec import BinaryCodec, StringCodec
from repro.network.messages import (
    AckMessage,
    CheckpointMessage,
    ContextPartial,
    ControlMessage,
    EventBatchMessage,
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

K = OperatorKind
CODECS = [BinaryCodec(), StringCodec()]

floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)
times = st.integers(0, 2**40)


ops_strategy = st.fixed_dictionaries(
    {},
    optional={
        K.SUM: floats,
        K.COUNT: st.integers(0, 2**40),
        K.MULTIPLICATION: floats,
        K.DECOMPOSABLE_SORT: st.one_of(
            st.none(), st.tuples(floats, floats).map(lambda t: (min(t), max(t)))
        ),
        K.NON_DECOMPOSABLE_SORT: st.lists(floats, max_size=12).map(sorted),
    },
)

context_strategy = st.builds(
    ContextPartial,
    count=st.integers(0, 10_000),
    ops=ops_strategy,
    span=st.one_of(st.none(), st.tuples(times, times).map(lambda t: (min(t), max(t)))),
    timed=st.one_of(
        st.none(), st.lists(st.tuples(times, floats), max_size=8)
    ),
)

record_strategy = st.builds(
    SliceRecord,
    start=times,
    end=times,
    contexts=st.dictionaries(st.integers(0, 500), context_strategy, max_size=4),
    userdef_eps=st.lists(
        st.tuples(st.text(min_size=1, max_size=8), times), max_size=3
    ),
)

partial_msg_strategy = st.builds(
    PartialBatchMessage,
    sender=st.text(min_size=1, max_size=12),
    group_id=st.integers(0, 1_000),
    first_slice_seq=st.integers(0, 2**40),
    covered_to=times,
    records=st.lists(record_strategy, max_size=4),
)

event_strategy = st.builds(
    Event,
    time=times,
    key=st.text(min_size=1, max_size=6),
    value=floats,
    marker=st.one_of(st.none(), st.sampled_from(["end", "trip_end"])),
)

event_msg_strategy = st.builds(
    EventBatchMessage,
    sender=st.text(min_size=1, max_size=12),
    covered_to=times,
    events=st.lists(event_strategy, max_size=10),
)

window_msg_strategy = st.builds(
    WindowPartialMessage,
    sender=st.text(min_size=1, max_size=12),
    query_id=st.text(min_size=1, max_size=8),
    start=times,
    end=times,
    count=st.integers(0, 10_000),
    covered_to=times,
    ops=ops_strategy,
    values=st.one_of(st.none(), st.lists(floats, max_size=10).map(sorted)),
)


seqs = st.integers(-(2**40), 2**40)
epochs = st.integers(0, 2**32 - 1)  # u32 on the binary wire

ack_msg_strategy = st.builds(
    AckMessage,
    sender=st.text(min_size=1, max_size=12),
    epoch=epochs,
    cumulative=seqs,
    selective=st.lists(seqs, max_size=8),
)

resync_msg_strategy = st.builds(
    ResyncMessage,
    sender=st.text(min_size=1, max_size=12),
    epoch=epochs,
    entries=st.dictionaries(
        st.integers(0, 2**16 - 1),  # group ids are u16 on the binary wire
        st.tuples(seqs, times),
        max_size=6,
    ),
    recover=st.booleans(),
    new_parent=st.one_of(st.just(""), st.text(min_size=1, max_size=12)),
)

group_ids = st.integers(0, 2**16 - 1)

checkpoint_msg_strategy = st.builds(
    CheckpointMessage,
    sender=st.text(min_size=1, max_size=12),
    checkpoint_id=st.integers(0, 2**40),
    at=times,
    emit_seq=st.integers(0, 2**40),
    groups=st.dictionaries(group_ids, st.tuples(seqs, times, times), max_size=5),
    cursors=st.lists(
        st.tuples(group_ids, st.text(min_size=1, max_size=10), seqs, times),
        max_size=6,
    ),
    safe_to=st.dictionaries(group_ids, times, max_size=5),
)

# ``state`` must survive canonical-JSON round-tripping, so the strategy
# only produces jsonable shapes (string keys, lists not tuples).
jsonable = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**40), 2**40), floats,
              st.text(max_size=8)),
    lambda leaf: st.one_of(
        st.lists(leaf, max_size=4),
        st.dictionaries(st.text(max_size=6), leaf, max_size=4),
    ),
    max_leaves=10,
)

snapshot_msg_strategy = st.builds(
    SnapshotChunk,
    sender=st.text(min_size=1, max_size=12),
    checkpoint_id=st.integers(0, 2**40),
    group_id=group_ids,
    kind=st.sampled_from(["pending", "retained", "assembler"]),
    child=st.one_of(st.just(""), st.text(min_size=1, max_size=10)),
    seq=seqs,
    covered=times,
    records=st.lists(record_strategy, max_size=3),
    state=st.one_of(st.none(), st.dictionaries(st.text(max_size=6), jsonable, max_size=4)),
)

sequenced_msg_strategy = st.builds(
    SequencedMessage,
    epoch=epochs,
    seq=seqs,
    inner=st.one_of(partial_msg_strategy, event_msg_strategy, window_msg_strategy),
)


@st.composite
def shard_batch_strategy(draw):
    key_table = draw(
        st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=5,
                 unique=True)
    )
    n = draw(st.integers(0, 16))
    markers = (
        draw(
            st.lists(
                st.tuples(st.integers(0, n - 1),
                          st.text(min_size=1, max_size=6)),
                max_size=3,
            )
        )
        if n
        else []
    )
    return ShardBatchMessage(
        seq=draw(seqs),
        advance_before=draw(st.one_of(st.none(), times)),
        advance_after=draw(st.one_of(st.none(), times)),
        close=draw(st.booleans()),
        final_time=draw(st.one_of(st.none(), times)),
        times=draw(st.lists(times, min_size=n, max_size=n)),
        values=draw(st.lists(floats, min_size=n, max_size=n)),
        key_table=key_table,
        key_index=draw(
            st.lists(st.integers(0, len(key_table) - 1),
                     min_size=n, max_size=n)
        ),
        markers=markers,
    )


shard_record_strategy = st.builds(
    ShardWindowRecord,
    group_id=group_ids,
    ctx=st.integers(0, 2**16 - 1),
    start=times,
    end=times,
    event_count=st.integers(0, 2**30),
    emitted_at=times,
    query_ids=st.lists(st.text(min_size=1, max_size=8), max_size=3).map(tuple),
    ops=ops_strategy,
)

shard_result_strategy = st.builds(
    ShardResultMessage,
    shard=st.integers(0, 2**16 - 1),
    seq=seqs,
    windows=st.lists(shard_record_strategy, max_size=3),
    done=st.booleans(),
    busy_ns=st.integers(0, 2**60),
    stats=st.dictionaries(st.text(min_size=1, max_size=10),
                          st.integers(0, 2**40), max_size=4),
    error=st.one_of(st.just(""), st.text(min_size=1, max_size=20)),
)


def _representatives():
    """One message of every binary message type, between them taking every
    branch of the record path."""
    contexts = {
        # the four flag combinations, every operator kind, ``None``
        # extrema and an empty run
        0: ContextPartial(
            count=4,
            ops={K.SUM: 10.0, K.COUNT: 4, K.MULTIPLICATION: -24.0,
                 K.SUM_OF_SQUARES: 30.0},
        ),
        1: ContextPartial(
            count=3,
            ops={K.DECOMPOSABLE_SORT: (1.0, 9.5),
                 K.NON_DECOMPOSABLE_SORT: [1.0, 2.0, 9.5]},
            span=(5, 80),
        ),
        2: ContextPartial(count=2, timed=[(5, 1.0), (80, 2.0)]),
        3: ContextPartial(
            count=1,
            ops={K.DECOMPOSABLE_SORT: None, K.NON_DECOMPOSABLE_SORT: []},
            span=(7, 7),
            timed=[(7, 3.0)],
        ),
    }
    records = [
        SliceRecord(start=0, end=100, contexts=contexts),
        SliceRecord(start=100, end=141, userdef_eps=[("trip", 140)]),
    ]
    batch = PartialBatchMessage(
        sender="local-0", group_id=1, first_slice_seq=7, covered_to=200,
        records=records,
    )
    shedding = PartialBatchMessage(
        sender="mid-0", group_id=1, first_slice_seq=9, covered_to=300,
        records=records[:1], shed=[("local-1", 100, 200), ("local-1", 200, 300)],
    )
    resync = ResyncMessage(
        sender="root", epoch=2, entries={0: (5, 8_000)}, recover=True,
        new_parent="mid-1",
    )
    return [
        batch,
        shedding,
        EventBatchMessage(
            sender="local-0", covered_to=1_000,
            events=[Event(10, "k", 1.5), Event(20, "k", 2.5, "trip_end")],
        ),
        WindowPartialMessage(
            sender="local-0", query_id="q", start=0, end=1_000, count=3,
            covered_to=1_000, ops={K.SUM: 6.0, K.COUNT: 3},
            values=[1.0, 2.0, 3.0],
        ),
        ControlMessage(sender="local-0", kind="heartbeat", payload=12_345),
        SequencedMessage(epoch=3, seq=17, inner=shedding),
        SequencedMessage(epoch=3, seq=18, inner=resync),
        AckMessage(sender="mid-0", epoch=3, cumulative=16, selective=[18, 21]),
        resync,
        CheckpointMessage(
            sender="mid-0", checkpoint_id=4, at=9_000, emit_seq=12,
            groups={0: (5, 0, 8_000)}, cursors=[(0, "local-0", 5, 8_000)],
            safe_to={0: 6_000},
        ),
        SnapshotChunk(
            sender="root", checkpoint_id=4, group_id=1, kind="assembler",
            covered=8_000, records=records,
            state={"covered": 8_000, "fixed": [["q", 7_000]]},
        ),
        ShardBatchMessage(
            seq=3, advance_before=0, advance_after=40, close=True,
            final_time=40, times=[5, 40], values=[1.0, 2.0],
            key_table=["a", "b"], key_index=[0, 1], markers=[(1, "end")],
        ),
        ShardResultMessage(
            shard=1, seq=3, done=True, busy_ns=99, stats={"events": 2},
            error="boom",
            windows=[
                ShardWindowRecord(
                    group_id=0, ctx=0, start=0, end=40, event_count=2,
                    emitted_at=41, query_ids=("q0", "q1"),
                    ops={K.SUM: 3.0, K.NON_DECOMPOSABLE_SORT: [1.0, 2.0]},
                )
            ],
        ),
    ]


def _without_shed(message):
    """``message`` as it reads when its trailing shed block is cut off,
    or ``None`` when it carries none."""
    if isinstance(message, SequencedMessage):
        inner = _without_shed(message.inner)
        return None if inner is None else replace(message, inner=inner)
    if isinstance(message, PartialBatchMessage) and message.shed:
        return replace(message, shed=[])
    return None


def _label(message) -> str:
    if isinstance(message, SequencedMessage):
        return "Sequenced-" + _label(message.inner)
    return type(message).__name__ + ("-shed" if getattr(message, "shed", None) else "")


@pytest.mark.parametrize("message", _representatives(), ids=_label)
def test_every_prefix_and_any_appended_byte_is_a_codec_error(message):
    """A cut or padded frame never decodes into a different message: a
    marker ``'trip_e'``, a heartbeat at 123 or a parent ``'mid-'`` used to.
    The one cut the format cannot show -- right before the optional shed
    block -- reads as the same batch with nothing shed."""
    codec = BinaryCodec()
    frame = codec.encode(message)
    assert codec.decode(frame) == message
    unshed = _without_shed(message)
    shed_cut = None if unshed is None else len(codec.encode(unshed))
    for cut in range(len(frame)):
        if cut == shed_cut:
            assert codec.decode(frame[:cut]) == unshed
            continue
        with pytest.raises(CodecError):
            codec.decode(frame[:cut])
    with pytest.raises(CodecError):
        codec.decode(frame + b"\x00")
    with pytest.raises(CodecError):
        codec.decode(frame + b"junk")


def test_an_explicit_empty_shed_block_is_trailing_bytes():
    # the encoder never writes one, so four zero bytes after a batch are
    # padding, not a message
    codec = BinaryCodec()
    frame = codec.encode(_representatives()[0])
    with pytest.raises(CodecError):
        codec.decode(frame + bytes(4))


def test_unknown_operator_code_is_a_codec_error():
    codec = BinaryCodec()
    message = WindowPartialMessage(
        sender="l", query_id="q", start=0, end=1, count=1, covered_to=1,
        ops={K.SUM: 1.0},
    )
    frame = bytearray(codec.encode(message))
    frame[-10] = 0xEE  # op code: count u8, code u8, f64, values flag u8
    with pytest.raises(CodecError):
        codec.decode(bytes(frame))


def test_every_truncation_of_a_snapshot_chunk_is_a_codec_error():
    # the JSON state blob cut short used to escape as JSONDecodeError
    codec = BinaryCodec()
    encoded = codec.encode(
        SnapshotChunk(sender="mid-0", checkpoint_id=4, group_id=0,
                      kind="assembler", state={"windows": [1, 2, 3]})
    )
    for cut in range(1, len(encoded)):
        with pytest.raises(CodecError):
            codec.decode(encoded[:cut])


class TestShardFrames:
    """The sharded backend's two pipe frames: ``BinaryCodec`` only — the
    backend hard-codes it and nothing else encodes them."""

    @given(message=shard_batch_strategy())
    def test_shard_batch(self, message):
        codec = BinaryCodec()
        assert codec.decode(codec.encode(message)) == message

    @given(message=shard_result_strategy)
    def test_shard_result(self, message):
        codec = BinaryCodec()
        assert codec.decode(codec.encode(message)) == message

    def test_key_slots_index_the_session_table_beyond_u16(self):
        # key_index names slots of the shard's *session* key table, which
        # outgrows both the frame's own key_table and 16 bits
        message = ShardBatchMessage(
            seq=3, times=[5, 5], values=[1.0, 2.0], key_table=["new"],
            key_index=[2**16, 2**20],
        )
        codec = BinaryCodec()
        assert codec.decode(codec.encode(message)) == message

    def test_string_codec_rejects_shard_frames(self):
        with pytest.raises(CodecError):
            StringCodec().encode(ShardBatchMessage(seq=0))
        with pytest.raises(CodecError):
            StringCodec().encode(ShardResultMessage(shard=0, seq=0))


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
class TestRoundtrip:
    @given(message=partial_msg_strategy)
    def test_partial_batch(self, codec, message):
        assert codec.decode(codec.encode(message)) == message

    @given(message=event_msg_strategy)
    def test_event_batch(self, codec, message):
        assert codec.decode(codec.encode(message)) == message

    @given(message=window_msg_strategy)
    def test_window_partial(self, codec, message):
        assert codec.decode(codec.encode(message)) == message

    def test_control(self, codec):
        message = ControlMessage(
            sender="root", kind="topology", payload={"a": [1, 2], "b": "x"}
        )
        assert codec.decode(codec.encode(message)) == message

    @given(message=ack_msg_strategy)
    def test_ack(self, codec, message):
        assert codec.decode(codec.encode(message)) == message

    @given(message=resync_msg_strategy)
    def test_resync(self, codec, message):
        assert codec.decode(codec.encode(message)) == message

    @given(message=sequenced_msg_strategy)
    def test_sequenced(self, codec, message):
        assert codec.decode(codec.encode(message)) == message

    @given(message=checkpoint_msg_strategy)
    def test_checkpoint(self, codec, message):
        assert codec.decode(codec.encode(message)) == message

    @given(message=snapshot_msg_strategy)
    def test_snapshot(self, codec, message):
        assert codec.decode(codec.encode(message)) == message

    def test_checkpoint_empty_state_edge(self, codec):
        """A virgin node's checkpoint — no groups, cursors, or floors."""
        message = CheckpointMessage(sender="mid-0", checkpoint_id=1, at=0)
        assert codec.decode(codec.encode(message)) == message

    def test_snapshot_empty_state_edge(self, codec):
        message = SnapshotChunk(
            sender="root", checkpoint_id=1, group_id=0, kind="assembler"
        )
        assert codec.decode(codec.encode(message)) == message

    def test_checkpoint_max_group_count_edge(self, codec):
        """The binary wire counts groups in a u16: the maximum load —
        65535 groups, including id 0xFFFF — must round-trip exactly."""
        n = 2**16 - 1
        message = CheckpointMessage(
            sender="root",
            checkpoint_id=7,
            at=10_000,
            emit_seq=123,
            groups={g: (g, g + 1, g + 2) for g in range(n)},
            safe_to={0: 1_000, n - 1: 2_000},
        )
        assert codec.decode(codec.encode(message)) == message

    def test_snapshot_max_group_id_edge(self, codec):
        message = SnapshotChunk(
            sender="mid-0",
            checkpoint_id=2,
            group_id=2**16 - 1,
            kind="pending",
            child="local-9",
            seq=2**40,
            covered=2**40,
        )
        assert codec.decode(codec.encode(message)) == message

    def test_snapshot_unjsonable_state_raises(self, codec):
        message = SnapshotChunk(
            sender="root", checkpoint_id=1, group_id=0, kind="assembler",
            state={"bad": {1, 2}},
        )
        with pytest.raises(CodecError):
            codec.encode(message)

    def test_sequenced_frames_do_not_nest(self, codec):
        inner = SequencedMessage(
            epoch=0,
            seq=1,
            inner=ControlMessage(sender="a", kind="hb", payload={}),
        )
        with pytest.raises(CodecError):
            codec.encode(SequencedMessage(epoch=0, seq=2, inner=inner))


class TestSizes:
    def test_string_codec_is_larger(self):
        """Fig 11b: Disco's string messages cost more bytes than binary."""
        import random

        rng = random.Random(3)
        message = EventBatchMessage(
            sender="local-0",
            covered_to=1_000,
            events=[
                Event(t, "speed", rng.uniform(0.0, 120.0)) for t in range(100)
            ],
        )
        binary = len(BinaryCodec().encode(message))
        text = len(StringCodec().encode(message))
        assert text > binary * 1.2

    def test_partials_much_smaller_than_events(self):
        """Sec 6.4.1: a slice partial replaces thousands of raw events."""
        events = EventBatchMessage(
            sender="l",
            covered_to=1_000,
            events=[Event(t, "k", 1.0) for t in range(1_000)],
        )
        partial = PartialBatchMessage(
            sender="l",
            group_id=0,
            first_slice_seq=0,
            covered_to=1_000,
            records=[
                SliceRecord(
                    start=0,
                    end=1_000,
                    contexts={0: ContextPartial(count=1_000, ops={K.SUM: 1_000.0, K.COUNT: 1_000})},
                )
            ],
        )
        codec = BinaryCodec()
        assert len(codec.encode(partial)) < len(codec.encode(events)) / 100

    def test_corrupt_data_raises(self):
        with pytest.raises(CodecError):
            BinaryCodec().decode(b"\x01\x00\x05ab")
        with pytest.raises(CodecError):
            BinaryCodec().decode(b"\xff")
        with pytest.raises(CodecError):
            StringCodec().decode(b"not json")

    def test_unknown_string_type_raises(self):
        with pytest.raises(CodecError):
            StringCodec().decode(b'{"type": "mystery"}')

    def test_control_payload_must_be_jsonable(self):
        message = ControlMessage(sender="r", kind="x", payload={1, 2})
        with pytest.raises(CodecError):
            BinaryCodec().encode(message)
