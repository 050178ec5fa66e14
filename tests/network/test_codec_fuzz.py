"""Fuzz tests: codecs must fail cleanly on arbitrary bytes.

Each property keeps its example count in tier-1; the nightly hypothesis
profile (tests/conftest.py) raises every one to its own count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import CodecError
from repro.network.codec import BinaryCodec, StringCodec
from repro.network.messages import Message


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(data=st.binary(max_size=300))
def test_binary_decode_never_crashes(data):
    """Arbitrary bytes either decode to a message or raise CodecError —
    never an uncaught struct/index/decode error."""
    codec = BinaryCodec()
    try:
        message = codec.decode(data)
    except CodecError:
        return
    assert isinstance(message, Message)


@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(data=st.binary(max_size=300))
def test_string_decode_never_crashes(data):
    """JSON that parses but has the wrong shape is a CodecError too."""
    codec = StringCodec()
    try:
        message = codec.decode(data)
    except CodecError:
        return
    assert isinstance(message, Message)


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(data=st.binary(min_size=1, max_size=300))
def test_truncations_of_valid_messages_fail_cleanly(data):
    """Prefixes of a real message must raise CodecError, not misparse
    silently into a different valid message -- of the same type or not."""
    from repro.core.event import Event
    from repro.network.messages import EventBatchMessage

    codec = BinaryCodec()
    message = EventBatchMessage(
        sender="local-0",
        covered_to=1_000,
        events=[Event(t, "k", float(t)) for t in range(5)],
    )
    encoded = codec.encode(message)
    with pytest.raises(CodecError):
        codec.decode(encoded[: len(data) % len(encoded)])


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(data=st.binary(min_size=1, max_size=300))
def test_truncated_reliability_frames_fail_cleanly(data):
    """The reliable-channel frames get the same truncation guarantee:
    a cut sequenced envelope or ack must raise, never half-deliver."""
    from repro.core.event import Event
    from repro.network.messages import (
        AckMessage,
        EventBatchMessage,
        SequencedMessage,
    )

    codec = BinaryCodec()
    frames = [
        SequencedMessage(
            epoch=3,
            seq=17,
            inner=EventBatchMessage(
                sender="local-0",
                covered_to=1_000,
                events=[Event(t, "k", float(t)) for t in range(5)],
            ),
        ),
        AckMessage(sender="mid-0", epoch=3, cumulative=16, selective=[18, 21]),
    ]
    for message in frames:
        encoded = codec.encode(message)
        with pytest.raises(CodecError):
            codec.decode(encoded[: len(data) % len(encoded)])


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(data=st.binary(min_size=1, max_size=300))
def test_truncated_checkpoint_messages_fail_cleanly(data):
    """Checkpoint headers and snapshot chunks — the persisted recovery
    format — get the same truncation guarantee as the wire."""
    from repro.network.messages import (
        CheckpointMessage,
        ContextPartial,
        SliceRecord,
        SnapshotChunk,
    )
    from repro.core.types import OperatorKind

    codec = BinaryCodec()
    frames = [
        CheckpointMessage(
            sender="mid-0",
            checkpoint_id=4,
            at=9_000,
            emit_seq=12,
            groups={0: (5, 0, 8_000), 1: (2, 1_000, 7_000)},
            cursors=[(0, "local-0", 5, 8_000), (1, "local-1", 2, 7_000)],
            safe_to={0: 6_000},
        ),
        SnapshotChunk(
            sender="mid-0",
            checkpoint_id=4,
            group_id=0,
            kind="pending",
            child="local-0",
            records=[
                SliceRecord(
                    start=0,
                    end=500,
                    contexts={0: ContextPartial(count=3, ops={OperatorKind.SUM: 4.5})},
                )
            ],
        ),
        SnapshotChunk(
            sender="root",
            checkpoint_id=4,
            group_id=1,
            kind="assembler",
            covered=8_000,
            state={"covered": 8_000, "fixed": [["q", 7_000]]},
        ),
    ]
    for message in frames:
        encoded = codec.encode(message)
        with pytest.raises(CodecError):
            codec.decode(encoded[: len(data) % len(encoded)])
