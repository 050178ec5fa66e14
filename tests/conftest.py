"""Shared fixtures and stream builders for the test suite."""

from __future__ import annotations

import os
import random
from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.core.event import Event
from repro.core.incmerge import IncrementalMergeLayer

#: HYPOTHESIS_PROFILE=nightly runs every property 2000 times (the nightly
#: CI job does, for the bit-exact close-path properties)
settings.register_profile("nightly", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def make_stream(
    n: int,
    *,
    seed: int = 7,
    keys: tuple[str, ...] = ("a", "b"),
    dt_choices: tuple[int, ...] = (5, 10, 25),
    gap_every: int | None = None,
    gap_dt: int = 5_000,
    marker_every: int | None = None,
    marker: str = "trip_end",
    value_mod: int = 101,
    start: int = 0,
) -> list[Event]:
    """A deterministic pseudo-random in-order event stream.

    ``gap_every`` injects a long pause every so many events (for session
    windows); ``marker_every`` attaches a user-defined end marker.
    """
    rng = random.Random(seed)
    events = []
    t = start
    for i in range(n):
        if gap_every is not None and i and i % gap_every == 0:
            t += gap_dt
        else:
            t += rng.choice(dt_choices)
        events.append(
            Event(
                time=t,
                key=rng.choice(keys),
                value=float((i * 17) % value_mod),
                marker=marker if marker_every is not None and i % marker_every == marker_every - 1 else None,
            )
        )
    return events


@contextmanager
def plain_scan():
    """Close every window by the plain scan of its slices (or cells): the
    reference the Two-Stacks close is held to — ``IncrementalMergeLayer.
    close`` with ``overlap`` off, the path tumbling windows take."""
    close = IncrementalMergeLayer.close

    def scan(self, store, first, last, ctx, kinds, length, overlap):
        return close(self, store, first, last, ctx, kinds, length, False)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(IncrementalMergeLayer, "close", scan)
        yield


@pytest.fixture
def small_stream() -> list[Event]:
    return make_stream(500)


@pytest.fixture
def gapped_stream() -> list[Event]:
    return make_stream(800, gap_every=97, gap_dt=4_000)
