"""Timing helpers shared by every workload of the end-to-end benchmark.

Three things live here and nowhere else:

* :class:`SpeedClock` — the one way a replay is timed.  The boxes this
  runs on change speed by up to 2x from one second to the next (a shared
  host; pure-Python CPU time and wall time move together), so a plain
  stopwatch gives an inter-quartile spread of 15–25 % on *any* metric.
  The clock therefore interleaves short slices of a fixed pure-Python
  calibration loop with the measured work and reports, next to the raw
  seconds, *calibrated* seconds: every stretch of measured work scaled
  by how fast the calibration loop ran right around it, relative to
  :data:`REF_OPS_PER_S`.  On a steady machine the two agree up to a
  constant; on a drifting one the calibrated number is the one that
  repeats (spread 2–4 %).
* :func:`summarize` / :func:`percentile` — median, quartiles, min/max
  and relative spread of repeats, computed the way the driver does.
* :class:`Tracer` — in-memory spans written as JSONL when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

#: calibration-loop iterations per second that count as machine speed 1.0
#: (about what this repo's 2-core dev box does when nothing disturbs it);
#: calibrated seconds are "seconds on a machine running the loop this fast"
REF_OPS_PER_S = 30_000_000.0

#: iterations per calibration slice (~0.7 ms at the reference speed).  A
#: richer slice (integer loop plus a ``heapq.merge`` of float lists) was
#: tried: no steadier on the replays, and far worse on set-up time, whose
#: fresh processes run it with cold caches.
SLICE_OPS = 20_000


def calibration_slice() -> float:
    """Run the fixed calibration loop once; return its wall seconds."""
    started = perf_counter()
    acc = 0
    for i in range(SLICE_OPS):
        acc += i & 7
    return perf_counter() - started


def machine_speed() -> float:
    """Calibration iterations per second, best of two slices (one
    preempted slice cannot drag the sample down)."""
    return SLICE_OPS / min(calibration_slice(), calibration_slice())


@dataclass(slots=True)
class Timing:
    """One timed stretch of work."""

    raw_s: float  #: wall seconds, calibration slices excluded
    calibrated_s: float  #: raw seconds scaled to the reference speed
    samples: int  #: calibration samples taken (first and last included)
    slice_s: float  #: wall seconds spent inside calibration slices

    @property
    def factor(self) -> float:
        """calibrated ÷ raw: multiply a raw duration measured inside this
        stretch by it to express it in calibrated seconds."""
        return self.calibrated_s / self.raw_s if self.raw_s > 0 else 1.0


class SpeedClock:
    """Stopwatch that samples machine speed while it runs.

    ``start()`` and ``stop()`` each take a calibration sample; ``tick()``
    takes one when at least ``min_gap_s`` passed since the last.  The
    work between two samples is scaled by the mean of their speeds.
    Calibration slices are excluded from both raw and calibrated time.
    """

    def __init__(self, min_gap_s: float = 0.02) -> None:
        self.min_gap_s = min_gap_s
        #: every speed sample of this clock's lifetime (ops/s)
        self.speeds: list[float] = []
        self._last_end = 0.0
        self._last_speed = 0.0
        self._raw = 0.0
        self._calibrated = 0.0
        self._slices = 0.0
        self._samples = 0

    def start(self) -> None:
        self._raw = self._calibrated = self._slices = 0.0
        self._samples = 0
        began = perf_counter()
        self._last_speed = machine_speed()
        self.speeds.append(self._last_speed)
        self._last_end = perf_counter()
        self._slices += self._last_end - began
        self._samples = 1

    def _sample(self, now: float) -> float:
        speed = machine_speed()
        self.speeds.append(speed)
        segment = now - self._last_end
        self._raw += segment
        self._calibrated += (
            segment * (speed + self._last_speed) * 0.5 / REF_OPS_PER_S
        )
        self._last_speed = speed
        self._last_end = perf_counter()
        self._samples += 1
        spent = self._last_end - now
        self._slices += spent
        return spent

    def tick(self) -> float:
        """Sample if due; return the wall seconds the sample took (0.0
        when none was taken) so callers can bill it to whoever paid."""
        now = perf_counter()
        if now - self._last_end < self.min_gap_s:
            return 0.0
        return self._sample(now)

    def stop(self) -> Timing:
        self._sample(perf_counter())
        return Timing(self._raw, self._calibrated, self._samples, self._slices)


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the smallest value >= q of the sample)."""
    ordered = sorted(values)
    index = min(max(math.ceil(q * len(ordered)) - 1, 0), len(ordered) - 1)
    return ordered[index]


def relative_spread(values: list[float]) -> float:
    """(Q3 − Q1) ÷ median, quartiles as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def summarize(values: list[float]) -> dict:
    """Median, quartiles, extremes and relative spread of repeats."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": relative_spread(values),
    }


# -- environment --------------------------------------------------------------


def machine_metadata() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "ref_ops_per_s": REF_OPS_PER_S,
    }


def run_child(argv: list[str], *, timeout: float) -> subprocess.CompletedProcess:
    """Run this interpreter on ``argv`` and wait for it to end."""
    return subprocess.run(
        [sys.executable, *argv],
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )


# -- spans --------------------------------------------------------------------


class Tracer:
    """In-memory span log: ``(name, start, end, parent, run)`` records.

    ``record`` returns the span's id so children can name their parent.
    ``count``/``total_s`` mark an *aggregated* span: many calls into a
    layer folded into one record at the boundary (per-event calls are
    never stored one by one).  Nothing touches the disk until
    :meth:`write_jsonl`.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []

    def record(self, name: str, start: float, end: float,
               parent: int | None = None, **attrs) -> int:
        span_id = len(self.spans)
        span = {
            "id": span_id,
            "run": self.run_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
        }
        span.update(attrs)
        self.spans.append(span)
        return span_id

    def self_seconds(self) -> dict[int, float]:
        """Span id -> duration minus what its children cover.

        An aggregated child covers its ``total_s`` (the calls it folds),
        not the wall interval from its first call to its last.
        """
        own = {
            span["id"]: span.get("total_s", span["end"] - span["start"])
            for span in self.spans
        }
        for span in self.spans:
            parent = span["parent"]
            if parent is not None:
                own[parent] -= span.get("total_s", span["end"] - span["start"])
        return own

    def layer_rows(self, root: int) -> list[tuple[str, float]]:
        """The layer table under span ``root``: self seconds of every
        descendant, summed by name, then ``root``'s own self time — what no
        layer accounts for — as ``harness.unattributed``.  The rows sum to
        ``root``'s duration."""
        own = self.self_seconds()
        inside = {root}
        rows: dict[str, float] = {}
        for span in self.spans:  # a parent is always recorded before its children
            if span["parent"] in inside:
                inside.add(span["id"])
                rows[span["name"]] = rows.get(span["name"], 0.0) + own[span["id"]]
        return [*rows.items(), ("harness.unattributed", own[root])]

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
