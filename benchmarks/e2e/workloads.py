"""The six workloads: what goes in, which entry point it goes through.

A workload is a stream (generated from the seed), a list of query
*texts* (parsed during set-up, so the interface layer is on the path),
an entry point and the sizes that keep one run inside its time budget on
a 2-core box.  ``README.md`` records why each exists and which layer
dominates it; the one-line version is ``why`` below and in
``BENCHMARK.json``.

Sizes: the full sizes give replays of 0.2–1.5 s here, so that at least
five (up to a few dozen) fit into a ten-second run; ``quick`` sizes run
the same code paths on tiny streams for the self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Workload", "WORKLOADS", "KEYS"]

KEYS = tuple(f"k{i}" for i in range(10))


def _tumbling_texts(n: int = 100) -> list[str]:
    """``harness.tumbling_queries(n)`` as text: AVG, lengths cycling over
    1–10 s (paper §6.2.1 default)."""
    return [
        f"SELECT AVG(value) FROM stream WINDOW TUMBLING {1000 * (i % 10 + 1)} MS"
        for i in range(n)
    ]


def _sliding_texts() -> list[str]:
    """16 sliding queries, every one at overlap 64."""
    return [
        f"SELECT {fn}(value) FROM stream WINDOW SLIDING {length} MS EVERY {slide} MS"
        for length, slide in ((6400, 100), (3200, 50), (12800, 200), (1280, 20))
        for fn in ("AVG", "MAX", "SUM", "MIN")
    ]


def _sort_texts() -> list[str]:
    """Non-decomposable functions sharing one sorted-values operator."""
    texts = [
        f"SELECT MEDIAN(value) FROM stream WINDOW TUMBLING {length} MS"
        for length in (200, 500, 1000)
    ]
    texts += [
        f"SELECT QUANTILE({(k + 1) / 10})(value) FROM stream "
        f"WINDOW TUMBLING {200 * (k % 5 + 1)} MS"
        for k in range(8)
    ]
    texts.append("SELECT MAX(value) FROM stream WINDOW TUMBLING 400 MS")
    texts.append(
        "SELECT MEDIAN(value) FROM stream WINDOW SLIDING 1000 MS EVERY 200 MS"
    )
    return texts


def _cluster_texts() -> list[str]:
    texts = [
        f"SELECT {fn}(value) FROM stream WINDOW TUMBLING {length} MS"
        for length in (100, 200, 500, 1000, 2000, 5000)
        for fn in ("AVG", "MAX")
    ]
    texts += [
        f"SELECT AVG(value) FROM stream WINDOW SLIDING {length} MS EVERY {slide} MS"
        for length, slide in ((1000, 100), (5000, 500), (6400, 100))
    ]
    texts.append("SELECT MEDIAN(value) FROM stream WINDOW TUMBLING 1000 MS")
    texts.append("SELECT COUNT(value) FROM stream WINDOW SESSION GAP 100 MS")
    return texts


@dataclass(frozen=True, slots=True)
class Workload:
    """One workload's inputs and sizes.

    Attributes:
        name / why: as in ``BENCHMARK.json``.
        kind: entry point — ``session`` (in-process ``DesisSession``),
            ``sharded`` (``DesisSession`` with ``shards=2``) or
            ``cluster`` (``DesisCluster.run``).
        per_event: drive ``process(event)`` instead of ``process_many``.
        rate: event-time events per second of the generated stream (per
            local node for the cluster).
        events / quick_events: stream length (per local node for the
            cluster).
        chunk: ``process_many`` chunk of the untraced replay.
        trace_chunk: chunk of the traced replay — small enough that most
            calls cut no slice, so insert and cut+close time separate.
        min_repeats: timed replays never go below this.
        check_events: oracle prefix (the naive oracle is quadratic in
            windows × events, so overlap-64 workloads check less).
        paced_rate: wall-clock events per second offered in the open-loop
            phase (``None``: no paced phase).
        e2e_latency: the paced phase's p50/p95 are also this workload's
            end-to-end ``emit_latency_ms_*`` (large enough to repeat).
        generator: extra ``DataGeneratorConfig`` fields.
    """

    name: str
    why: str
    kind: str
    texts: tuple[str, ...]
    rate: float
    events: int
    quick_events: int
    per_event: bool = False
    chunk: int = 50_000
    trace_chunk: int = 1_000
    min_repeats: int = 5
    check_events: int = 100_000
    paced_rate: float | None = None
    e2e_latency: bool = False
    generator: dict = field(default_factory=dict)
    locals_: int = 16
    intermediates: int = 2


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="tumbling_batched",
            why="insert-dominated: 100 tumbling AVG queries, ~1 slice cut per "
                "50k events, so Slice.insert_run/insert_many do nearly all the work",
            kind="session",
            texts=tuple(_tumbling_texts()),
            rate=50_000.0,
            events=600_000,
            quick_events=60_000,
            min_repeats=9,
            paced_rate=250_000.0,
        ),
        Workload(
            name="tumbling_per_event",
            why="same queries through process(event): per-event dispatch and "
                "selection routing instead of slice-runs; must not move when "
                "ingestion paths are unified",
            kind="session",
            texts=tuple(_tumbling_texts()),
            rate=50_000.0,
            events=400_000,
            quick_events=40_000,
            per_event=True,
            chunk=20_000,
            paced_rate=250_000.0,
        ),
        Workload(
            name="sliding_overlap",
            why="close-dominated: 16 sliding queries at overlap 64, ~50 events "
                "per slice, so cut, window close and incremental merge carry the replay",
            kind="session",
            texts=tuple(_sliding_texts()),
            rate=5_000.0,
            events=500_000,
            quick_events=40_000,
            trace_chunk=16,
            check_events=12_000,
            paced_rate=100_000.0,
        ),
        Workload(
            name="sort_functions",
            why="non-decomposable shared sort: MEDIAN/QUANTILE windows whose "
                "close is a k-way merge of sorted runs; the one workload with "
                "millisecond emission latency",
            kind="session",
            texts=tuple(_sort_texts()),
            rate=50_000.0,
            events=400_000,
            quick_events=40_000,
            trace_chunk=500,
            paced_rate=100_000.0,
            e2e_latency=True,
        ),
        Workload(
            name="cluster_three_tier",
            why="slice-dense and root-bound: 16 locals, 2 intermediates, 100 ms "
                "ticks, so codec, simnet, intermediate merge and root assembly "
                "carry the run; the only workload with wire bytes",
            kind="cluster",
            texts=tuple(_cluster_texts()),
            rate=500.0,
            events=7_500,
            quick_events=1_000,
            min_repeats=7,
            check_events=30_000,
            generator={"gap_every_ms": 2_000, "gap_ms": 200},
        ),
        Workload(
            name="sharded_tumbling",
            why="tumbling_batched's stream and queries through the 2-shard "
                "multi-process backend: the pair is the wall-clock test of sharding",
            kind="sharded",
            texts=tuple(_tumbling_texts()),
            rate=50_000.0,
            events=600_000,
            quick_events=60_000,
        ),
    )
}
