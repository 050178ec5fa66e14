"""The measurement passes of one workload.

Everything here drives the program through public entry points only and
measures it from outside: calls into ``DesisSession`` / ``DesisCluster``
/ layer functions are timed here, a ``Codec`` wrapper rides the public
``ClusterConfig(codec=...)`` seam, a ``ResultSink`` subclass stamps
emissions, and public counters (``EngineStats``, ``ClusterRunResult``,
``ShardStats``) are read after the fact.

Two passes:

* :func:`e2e_pass` — tracing off: one warm-up, then timed replays for
  the run's seconds (never fewer than the workload's minimum), giving
  the end-to-end numbers.
* :func:`layer_pass` — the traced replay (per-call timing at the layer
  boundary), the micro-drivers and the open-loop paced phase, giving the
  per-layer numbers; its difference from an untraced replay is reported
  as the tracing overhead.

Load model: throughput is a *closed-loop replay* of a stated input size
(the engine is a library whose caller blocks in ``process``; there is no
input queue to back up); latency comes from the separate *open-loop
paced phase*, where events are due on a wall-clock schedule and a
window's latency counts from when its end was due.

All seconds reported are calibrated (see :mod:`harness`); the raw
throughput is kept as ``harness.raw_events_per_s``.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from time import perf_counter

from repro.cluster import ClusterConfig, DesisCluster
from repro.conformance.oracle import naive_results, tolerance_for, values_match
from repro.core.analyzer import analyze
from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine
from repro.core.event import merge_streams
from repro.core.incmerge import DECOMPOSABLE_MERGE_KINDS, FifoAggregator
from repro.core.operators import OperatorSetState, merge_many_partials
from repro.core.results import ResultSink
from repro.core.slices import Slice, SliceStore
from repro.core.types import NodeRole, OperatorKind, WindowType
from repro.datagen import DataGenerator, DataGeneratorConfig
from repro.interface import DesisSession
from repro.interface.parser import parse_query
from repro.metrics.latency import event_time_latencies
from repro.network.codec import BinaryCodec, Codec
from repro.network.topology import three_tier

from harness import (
    SpeedClock,
    Timing,
    Tracer,
    percentile,
    relative_spread,
    summarize,
)
from workloads import KEYS, Workload

# -- inputs and set-up ---------------------------------------------------------


@dataclass(slots=True)
class Inputs:
    """What the load generator produced for one run."""

    events: list  # flat, time-ordered (merged across nodes for the cluster)
    streams: dict  # node id -> events (cluster only)
    chunks: list  # replay chunks
    gen_s: float
    digest: str


def generate(spec: Workload, seed: int, quick: bool) -> Inputs:
    """Generate the workload's stream from ``seed`` (the load generator)."""
    count = spec.quick_events if quick else spec.events
    config = DataGeneratorConfig(keys=KEYS, rate=spec.rate, **spec.generator)
    began = perf_counter()
    if spec.kind == "cluster":
        streams = DataGenerator(config, seed=seed).streams(spec.locals_, count)
        events = list(merge_streams(*(streams[k] for k in sorted(streams))))
    else:
        streams = {}
        events = list(DataGenerator(config, seed=seed).events(count))
    gen_s = perf_counter() - began
    digest = hashlib.sha256()
    digest.update(array("q", [e.time for e in events]).tobytes())
    digest.update(array("d", [e.value for e in events]).tobytes())
    digest.update("".join(e.key for e in events).encode())
    chunks = [
        events[i : i + spec.chunk] for i in range(0, len(events), spec.chunk)
    ]
    # The stream belongs to the load generator, not to the program: park
    # it outside the collector so the program's collections do not pay
    # for walking a million generator-owned objects.
    gc.collect()
    gc.freeze()
    return Inputs(events, streams, chunks, gen_s, digest.hexdigest())


def parse(spec: Workload) -> list:
    """The interface layer: query texts -> ``Query`` objects."""
    return [
        parse_query(text, query_id=f"q{i}") for i, text in enumerate(spec.texts)
    ]


def build(spec: Workload, queries: list, codec: Codec | None = None):
    """Construct the system under test, ready for its first event."""
    if spec.kind == "cluster":
        return DesisCluster(
            queries,
            three_tier(spec.locals_, spec.intermediates),
            config=ClusterConfig(
                tick_interval=100,
                batch_ms=100,
                codec=codec if codec is not None else BinaryCodec(),
            ),
        )
    config = EngineConfig(shards=2) if spec.kind == "sharded" else EngineConfig()
    session = DesisSession(config=config)
    for query in queries:
        session.submit(query)
    # reading the stats builds the engine now, outside the timed replay
    # (sharded: the workers still start with the first frame, inside it)
    if session.stats.events:
        raise RuntimeError("a fresh session already counted events")
    return session


def setup_stages(spec: Workload) -> dict:
    """Parse, construct, analyze once; return the stamps between them."""
    began = perf_counter()
    queries = parse(spec)
    parsed = perf_counter()
    build(spec, queries)
    ready = perf_counter()
    # construction analyzes the queries itself; this direct call times
    # the analyzer alone and comes after "ready", outside setup_s
    plan = analyze(queries, decentralized=spec.kind == "cluster")
    analyzed = perf_counter()
    return {
        "began": began,
        "parsed": parsed,
        "ready": ready,
        "analyzed": analyzed,
        "groups": len(plan.groups),
        "operators_planned": sum(len(g.operators) for g in plan.groups),
    }


# -- replays ---------------------------------------------------------------------


@dataclass(slots=True)
class Replay:
    """One replay of the workload's whole stream."""

    timing: Timing
    rows: list  # (query_id, start, end, event_count, value), emission order
    busiest_s: float  # raw seconds of the busiest stage
    counts: dict = field(default_factory=dict)  # deterministic counters
    layers: dict = field(default_factory=dict)  # raw seconds per layer
    extra: dict = field(default_factory=dict)
    digest: str = ""  # of the rows, so they can be dropped after the warm-up

    def __post_init__(self) -> None:
        self.digest = hashlib.sha256(repr(self.rows).encode()).hexdigest()

    def drop_rows(self) -> "Replay":
        self.rows = []
        return self


def _rows(sink) -> list:
    return [(r.query_id, r.start, r.end, r.event_count, r.value) for r in sink]


def _engine_counts(stats, events: int) -> dict:
    windows = stats.windows_closed
    return {
        "core.engine.calculations_per_event": stats.calculations / events,
        "core.engine.selection_checks_per_event": stats.selection_checks / events,
        "core.engine.slices_closed": stats.slices_closed,
        "core.engine.windows_closed": windows,
        "core.engine.merge_ops": stats.merge_ops,
        "core.engine.merge_ops_per_window": (
            stats.merge_ops / windows if windows else 0.0
        ),
        "core.engine.peak_live_slices": stats.peak_live_slices,
        "core.engine.peak_open_windows": stats.peak_open_windows,
        "core.engine.results": stats.results,
    }


class ProbeCodec(Codec):
    """``BinaryCodec`` behind the public ``ClusterConfig(codec=...)`` seam.

    Untimed, it only gives the clock a place to sample machine speed
    *during* ``DesisCluster.run`` (one call, seconds long).  A sample
    taken inside ``encode`` runs inside the sender's handler, so its
    seconds are booked per sender and later taken off that node's busy
    time.  Timed (the traced pass), it also times and counts every
    encode and decode, booked by the message's sender.
    """

    name = "binary"

    def __init__(self, clock: SpeedClock, *, timed: bool) -> None:
        self._inner = BinaryCodec()
        self._clock = clock
        self.timed = timed
        self.slice_by_sender: dict[str, float] = {}
        self.encode_by_sender: dict[str, float] = {}
        self.decode_by_sender: dict[str, float] = {}
        self.encode_bytes = 0
        self.decode_bytes = 0
        self.frames = 0

    def encode(self, message):
        spent = self._clock.tick()
        if spent:
            sender = message.sender
            self.slice_by_sender[sender] = (
                self.slice_by_sender.get(sender, 0.0) + spent
            )
        if not self.timed:
            return self._inner.encode(message)
        began = perf_counter()
        data = self._inner.encode(message)
        spent = perf_counter() - began
        booked = self.encode_by_sender
        booked[message.sender] = booked.get(message.sender, 0.0) + spent
        self.encode_bytes += len(data)
        self.frames += 1
        return data

    def decode(self, data):
        if not self.timed:
            return self._inner.decode(data)
        began = perf_counter()
        message = self._inner.decode(data)
        spent = perf_counter() - began
        booked = self.decode_by_sender
        booked[message.sender] = booked.get(message.sender, 0.0) + spent
        self.decode_bytes += len(data)
        return message


def replay_session(spec: Workload, queries: list, inputs: Inputs,
                   clock: SpeedClock) -> Replay:
    """Closed-loop replay through ``DesisSession`` (in-process or sharded),
    timed from the first ``process`` call to ``close()`` returning."""
    session = build(spec, queries)
    clock.start()
    if spec.per_event:
        process = session.process
        for chunk in inputs.chunks:
            for event in chunk:
                process(event)
            clock.tick()
    else:
        process_many = session.process_many
        for chunk in inputs.chunks:
            process_many(chunk)
            clock.tick()
    session.close()
    timing = clock.stop()
    replay = Replay(
        timing,
        _rows(session.results),
        timing.raw_s,
        _engine_counts(session.stats, len(inputs.events)),
    )
    if spec.kind == "sharded":
        _fold_shard_stats(replay, session.shard_stats, first_call_s=None)
    return replay


def _fold_shard_stats(replay: Replay, shard, first_call_s) -> None:
    """``ShardStats`` -> layers; the busiest stage bounds the pipeline."""
    parent_s = shard.parent_ns / 1e9
    reduce_s = shard.reduce_ns / 1e9
    busy = [ns / 1e9 for ns in shard.busy_ns]
    replay.busiest_s = max(parent_s + reduce_s, max(busy))
    replay.layers.update(
        {
            "parallel.backend.parent_s": parent_s,
            "parallel.reduce.reduce_s": reduce_s,
            "parallel.backend.wait_s": max(
                replay.timing.raw_s - parent_s - reduce_s, 0.0
            ),
            "parallel.backend.worker_busy_max_s": max(busy),
            "parallel.backend.worker_busy_sum_s": sum(busy),
        }
    )
    if first_call_s is not None:
        replay.layers["parallel.backend.spawn_s"] = first_call_s
    mean_events = sum(shard.events) / len(shard.events)
    replay.counts["parallel.backend.frames"] = shard.frames
    replay.counts["parallel.backend.shard_skew"] = (
        max(shard.events) / mean_events if mean_events else 0.0
    )
    replay.extra["parallel.backend.peak_inflight"] = max(shard.peak_inflight)


def traced_replay_session(spec: Workload, queries: list, chunks: list,
                          events: int, clock: SpeedClock, tracer: Tracer,
                          parent: int) -> Replay:
    """The traced replay: every call into the engine is timed at the
    boundary and sorted by whether ``stats.slices_closed`` moved."""
    session = build(spec, queries)
    stats = session.stats
    plain: list[float] = []  # calls that cut no slice: insert work only
    cutting: list[float] = []  # calls that cut at least one slice
    call = session.process if spec.per_event else session.process_many
    clock.start()
    began = perf_counter()
    for chunk in chunks:
        for item in chunk if spec.per_event else (chunk,):
            closed = stats.slices_closed
            t0 = perf_counter()
            call(item)
            spent = perf_counter() - t0
            if stats.slices_closed != closed:
                cutting.append(spent)
            else:
                plain.append(spent)
        clock.tick()
    t0 = perf_counter()
    session.close()
    ended = perf_counter()
    timing = clock.stop()
    replay = Replay(
        timing,
        _rows(session.results),
        timing.raw_s,
        _engine_counts(session.stats, events),
    )
    # the span's seconds are the replay wall without the calibration slices
    span = tracer.record("replay", began, ended, parent, events=events,
                         total_s=timing.raw_s)
    replay.extra["span"] = span
    if spec.kind == "sharded":
        # workers report their counters at close, so calls cannot be
        # sorted by cuts; the layers come from ShardStats instead
        calls = plain + cutting
        first = calls[0] - statistics.median(calls[1:]) if len(calls) > 2 else 0.0
        _fold_shard_stats(replay, session.shard_stats, max(first, 0.0))
        for name in ("backend.parent", "reduce.reduce", "backend.wait"):
            tracer.record(f"parallel.{name}", began, ended, span,
                          total_s=replay.layers[f"parallel.{name}_s"])
        return replay
    typical = statistics.median(plain) if plain else 0.0
    insert_s = sum(plain) + len(cutting) * typical
    cut_close_s = sum(cutting) - len(cutting) * typical
    replay.layers.update(
        {
            "core.engine.insert_s": insert_s,
            "core.engine.cut_close_s": cut_close_s,
            "core.engine.close_s": ended - t0,
        }
    )
    if spec.per_event:
        replay.extra["ns_per_event"] = typical * 1e9
    replay.extra["close_calls_ms"] = [(c - typical) * 1e3 for c in cutting]
    tracer.record("core.engine.insert", began, t0, span,
                  count=len(plain) + len(cutting), total_s=insert_s)
    tracer.record("core.engine.cut_close", began, t0, span,
                  count=len(cutting), total_s=cut_close_s)
    tracer.record("core.engine.close", t0, ended, span)
    return replay


def replay_cluster(spec: Workload, queries: list, inputs: Inputs,
                   clock: SpeedClock, *, tracer: Tracer | None = None,
                   parent: int | None = None) -> Replay:
    """One ``DesisCluster.run`` over the per-node streams."""
    codec = ProbeCodec(clock, timed=tracer is not None)
    cluster = build(spec, queries, codec)
    topology = cluster.topology
    clock.start()
    began = perf_counter()
    result = cluster.run(inputs.streams)
    ended = perf_counter()
    timing = clock.stop()
    node_cpu = {
        node: seconds - codec.slice_by_sender.get(node, 0.0)
        for node, seconds in result.node_cpu.items()
    }
    roles = {node: topology.role(node) for node in node_cpu}
    busy = {role: 0.0 for role in NodeRole}
    for node, seconds in node_cpu.items():
        busy[roles[node]] += seconds
    bottleneck = max(node_cpu, key=node_cpu.__getitem__)
    net = result.network
    events = result.events
    local_stats = result.local_stats.values()
    latencies = event_time_latencies(result.sink)
    replay = Replay(
        timing,
        _rows(result.sink),
        node_cpu[bottleneck],
        counts={
            "sim_emit_latency_ms_p50": percentile(latencies, 0.50),
            "sim_emit_latency_ms_p95": percentile(latencies, 0.95),
            "wire_bytes_per_event": net.total_bytes / events,
            "network.simnet.messages": net.total_messages,
            "network.simnet.data_bytes": net.data_bytes,
            "network.simnet.control_bytes": net.control_bytes,
            "network.simnet.bytes_from_local": net.bytes_from_role.get(
                NodeRole.LOCAL, 0
            ),
            "network.simnet.bytes_from_intermediate": net.bytes_from_role.get(
                NodeRole.INTERMEDIATE, 0
            ),
            "cluster.root.merge_ops": result.root_merge_ops,
            "cluster.local.slices_closed": sum(
                s.slices_closed for s in local_stats
            ),
            "cluster.local.calculations_per_event": sum(
                s.calculations for s in local_stats
            ) / events,
            "cluster.peak_staging": result.peak_staging,
            "core.engine.results": len(result.sink),
        },
        layers={
            "cluster.local.busy_s": busy[NodeRole.LOCAL],
            "cluster.local.busy_max_s": max(
                s for n, s in node_cpu.items() if roles[n] is NodeRole.LOCAL
            ),
            "cluster.intermediate.busy_s": busy[NodeRole.INTERMEDIATE],
            "cluster.root.busy_s": busy[NodeRole.ROOT],
            "cluster.bottleneck_busy_s": node_cpu[bottleneck],
            # run wall minus every node's handlers: stream injection, the
            # event heap and delivery
            "network.simnet.sched_s": timing.raw_s - sum(node_cpu.values()),
        },
        extra={"bottleneck_is_root": roles[bottleneck] is NodeRole.ROOT},
    )
    if tracer is None:
        return replay
    # Codec calls run inside node handlers.  An encode is paid by its
    # sender; a decode by the receiver, which is the sender's parent for
    # everything but the handful of set-up messages sent down the tree
    # (booked to the intermediates).
    codec_in = {role: {"encode": 0.0, "decode": 0.0} for role in NodeRole}
    for sender, seconds in codec.encode_by_sender.items():
        codec_in[roles[sender]]["encode"] += seconds
    for sender, seconds in codec.decode_by_sender.items():
        receiver = topology.parent(sender) if sender in roles else None
        role = roles[receiver] if receiver is not None else NodeRole.INTERMEDIATE
        codec_in[role]["decode"] += seconds
    replay.layers["network.codec.encode_s"] = sum(
        c["encode"] for c in codec_in.values()
    )
    replay.layers["network.codec.decode_s"] = sum(
        c["decode"] for c in codec_in.values()
    )
    replay.counts["network.codec.frames"] = codec.frames
    replay.counts["network.codec.bytes"] = codec.encode_bytes
    replay.extra["decode_bytes"] = codec.decode_bytes
    span = tracer.record("cluster.run", began, ended, parent, events=events,
                         total_s=timing.raw_s)
    replay.extra["span"] = span
    for role in NodeRole:
        role_span = tracer.record(f"cluster.{role.value}.busy", began, ended,
                                  span, total_s=busy[role])
        for direction, seconds in codec_in[role].items():
            tracer.record(f"network.codec.{direction}", began, ended,
                          role_span, total_s=seconds)
    # defined as the run's remainder, so nothing is left unattributed
    tracer.record("network.simnet.sched", began, ended, span,
                  total_s=replay.layers["network.simnet.sched_s"])
    return replay


def run_replay(spec, queries, inputs, clock) -> Replay:
    if spec.kind == "cluster":
        return replay_cluster(spec, queries, inputs, clock)
    return replay_session(spec, queries, inputs, clock)


# -- open-loop paced phase ---------------------------------------------------------


class StampingSink(ResultSink):
    """Result sink that notes the wall clock at every ``emit``."""

    def __init__(self) -> None:
        super().__init__(keep=True)
        self.stamps: list[float] = []

    def emit(self, result) -> None:
        super().emit(result)
        self.stamps.append(perf_counter())


def paced_phase(spec: Workload, queries: list, events: list, times: list,
                speedup: float) -> dict:
    """Offer ``events`` on a wall-clock schedule; measure emission lateness.

    Event ``e`` is due at ``t0 + (e.time - first.time) / speedup``.  A
    busy-poll driver hands the engine every event already due; a window's
    latency is ``emit_wall - due(window.end)`` — queue wait included,
    window length excluded.  Results flushed by the final ``close()``
    were never due and are not samples.
    """
    sink = StampingSink()
    engine = AggregationEngine(queries, sink=sink)
    first = times[0]
    scale = speedup * 1e3  # event-time ms per wall second
    total = len(events)
    handed = 0
    backlog_max = 0
    lag_max = 0.0
    process = engine.process
    process_batch = engine.process_batch
    per_event = spec.per_event
    t0 = perf_counter()
    while handed < total:
        now = perf_counter()
        due = bisect_right(times, first + (now - t0) * scale, handed, total)
        if due == handed:
            continue
        backlog_max = max(backlog_max, due - handed)
        lag_max = max(lag_max, now - (t0 + (times[handed] - first) / scale))
        if per_event:
            for index in range(handed, due):
                process(events[index])
        else:
            process_batch(events[handed:due])
        handed = due
    wall = perf_counter() - t0
    regular = len(sink.stamps)
    engine.close()
    latencies = [
        (stamp - (t0 + (result.end - first) / scale)) * 1e3
        for stamp, result in zip(sink.stamps[:regular], sink.results)
    ]
    return {
        "latencies_ms": latencies,
        "backlog_max": backlog_max,
        "lag_max_ms": lag_max * 1e3,
        "offered_per_s": total / wall,
    }


def paced(spec: Workload, queries: list, inputs: Inputs, clock: SpeedClock,
          phase_s: float, phases: int = 3) -> dict:
    """``phases`` paced phases of ``phase_s`` wall seconds each, over the
    head of the stream; percentiles are the median over phases (p99 over
    the pooled samples), scaled to calibrated milliseconds."""
    speedup = spec.paced_rate / spec.rate
    count = min(int(spec.paced_rate * phase_s), len(inputs.events))
    events = inputs.events[:count]
    times = [event.time for event in events]
    p50s, p95s, pooled, backlog, lag, offered = [], [], [], [], [], []
    for _ in range(phases):
        clock.start()
        phase = paced_phase(spec, queries, events, times, speedup)
        factor = clock.stop().factor
        samples = [ms * factor for ms in phase["latencies_ms"]]
        if not samples:
            continue
        p50s.append(percentile(samples, 0.50))
        p95s.append(percentile(samples, 0.95))
        pooled.extend(samples)
        backlog.append(phase["backlog_max"])
        lag.append(phase["lag_max_ms"] * factor)
        offered.append(phase["offered_per_s"])
    if not pooled:
        return {}
    return {
        "paced.emit_latency_ms_p50": statistics.median(p50s),
        "paced.emit_latency_ms_p95": statistics.median(p95s),
        "paced.emit_latency_ms_p99": percentile(pooled, 0.99),
        "paced.samples": len(pooled),
        "paced.backlog_max_events": max(backlog),
        "paced.generator_lag_ms_max": max(lag),
        "paced.offered_events_per_s": statistics.median(offered),
    }


# -- micro-drivers: direct calls into single layer functions -------------------------


def _timed(clock: SpeedClock, fn, repeats: int) -> list[float]:
    """Calibrated seconds of ``repeats`` calls of ``fn``."""
    out = []
    for _ in range(repeats):
        clock.start()
        t0 = perf_counter()
        fn()
        spent = perf_counter() - t0
        out.append(spent * clock.stop().factor)
    return out


def micro_drivers(spec: Workload, queries: list, inputs: Inputs,
                  clock: SpeedClock, repeats: int) -> dict:
    """Time layer functions directly on the workload's own value column
    and operator kinds (the first query-group's plan)."""
    plan = analyze(queries, decentralized=spec.kind == "cluster")
    kinds = plan.groups[0].operators
    every_kind = {k for g in plan.groups for k in g.operators}
    values = [event.value for event in inputs.events[:12_800]]
    run = values[:10_000]
    out: dict[str, float] = {}

    def med_ns_per_value(fn, n):
        return statistics.median(_timed(clock, fn, repeats)) / n * 1e9

    if spec.per_event:
        def insert_each():
            insert = OperatorSetState(kinds).insert
            for value in run:
                insert(value)
        out["core.operators.insert_ns_per_value"] = med_ns_per_value(
            insert_each, len(run)
        )
    else:
        out["core.operators.insert_many_ns_per_value"] = med_ns_per_value(
            lambda: OperatorSetState(kinds).insert_many(run), len(run)
        )
        out["core.slices.insert_run_ns_per_value"] = med_ns_per_value(
            lambda: Slice(0, 0).insert_run(0, run, kinds), len(run)
        )

    # 64 closed slices of 200 values: one overlap-64 window's merge input
    store = SliceStore()
    for index in range(64):
        slice_ = Slice(index, index)
        slice_.insert_run(0, values[index * 200 : (index + 1) * 200], kinds)
        slice_.close(index + 1)
        store.add(slice_, 1)
    parts = [store.get(index).partials[0] for index in range(64)]

    def merge_window():
        for kind in kinds:
            merge_many_partials(kind, [p[kind] for p in parts])

    def merge_window_many():
        for _ in range(50):
            merge_window()

    def merge_context_many():
        for _ in range(50):
            store.merge_context_partials(0, 63, 0, kinds, merge_many_partials)

    out["core.operators.merge_many_us_per_window"] = (
        statistics.median(_timed(clock, merge_window_many, repeats)) / 50 * 1e6
    )
    out["core.slices.merge_context_us"] = (
        statistics.median(_timed(clock, merge_context_many, repeats)) / 50 * 1e6
    )

    if OperatorKind.NON_DECOMPOSABLE_SORT in every_kind:
        runs = [sorted(values[i * 2_000 : (i + 1) * 2_000]) for i in range(5)]
        merged = sum(len(r) for r in runs)
        seconds = statistics.median(
            _timed(
                clock,
                lambda: merge_many_partials(
                    OperatorKind.NON_DECOMPOSABLE_SORT, runs
                ),
                repeats,
            )
        )
        out["core.operators.sort_merge_values_per_s"] = merged / seconds

    fifo_kinds = [k for k in kinds if k in DECOMPOSABLE_MERGE_KINDS]
    overlapping = any(
        q.window.window_type is WindowType.SLIDING for q in queries
    )
    if overlapping and fifo_kinds:
        # steady state of one overlap-64 stream: push the newest slice,
        # evict the oldest, query the window
        cycles: list[float] = []
        clock.start()
        fifo = FifoAggregator(fifo_kinds)
        for pos in range(4_000):
            ops = parts[pos % 64]
            t0 = perf_counter()
            fifo.push(pos, ops, 200)
            fifo.evict_below(pos - 63)
            fifo.query()
            cycles.append(perf_counter() - t0)
            if pos % 256 == 0:
                clock.tick()
        factor = clock.stop().factor
        steady = cycles[64:]
        out["core.incmerge.cycle_us"] = statistics.median(steady) * factor * 1e6
        out["core.incmerge.cycle_us_max"] = max(steady) * factor * 1e6
    return out


# -- correctness gate ------------------------------------------------------------------


def check_against_oracle(spec: Workload, queries: list, inputs: Inputs,
                         rows: list, quick: bool) -> tuple[int, int, list[str]]:
    """Compare the replay's windows that ended inside the checked prefix
    with the naive oracle over that prefix.

    A window ending before the prefix's last timestamp has all its events
    inside the prefix (the stream is time-ordered), so the replay's
    result for it must equal the oracle's.  (Strictly before: the oracle
    truncates a still-open session to the last timestamp.)  The quick
    self-test checks every seventh query, one of each window length.
    """
    prefix = inputs.events[: spec.check_events]
    horizon = prefix[-1].time
    origin = 0 if spec.kind == "cluster" else None
    checked_queries = queries[::7] if quick else queries
    got_by_query: dict[str, list] = {}
    for query_id, start, end, count, value in rows:
        if end < horizon:
            got_by_query.setdefault(query_id, []).append((start, end, count, value))
    checked = failed = 0
    notes: list[str] = []
    for query in checked_queries:
        policy = tolerance_for(query, cross_fold=True)
        expected = sorted(
            (start, end, count, value)
            for start, end, value, count in naive_results(
                query, prefix, horizon, origin=origin
            )
            if end < horizon
        )
        got = sorted(got_by_query.get(query.query_id, []),
                     key=lambda row: row[:3])
        checked += max(len(expected), len(got))
        bad = abs(len(expected) - len(got))
        if bad and len(notes) < 5:
            notes.append(
                f"{query.query_id}: {len(got)} windows, oracle {len(expected)}"
            )
        for want, have in zip(expected, got):
            if want[:3] != have[:3] or not values_match(want[3], have[3], policy):
                bad += 1
                if len(notes) < 5:
                    notes.append(f"{query.query_id}: got {have}, oracle {want}")
        failed += bad
    return checked, failed, notes


def check_rows_match(queries: list, reference: list, rows: list) -> tuple[int, int]:
    """Row-for-row comparison (sharded vs in-process): identity and counts
    exact, values under each query's cross-fold policy (1e-9 relative for
    float folds, exact otherwise)."""
    policies = {q.query_id: tolerance_for(q, cross_fold=True) for q in queries}
    left = sorted(reference, key=lambda row: row[:3])
    right = sorted(rows, key=lambda row: row[:3])
    failed = abs(len(left) - len(right))
    for want, have in zip(left, right):
        if want[:4] != have[:4] or not values_match(
            want[4], have[4], policies[want[0]]
        ):
            failed += 1
    return max(len(left), len(right)), failed


# -- passes ----------------------------------------------------------------------------


def peak_rss_mb(include_children: bool) -> float:
    """High-water resident set of this process (plus the largest waited-for
    child, i.e. a shard worker) in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def repeat(replay_once, count: int, budget_s: float = 0.0) -> list[Replay]:
    """``count`` replays, then more for as long as another one still fits
    into ``budget_s`` wall seconds (counted from the first).  Only the
    digest of each is kept; the rows of the warm-up are the checked ones."""
    replays: list[Replay] = []
    began = perf_counter()
    while True:
        spent = perf_counter() - began
        if len(replays) >= count and spent + spent / len(replays) > budget_s:
            return replays
        replays.append(replay_once().drop_rows())


def e2e_pass(spec: Workload, queries: list, inputs: Inputs, clock: SpeedClock,
             seconds: float, quick: bool, warmup: Replay) -> dict:
    """Tracing off: the end-to-end numbers (set-up is measured by the
    caller, in fresh processes)."""
    events = len(inputs.events)
    def replay_once():
        return run_replay(spec, queries, inputs, clock)

    began = perf_counter()
    replays = repeat(replay_once, 2 if quick else spec.min_repeats)
    # read after a fixed number of replays, so that the high-water mark
    # does not depend on how many more fit into the run
    rss = peak_rss_mb(spec.kind == "sharded")
    typical = (perf_counter() - began) / len(replays)
    left = seconds - (perf_counter() - began)
    if left > typical:
        replays += repeat(replay_once, 1, left)
    calibrated = [r.timing.calibrated_s for r in replays]
    busiest = [r.busiest_s * r.timing.factor for r in replays]
    raw = [r.timing.raw_s for r in replays]
    metrics = {
        "events_per_s": events / statistics.median(calibrated),
        "sustainable_events_per_s": events / statistics.median(busiest),
        "peak_rss_mb": rss,
        "harness.raw_events_per_s": events / statistics.median(raw),
        "harness.repeat_spread": relative_spread(calibrated),
    }
    for name in ("sim_emit_latency_ms_p50", "sim_emit_latency_ms_p95",
                 "wire_bytes_per_event"):
        if name in warmup.counts:
            metrics[name] = warmup.counts[name]
    return {
        "metrics": metrics,
        "replay_calibrated_s": summarize(calibrated),
        "digests": [r.digest for r in replays],
    }


def layer_pass(spec: Workload, queries: list, inputs: Inputs, clock: SpeedClock,
               seconds: float, quick: bool, warmup: Replay,
               tracer: Tracer) -> dict:
    """The traced replay(s), the micro-drivers and the paced phase."""
    events = len(inputs.events)
    has_paced = spec.paced_rate is not None
    replay_budget = seconds * (0.3 if has_paced else 0.6)
    root = tracer.record("layer_pass", perf_counter(), perf_counter())
    # untraced reference for the tracing overhead
    plain = [warmup.timing.calibrated_s,
             run_replay(spec, queries, inputs, clock).timing.calibrated_s]
    if spec.kind == "cluster":
        def traced_once():
            return replay_cluster(spec, queries, inputs, clock,
                                  tracer=tracer, parent=root)
    else:
        # small chunks, so that most calls cut no slice (sharded workers
        # report their cuts only at close: the usual chunks do)
        size = spec.chunk if spec.kind == "sharded" or spec.per_event else spec.trace_chunk
        chunks = [inputs.events[i : i + size] for i in range(0, events, size)]

        def traced_once():
            return traced_replay_session(spec, queries, chunks, events, clock,
                                         tracer, root)
    traced = repeat(traced_once, 1, replay_budget)
    walls = [r.timing.calibrated_s for r in traced]
    middle = sorted(traced, key=lambda r: r.timing.calibrated_s)[len(traced) // 2]
    metrics: dict[str, float] = {}
    # layer seconds: median over traced replays, in calibrated seconds
    for name in middle.layers:
        metrics[name] = statistics.median(
            r.layers[name] * r.timing.factor for r in traced
        )
    metrics.update(middle.counts)
    if "ns_per_event" in middle.extra:
        metrics["core.engine.ns_per_event"] = statistics.median(
            r.extra["ns_per_event"] * r.timing.factor for r in traced
        )
    close_calls = [ms * r.timing.factor for r in traced
                   for ms in r.extra.get("close_calls_ms", ())]
    if close_calls:
        metrics["core.engine.close_call_ms_p50"] = percentile(close_calls, 0.50)
        metrics["core.engine.close_call_ms_p99"] = percentile(close_calls, 0.99)
    if spec.kind == "cluster":
        metrics["cluster.bottleneck_is_root"] = float(
            statistics.median(r.extra["bottleneck_is_root"] for r in traced)
        )
        encode = metrics["network.codec.encode_s"]
        decode = metrics["network.codec.decode_s"]
        metrics["network.codec.encode_mb_per_s"] = (
            middle.counts["network.codec.bytes"] / 1e6 / encode
        )
        metrics["network.codec.decode_mb_per_s"] = (
            middle.extra["decode_bytes"] / 1e6 / decode
        )
    if spec.kind == "sharded":
        metrics["parallel.backend.peak_inflight"] = statistics.median(
            r.extra["parallel.backend.peak_inflight"] for r in traced
        )
    wall = middle.timing.raw_s
    table = [(name, seconds, seconds / wall)
             for name, seconds in tracer.layer_rows(middle.extra["span"])]
    metrics["harness.unattributed_share"] = table[-1][2]
    metrics["harness.trace_overhead_share"] = (
        statistics.median(walls) / statistics.median(plain) - 1.0
    )
    metrics["harness.repeat_spread"] = relative_spread(walls)
    metrics["harness.raw_events_per_s"] = events / middle.timing.raw_s

    t0 = perf_counter()
    metrics.update(micro_drivers(spec, queries, inputs, clock, 3 if quick else 7))
    tracer.record("micro_drivers", t0, perf_counter(), root)
    if has_paced:
        t0 = perf_counter()
        phase_s = 0.25 if quick else max(seconds * 0.2, 0.5)
        metrics.update(paced(spec, queries, inputs, clock, phase_s))
        tracer.record("paced", t0, perf_counter(), root)
        if spec.e2e_latency and "paced.emit_latency_ms_p50" in metrics:
            metrics["emit_latency_ms_p50"] = metrics["paced.emit_latency_ms_p50"]
            metrics["emit_latency_ms_p95"] = metrics["paced.emit_latency_ms_p95"]
    return {
        "metrics": metrics,
        "replay_calibrated_s": summarize(walls),
        "untraced_calibrated_s": statistics.median(plain),
        "layer_table": table,
        "replay_wall_s": middle.timing.raw_s,
        "digests": [r.digest for r in traced],
    }


__all__ = [
    "Inputs",
    "Replay",
    "generate",
    "parse",
    "build",
    "setup_stages",
    "run_replay",
    "e2e_pass",
    "layer_pass",
    "check_against_oracle",
    "check_rows_match",
]
