"""Sharded execution backend: N worker processes, one key shard each.

DESIGN.md §13 describes the architecture; the short version:

* The parent makes **one** pass over incoming rows: it checks order,
  looks the key up in a per-session routing table
  (:func:`~repro.parallel.sharding.shard_of` runs once per distinct key)
  and appends time, value and key slot to the owning shard's columns.
  Every ``shard_batch_size`` rows (or at a watermark/close) each worker
  is sent a :class:`~repro.network.messages.ShardBatchMessage` holding
  only *its* rows over an OS pipe — every row crosses a pipe once.  A
  shard that owns no row of a frame still gets the frame's watermarks,
  which is what keeps all shards on one cut schedule.
* Each worker decodes its columns and hands them to a completely
  ordinary in-process :class:`~repro.core.engine.AggregationEngine`
  through ``process_columns`` — no event objects are built.  A
  ``window_sink`` hook intercepts every window the worker closes —
  including empty ones — and ships its raw operator partials back as
  :class:`~repro.network.messages.ShardWindowRecord` entries.
* The parent's :class:`~repro.parallel.reduce.ShardReducer` matches each
  window's N records by identity, merges the partials in shard order via
  :func:`~repro.core.operators.merge_many_partials`, and emits final
  results in shard 0's close order.

Determinism hinges on every shard running the *same* fixed-window
schedule: the first frame carries the global bootstrap origin
(``advance_before``) and every frame carries a trailing watermark
(``advance_after``), so all shards agree on slice cuts and on which
windows close within each frame.  That is also why sharded execution is
restricted to fixed **time** windows (tumbling/sliding): session, count,
and user-defined windows are properties of the *global* stream that key
partitioning destroys.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.analyzer import QueryPlan, analyze
from repro.core.config import EngineConfig
from repro.core.engine import AggregationEngine, EngineStats
from repro.core.errors import EngineError, OutOfOrderError
from repro.core.event import Event
from repro.core.query import Query
from repro.core.results import ResultSink
from repro.core.types import WindowMeasure, WindowType
from repro.network.codec import BinaryCodec
from repro.network.messages import (
    ShardBatchMessage,
    ShardResultMessage,
    ShardWindowRecord,
)
from repro.parallel.reduce import ShardReducer
from repro.parallel.sharding import shard_of

try:  # POSIX only; without it the pipes keep their default size
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

__all__ = ["ShardedEngine", "ShardStats"]

_FIXED_TIME = (WindowType.TUMBLING, WindowType.SLIDING)

#: seconds to wait for worker results at close before declaring a hang
_CLOSE_TIMEOUT_S = 120.0

#: frame-pipe buffer asked of the kernel (Linux's unprivileged ceiling,
#: ``/proc/sys/fs/pipe-max-size``): at the 64 KiB default one frame
#: fills the pipe and the parent sleeps in ``send_bytes`` whenever a
#: worker is descheduled; 1 MiB lets it run a dozen frames ahead
_PIPE_BYTES = 1 << 20


@dataclass(slots=True)
class ShardStats:
    """Parent-side counters for one sharded run (``shard.*`` metrics).

    ``busy_ns``/``events``/``merge_ops`` are per-shard (reported by each
    worker with its final frame); ``rows_shipped`` counts the rows the
    parent sent each shard (every row crosses one pipe once, so the sum
    is the ingested event count); ``peak_inflight`` is the high-water
    mark of frames sent but not yet answered per shard — the queue-depth
    signal; ``parent_ns``/``reduce_ns`` are the parent's own CPU time
    spent routing/encoding frames and reducing partials (the two serial
    stages of the pipeline, ``parallel.backend.parent_s`` and
    ``parallel.reduce.reduce_s`` in ``benchmarks/e2e``; rows fed through
    per-event ``process`` are routed untimed — two clock reads per event
    would cost more than the routing).
    """

    shards: int
    frames: int = 0
    events: list[int] = field(default_factory=list)
    busy_ns: list[int] = field(default_factory=list)
    merge_ops: list[int] = field(default_factory=list)
    peak_inflight: list[int] = field(default_factory=list)
    rows_shipped: list[int] = field(default_factory=list)
    reduce_merge_ops: int = 0
    windows_reduced: int = 0
    parent_ns: int = 0
    reduce_ns: int = 0

    def __post_init__(self) -> None:
        for name in ("events", "busy_ns", "merge_ops", "peak_inflight",
                     "rows_shipped"):
            if not getattr(self, name):
                setattr(self, name, [0] * self.shards)


def _stats_to_dict(stats: EngineStats) -> dict[str, int]:
    return {
        f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
    }


def _attach_window_sinks(
    engine: AggregationEngine, records: list[ShardWindowRecord]
) -> None:
    """Route every closed window's raw partials into ``records``.

    The hook fires after the engine merged the window's slices but
    before finalization and the empty-window skip, so empty windows are
    reported too — the reducer needs all N records to match a window.
    Partials are shallow-copied because the store may recycle a
    single-run sorted list after release.
    """
    for runtime in engine.groups:
        group_id = runtime.group.group_id

        def sink(window, merged, events, end, _runtime=runtime, _gid=group_id):
            ops = {
                kind: (list(part) if isinstance(part, list) else part)
                for kind, part in merged.items()
            }
            stream_time = _runtime.stream_time
            records.append(
                ShardWindowRecord(
                    group_id=_gid,
                    ctx=window.ctx,
                    start=window.start,
                    end=end,
                    event_count=events,
                    emitted_at=stream_time if stream_time is not None else end,
                    query_ids=tuple(q.query_id for q in window.queries),
                    ops=ops,
                )
            )

        runtime.window_sink = sink


def _worker_main(
    shard_id: int,
    queries: list[Query],
    config: EngineConfig,
    recv_conn,
    send_conn,
    parent_ends: list,
) -> None:
    """One worker process: decode → engine → ship partials."""
    # A forked child holds the parent's ends of every pipe made so far,
    # its own included; left open, no worker would ever read EOF when
    # the parent closes them, and shutdown would wait out its join.
    for conn in parent_ends:
        conn.close()
    codec = BinaryCodec()
    try:
        engine = AggregationEngine(queries, config=config)
        records: list[ShardWindowRecord] = []
        _attach_window_sinks(engine, records)
        key_table: list[str] = []  # this shard's session key table
        busy_ns = 0
        while True:
            data = recv_conn.recv_bytes()
            started = time.process_time_ns()
            msg = codec.decode(data)
            if msg.advance_before is not None:
                engine.advance(msg.advance_before)
            key_table += msg.key_table
            if msg.times:
                engine.process_columns(
                    msg.times,
                    [key_table[slot] for slot in msg.key_index],
                    msg.values,
                    dict(msg.markers),
                )
            if msg.advance_after is not None:
                engine.advance(msg.advance_after)
            if msg.close:
                engine.close(msg.final_time)
            busy_ns += time.process_time_ns() - started
            if records or msg.close:
                reply = ShardResultMessage(
                    shard=shard_id,
                    seq=msg.seq,
                    windows=list(records),
                    done=msg.close,
                    busy_ns=busy_ns,
                    stats=_stats_to_dict(engine.stats) if msg.close else {},
                )
                records.clear()
                send_conn.send_bytes(codec.encode(reply))
            if msg.close:
                break
    except Exception as exc:  # ship the failure; a silent death hangs close()
        try:
            send_conn.send_bytes(
                codec.encode(
                    ShardResultMessage(
                        shard=shard_id,
                        seq=-1,
                        done=True,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
            )
        except Exception:
            pass
    finally:
        try:
            send_conn.close()
            recv_conn.close()
        except Exception:
            pass


class ShardedEngine:
    """Drop-in engine running N key-sharded worker processes.

    Implements the same driving protocol as
    :class:`~repro.core.engine.AggregationEngine` (and the baselines'
    :class:`~repro.baselines.api.StreamProcessor`): ``process`` /
    ``process_batch`` / ``advance`` / ``close`` / ``sink`` / ``stats``.
    Results are identical to a single-process engine over the same
    stream — byte-identical for count/extrema/sorted operator kinds,
    within 1e-9 relative for float folds (sum/product/sum-of-squares),
    because the reduce re-associates the float fold across shards.

    Restrictions (all raise :class:`~repro.core.errors.EngineError`):
    only fixed time windows (tumbling/sliding over time), no runtime
    query add/remove, no trace recorder.
    """

    name = "Desis-sharded"

    def __init__(
        self,
        queries: Iterable[Query],
        *,
        config: EngineConfig | None = None,
        sink: ResultSink | None = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.queries = list(queries)
        for query in self.queries:
            spec = query.window
            if (
                spec.window_type not in _FIXED_TIME
                or spec.measure is not WindowMeasure.TIME
            ):
                raise EngineError(
                    "sharded execution supports only fixed time windows "
                    "(tumbling/sliding over time); query "
                    f"{query.query_id!r} uses a "
                    f"{spec.window_type.value} window — session, count, "
                    "and user-defined windows are global-stream "
                    "properties that key partitioning breaks"
                )
        #: the shared query plan (parent-side copy, used for group_count
        #: and the reducer's finalize table; workers re-analyze)
        self.plan: QueryPlan = analyze(self.queries, policy=self.config.policy)
        self.sink = sink if sink is not None else ResultSink()
        self.stats = EngineStats()
        self.shard_stats = ShardStats(shards=self.config.shards)
        self._reducer = ShardReducer(
            self.config.shards,
            {q.query_id: q.function for q in self.queries},
            self.sink,
            self.stats,
            emit_empty=self.config.emit_empty,
        )
        self._codec = BinaryCodec()
        #: markers only feed the deduplication signature in the workers'
        #: kernel, so they ride along only when a selection deduplicates
        self._ship_markers = any(
            selection.deduplicate
            for group in self.plan.groups
            for selection in group.selections
        )
        #: the frame under construction, one reusable message per shard
        self._frames = [
            ShardBatchMessage(seq=0) for _ in range(self.config.shards)
        ]
        #: session routing table: key -> its shard's column appenders,
        #: the key's slot in that shard's key table, and the shard's frame
        self._route: dict[str, tuple] = {}
        self._table_sizes: list[int] = [0] * self.config.shards
        self._buffered = 0
        self._stream_time: int | None = None
        self._bootstrapped = False
        self._seq = 0
        #: why no more input is accepted ("" while running)
        self._closed = ""
        self._procs: list = []
        self._send: list = []
        self._recv: list = []
        self._done: list[bool] = [False] * self.config.shards
        self._last_acked: list[int] = [-1] * self.config.shards

    @property
    def group_count(self) -> int:
        return len(self.plan.groups)

    # -- worker lifecycle -----------------------------------------------------

    def _ensure_workers(self) -> None:
        if self._procs:
            return
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        for shard in range(self.config.shards):
            result_recv, result_send = ctx.Pipe(duplex=False)
            frame_recv, frame_send = ctx.Pipe(duplex=False)
            try:
                fcntl.fcntl(frame_send.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            except (AttributeError, OSError):
                pass  # not Linux, or above the ceiling: keep the default
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    shard, self.queries, self.config, frame_recv, result_send,
                    [*self._send, *self._recv, frame_send, result_recv],
                ),
                daemon=True,
                name=f"repro-shard-{shard}",
            )
            proc.start()
            # The parent must drop its copies of the worker-side pipe
            # ends, or a dead worker's pipe never reads as closed.
            frame_recv.close()
            result_send.close()
            self._procs.append(proc)
            self._send.append(frame_send)
            self._recv.append(result_recv)

    def _shutdown_workers(self) -> None:
        for conn in self._send + self._recv:
            try:
                conn.close()
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
        self._procs = []
        self._send = []
        self._recv = []

    def _fail(self, reason: str) -> EngineError:
        """Stop for good: every later call raises the same typed error."""
        self._closed = reason
        self._shutdown_workers()
        return EngineError(reason)

    # -- ingestion ------------------------------------------------------------

    def _buffer(self, events: Sequence[Event]) -> None:
        """The parent's one pass over incoming rows: order check, key ->
        shard, append to the owning shard's columns."""
        route = self._route
        ship_markers = self._ship_markers
        prev = self._stream_time
        if prev is None:
            prev = events[0].time
        for event in events:
            time_ = event.time
            if time_ < prev:
                # the rows before this one stay accepted, like under process()
                self._stream_time = prev
                self._buffered = sum(len(f.times) for f in self._frames)
                raise OutOfOrderError(
                    f"event at t={time_} arrived after stream time {prev}"
                )
            prev = time_
            key = event.key
            dest = route.get(key)
            if dest is None:
                dest = route[key] = self._assign(key)
            add_time, add_value, add_slot, slot, frame = dest
            add_time(time_)
            add_value(event.value)
            add_slot(slot)
            if ship_markers and event.marker is not None:
                frame.markers.append((len(frame.times) - 1, event.marker))
        self._stream_time = prev
        self._buffered += len(events)

    def _assign(self, key: str) -> tuple:
        """Route a key seen for the first time this session."""
        shard = shard_of(key, self.config.shards)
        frame = self._frames[shard]
        frame.key_table.append(key)
        slot = self._table_sizes[shard]
        self._table_sizes[shard] = slot + 1
        return (
            frame.times.append,
            frame.values.append,
            frame.key_index.append,
            slot,
            frame,
        )

    def process(self, event: Event) -> None:
        """Buffer one in-order event; ships a frame at the batch size."""
        if self._closed:
            raise EngineError(self._closed)
        self._buffer((event,))
        if self._buffered >= self.config.shard_batch_size:
            self._flush()

    def process_batch(self, events: Sequence[Event]) -> None:
        """Buffer an ordered batch, shipping a frame per
        ``shard_batch_size`` rows; the tail waits for the next call."""
        if self._closed:
            raise EngineError(self._closed)
        if not isinstance(events, (list, tuple)):
            events = list(events)
        size = self.config.shard_batch_size
        offset = 0
        while offset < len(events):
            stop = offset + size - self._buffered
            started = time.process_time_ns()
            self._buffer(events[offset:stop])
            self.shard_stats.parent_ns += time.process_time_ns() - started
            offset = stop
            if self._buffered >= size:
                self._flush()

    def process_many(self, events: Iterable[Event]) -> None:
        self.process_batch(
            events if isinstance(events, (list, tuple)) else list(events)
        )

    def advance(self, time_: int) -> None:
        """Apply a watermark: flush buffered events, then drain to it."""
        if self._closed:
            raise EngineError(self._closed)
        stream_time = self._stream_time
        if stream_time is not None and time_ < stream_time:
            raise OutOfOrderError(
                f"watermark at t={time_} arrived after stream time "
                f"{stream_time}"
            )
        self._stream_time = time_
        self._flush(advance_to=time_)

    def close(self, at_time: int | None = None) -> ResultSink:
        """Flush everything, reduce every window, and join the workers."""
        if self._closed:
            raise EngineError(self._closed)
        if at_time is not None:
            stream_time = self._stream_time
            if stream_time is not None and at_time < stream_time:
                raise OutOfOrderError(
                    f"close at t={at_time} precedes stream time {stream_time}"
                )
        self._closed = "engine already closed"
        final = at_time
        if final is None:
            final = self._stream_time if self._stream_time is not None else 0
        try:
            self._flush(close=True, final_time=final)
            self._drain_until_done()
            self._reducer.finish()
        finally:
            self._shutdown_workers()
        self.shard_stats.reduce_merge_ops = self._reducer.merge_ops
        self.shard_stats.windows_reduced = self._reducer.windows_reduced
        return self.sink

    # -- frames ---------------------------------------------------------------

    def _flush(
        self,
        *,
        advance_to: int | None = None,
        close: bool = False,
        final_time: int | None = None,
    ) -> None:
        """Ship the buffered rows: one message per shard, rows or not."""
        rows = self._buffered
        if not rows and advance_to is None and not close:
            return
        self._ensure_workers()
        started = time.process_time_ns()
        frames = self._frames
        advance_before = None
        if not self._bootstrapped:
            if rows:
                advance_before = min(f.times[0] for f in frames if f.times)
            elif advance_to is not None:
                advance_before = advance_to
            elif close:
                advance_before = final_time
            self._bootstrapped = advance_before is not None
        advance_after = advance_to
        if advance_after is None and rows and not close:
            advance_after = self._stream_time  # the last buffered row's time
        stats = self.shard_stats
        for shard, frame in enumerate(frames):
            frame.seq = self._seq
            frame.advance_before = advance_before
            frame.advance_after = advance_after
            frame.close = close
            frame.final_time = final_time
            data = self._codec.encode(frame)
            stats.rows_shipped[shard] += len(frame.times)
            for column in (frame.times, frame.values, frame.key_index,
                           frame.key_table, frame.markers):
                column.clear()  # in place: the route holds their appenders
            try:
                self._send[shard].send_bytes(data)
            except OSError as exc:  # BrokenPipeError: nobody reads any more
                raise self._fail(
                    f"shard {shard} worker died (frame {self._seq} not "
                    f"delivered: {exc})"
                ) from exc
            inflight = self._seq - self._last_acked[shard]
            if inflight > stats.peak_inflight[shard]:
                stats.peak_inflight[shard] = inflight
        self._buffered = 0
        self._seq += 1
        stats.frames += 1
        stats.parent_ns += time.process_time_ns() - started
        self._poll_results()

    # -- results --------------------------------------------------------------

    def _poll_results(self, timeout: float = 0) -> bool:
        """Drain the worker replies that are ready (keeps pipes shallow);
        wait up to ``timeout`` seconds per shard for a first one."""
        progressed = False
        for shard, conn in enumerate(self._recv):
            wait = timeout
            while not self._done[shard] and conn.poll(wait):
                try:
                    data = conn.recv_bytes()
                except (EOFError, OSError) as exc:
                    raise self._fail(
                        f"shard {shard} worker died (result pipe closed "
                        f"after frame {self._last_acked[shard]})"
                    ) from exc
                self._handle_result(shard, data)
                progressed = True
                wait = 0
        return progressed

    def _handle_result(self, shard: int, data: bytes) -> None:
        message = self._codec.decode(data)
        if not isinstance(message, ShardResultMessage):
            raise self._fail(
                f"unexpected frame from shard {shard}: "
                f"{type(message).__name__}"
            )
        if message.error:
            raise self._fail(f"shard {shard} worker failed: {message.error}")
        if message.seq > self._last_acked[shard]:
            self._last_acked[shard] = message.seq
        started = time.process_time_ns()
        if message.windows:
            self._reducer.ingest(shard, message.windows)
        self.shard_stats.reduce_ns += time.process_time_ns() - started
        if message.done:
            self._done[shard] = True
            self.shard_stats.busy_ns[shard] = message.busy_ns
            if message.stats:
                worker = EngineStats(**message.stats)
                self.shard_stats.events[shard] = worker.events
                self.shard_stats.merge_ops[shard] = worker.merge_ops
                self.stats.merge(worker)

    def _drain_until_done(self) -> None:
        deadline = time.monotonic() + _CLOSE_TIMEOUT_S
        while not all(self._done):
            if self._poll_results(0.05):
                continue
            if time.monotonic() > deadline:
                raise self._fail("timed out waiting for shard workers to close")
