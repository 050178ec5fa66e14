"""Declarative conformance scenarios and their seeded generator.

A :class:`Scenario` is a fully self-describing, JSON-serializable recipe
for one differential-fuzzing case: the stream shape (nodes, events, keys,
inter-arrival steps, session gaps, user-defined markers), the query mix
over every operator kind and window type, the disorder bound, the cluster
topology, the fault plan, and the full knob cross-product the engines
expose (batch vs per-event ingestion, checkpoint cadence, punctuation
mode).

Determinism is the whole point: ``Scenario.build_streams()`` derives every
event from the scenario seed alone, so a scenario file replays bit-for-bit
anywhere (the committed corpus under ``tests/conformance/corpus/`` and the
shrinker's repro scripts rely on this).  A scenario that has been shrunk
carries its surviving events *explicitly* (``explicit_streams``) so event
deletion is expressible.

Timestamps are globally unique by construction — node ``i`` starts at
``i`` and advances by multiples of ``n_nodes`` — because with colliding
cross-node timestamps the merge order at a root is physically arbitrary
and count-window contents could not be compared across deployments (see
``tests/cluster/test_desis_parity.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from typing import Any

from repro.core.event import Event
from repro.core.predicates import Selection
from repro.core.query import Query, WindowSpec
from repro.core.types import AggFunction, WindowMeasure, WindowType
from repro.network.simnet import CrashWindow, FaultPlan
from repro.network.topology import Topology, chain, star, three_tier

__all__ = [
    "QuerySpec",
    "CrashSpec",
    "FaultSpec",
    "OverloadSpec",
    "Scenario",
    "ScenarioGenerator",
    "NEVER",
]

#: a node_timeout that never fires — conformance scenarios isolate the
#: fault/recovery paths from heartbeat eviction (same as the chaos suite)
NEVER = 10**9

_END_MARKER = "end"


# -- query specs -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class QuerySpec:
    """One query of a scenario, in plain-JSON-able form."""

    query_id: str
    window_type: str  # tumbling | sliding | session | user_defined
    function: str  # AggFunction value
    measure: str = "time"  # time | count
    length: int | None = None
    slide: int | None = None
    gap: int | None = None
    start_marker: str | None = None
    end_marker: str | None = None
    quantile: float | None = None
    key: str | None = None  # selection: key equality
    lo: float | None = None  # selection: value range
    hi: float | None = None

    def build(self) -> Query:
        kind = WindowType(self.window_type)
        measure = WindowMeasure(self.measure)
        if kind is WindowType.TUMBLING:
            window = WindowSpec.tumbling(self.length, measure=measure)
        elif kind is WindowType.SLIDING:
            window = WindowSpec.sliding(self.length, self.slide, measure=measure)
        elif kind is WindowType.SESSION:
            window = WindowSpec.session(self.gap)
        else:
            window = WindowSpec.user_defined(
                self.end_marker, start_marker=self.start_marker
            )
        selection = Selection(key=self.key, lo=self.lo, hi=self.hi)
        return Query.of(
            self.query_id,
            window,
            AggFunction(self.function),
            quantile=self.quantile,
            selection=selection,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "query_id": self.query_id,
            "window_type": self.window_type,
            "function": self.function,
            "measure": self.measure,
        }
        for name in ("length", "slide", "gap", "start_marker", "end_marker",
                     "quantile", "key", "lo", "hi"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QuerySpec":
        return cls(**data)


# -- fault specs -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CrashSpec:
    """A recoverable, state-losing crash window (DESIGN.md §8)."""

    node: str
    start: int
    end: int
    lose_state: bool = True

    def build(self) -> CrashWindow:
        return CrashWindow(self.node, self.start, self.end,
                           lose_state=self.lose_state)

    def to_dict(self) -> dict[str, Any]:
        return {"node": self.node, "start": self.start, "end": self.end,
                "lose_state": self.lose_state}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CrashSpec":
        return cls(**data)


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """A seeded, *recoverable* fault plan: results must not change."""

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_delay_ms: float = 20.0
    jitter_ms: float = 0.0
    crashes: tuple[CrashSpec, ...] = ()

    def build(self) -> FaultPlan:
        return FaultPlan(
            seed=self.seed,
            drop_rate=self.drop_rate,
            duplicate_rate=self.duplicate_rate,
            reorder_rate=self.reorder_rate,
            reorder_delay_ms=self.reorder_delay_ms,
            jitter_ms=self.jitter_ms,
            crashes=tuple(c.build() for c in self.crashes),
        )

    @property
    def link_faults_only(self) -> bool:
        return not self.crashes

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"seed": self.seed}
        for name in ("drop_rate", "duplicate_rate", "reorder_rate",
                     "jitter_ms"):
            value = getattr(self, name)
            if value:
                out[name] = value
        if self.reorder_delay_ms != 20.0:
            out["reorder_delay_ms"] = self.reorder_delay_ms
        if self.crashes:
            out["crashes"] = [c.to_dict() for c in self.crashes]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSpec":
        crashes = tuple(
            CrashSpec.from_dict(c) for c in data.get("crashes", ())
        )
        kwargs = {k: v for k, v in data.items() if k != "crashes"}
        return cls(crashes=crashes, **kwargs)


@dataclass(frozen=True, slots=True)
class OverloadSpec:
    """Overload-control caps for the Desis deployment (DESIGN.md §12).

    Conformance caps are *generous* on purpose: with the scenario's fast
    links the credit windows rarely exhaust, so most runs shed nothing —
    and a run that sheds nothing must be byte-identical to the unbounded
    faulty run (the metamorphic invariant ``evaluate_scenario`` checks).
    A run that does shed is audited instead: every degraded window's
    ``completeness`` must equal what its own ``shed_slices`` imply.
    """

    channel_credit_bytes: int | None = None
    channel_credit_frames: int | None = None
    staging_limit: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            name: value
            for name in ("channel_credit_bytes", "channel_credit_frames",
                         "staging_limit")
            if (value := getattr(self, name)) is not None
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "OverloadSpec":
        return cls(**data)


# -- the scenario ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Scenario:
    """One declarative conformance case (see module docstring)."""

    name: str
    seed: int
    # stream shape
    n_nodes: int = 2
    events_per_node: int = 100
    n_keys: int = 2
    dt_units: tuple[int, ...] = (1, 2, 5)  # × n_nodes ms between events
    gap_every: int | None = None  # long pause every N events (sessions)
    gap_ms: int = 2_000
    marker_every: int | None = None  # user-defined end marker cadence
    value_lo: float = 0.0
    value_hi: float = 100.0
    # query mix
    queries: tuple[QuerySpec, ...] = ()
    # disorder
    max_lateness: int = 0
    # topology
    topology: str = "three_tier"  # star | three_tier | chain
    n_intermediates: int = 1  # three_tier width / chain hops
    # knob cross-product
    tick_interval: int = 500
    batch_ms: int | None = None
    punctuation_mode: str = "heap"
    #: worker count for the parallel-sharded executor (DESIGN.md §13);
    #: only meaningful when the query mix is fixed-size time windows
    shards: int = 1
    checkpoint_interval: int | None = None
    fault: FaultSpec | None = None
    # overload-control caps for an extra bounded Desis run (None = no run)
    overload: OverloadSpec | None = None
    # set by the shrinker: surviving events, replacing seeded generation
    explicit_streams: dict[str, list[list]] | None = field(default=None)

    # -- construction --------------------------------------------------------

    def build_queries(self) -> list[Query]:
        return [spec.build() for spec in self.queries]

    def build_topology(self) -> Topology:
        if self.topology == "star":
            return star(self.n_nodes)
        if self.topology == "chain":
            return chain(self.n_nodes, self.n_intermediates)
        return three_tier(self.n_nodes, self.n_intermediates)

    def build_streams(self) -> dict[str, list[Event]]:
        """Per-node in-order streams, derived from the seed (or explicit)."""
        if self.explicit_streams is not None:
            return {
                node: [Event(t, k, v, m) for t, k, v, m in rows]
                for node, rows in sorted(self.explicit_streams.items())
            }
        keys = tuple(f"k{i}" for i in range(self.n_keys))
        streams: dict[str, list[Event]] = {}
        n = self.n_nodes
        gap_dt = ((self.gap_ms // n) + 1) * n  # stays on node residue
        for i in range(n):
            rng = random.Random(self.seed * 7_919 + i)
            t = i
            events = []
            for j in range(self.events_per_node):
                if self.gap_every is not None and j and j % self.gap_every == 0:
                    t += gap_dt
                else:
                    t += rng.choice(self.dt_units) * n
                marker = (
                    _END_MARKER
                    if self.marker_every is not None
                    and j % self.marker_every == self.marker_every - 1
                    else None
                )
                events.append(
                    Event(t, rng.choice(keys),
                          rng.uniform(self.value_lo, self.value_hi), marker)
                )
            streams[f"local-{i}"] = events
        return streams

    def disordered_streams(self) -> dict[str, list[Event]]:
        """The same streams in a bounded-disorder arrival order.

        Each event's arrival rank is ``time + U(0, max_lateness)``, which
        guarantees no event arrives after the stream's high-water mark has
        advanced more than ``max_lateness`` past it — i.e. a
        :class:`~repro.core.ordering.ReorderBuffer` with the scenario's
        bound restores exact timestamp order losslessly.
        """
        streams = self.build_streams()
        if self.max_lateness <= 0:
            return streams
        out = {}
        for node, events in streams.items():
            rng = random.Random((self.seed, "disorder", node).__repr__())
            ranked = [
                (e.time + rng.uniform(0.0, float(self.max_lateness)), i, e)
                for i, e in enumerate(events)
            ]
            ranked.sort()
            out[node] = [e for _, _, e in ranked]
        return out

    def build_fault_plan(self) -> FaultPlan | None:
        return self.fault.build() if self.fault is not None else None

    # -- derived properties --------------------------------------------------

    @property
    def horizon(self) -> int:
        """Last event timestamp over all nodes."""
        streams = self.build_streams()
        return max(
            (events[-1].time for events in streams.values() if events),
            default=0,
        )

    @property
    def total_events(self) -> int:
        return sum(len(v) for v in self.build_streams().values())

    @property
    def has_user_defined(self) -> bool:
        return any(
            q.window_type == WindowType.USER_DEFINED.value for q in self.queries
        )

    @property
    def fixed_time_only(self) -> bool:
        """Whether every query is a fixed-size time window (Disco's domain)."""
        return all(
            q.window_type in (WindowType.TUMBLING.value, WindowType.SLIDING.value)
            and q.measure == WindowMeasure.TIME.value
            for q in self.queries
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "n_nodes": self.n_nodes,
            "events_per_node": self.events_per_node,
            "n_keys": self.n_keys,
            "dt_units": list(self.dt_units),
            "value_lo": self.value_lo,
            "value_hi": self.value_hi,
            "queries": [q.to_dict() for q in self.queries],
            "max_lateness": self.max_lateness,
            "topology": self.topology,
            "n_intermediates": self.n_intermediates,
            "tick_interval": self.tick_interval,
            "punctuation_mode": self.punctuation_mode,
        }
        if self.gap_every is not None:
            out["gap_every"] = self.gap_every
            out["gap_ms"] = self.gap_ms
        if self.marker_every is not None:
            out["marker_every"] = self.marker_every
        if self.batch_ms is not None:
            out["batch_ms"] = self.batch_ms
        if self.shards != 1:
            # emitted only when set, so the committed corpus digests
            # (written before the knob existed) stay stable
            out["shards"] = self.shards
        if self.checkpoint_interval is not None:
            out["checkpoint_interval"] = self.checkpoint_interval
        if self.fault is not None:
            out["fault"] = self.fault.to_dict()
        if self.overload is not None:
            out["overload"] = self.overload.to_dict()
        if self.explicit_streams is not None:
            out["explicit_streams"] = {
                node: [list(row) for row in rows]
                for node, rows in sorted(self.explicit_streams.items())
            }
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        data = dict(data)
        queries = tuple(QuerySpec.from_dict(q) for q in data.pop("queries"))
        fault = data.pop("fault", None)
        if fault is not None:
            fault = FaultSpec.from_dict(fault)
        overload = data.pop("overload", None)
        if overload is not None:
            overload = OverloadSpec.from_dict(overload)
        dt_units = tuple(data.pop("dt_units", (1, 2, 5)))
        explicit = data.pop("explicit_streams", None)
        if explicit is not None:
            explicit = {
                node: [
                    [row[0], row[1], row[2], row[3]] for row in rows
                ]
                for node, rows in explicit.items()
            }
        return cls(queries=queries, fault=fault, overload=overload,
                   dt_units=dt_units, explicit_streams=explicit, **data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    @property
    def digest(self) -> str:
        """Stable content hash identifying this exact scenario."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def materialized(self) -> "Scenario":
        """A copy carrying its streams explicitly (shrinker entry form)."""
        if self.explicit_streams is not None:
            return self
        explicit = {
            node: [[e.time, e.key, e.value, e.marker] for e in events]
            for node, events in self.build_streams().items()
        }
        return replace(self, explicit_streams=explicit)


# -- the generator -----------------------------------------------------------

_FUNCTIONS = [fn for fn in AggFunction]
_PRODUCT_FAMILY = {AggFunction.PRODUCT.value, AggFunction.GEOMETRIC_MEAN.value}


class ScenarioGenerator:
    """Seeded random scenarios over the full knob cross-product.

    ``generate(i)`` is a pure function of ``(seed, i)``: two generators
    with the same seed produce identical scenarios in the same order.
    """

    def __init__(self, seed: int = 0, *, max_events_per_node: int = 160) -> None:
        self.seed = seed
        self.max_events_per_node = max(20, max_events_per_node)

    def generate(self, index: int) -> Scenario:
        rng = random.Random((self.seed, "scenario", index).__repr__())
        n_nodes = rng.randint(2, 4)
        events_per_node = rng.randint(60, self.max_events_per_node)
        n_keys = rng.randint(1, 3)
        dt_units = tuple(sorted(rng.sample((1, 2, 3, 5, 8), rng.randint(2, 3))))

        queries, needs_gap, needs_marker = self._queries(rng, n_keys, n_nodes,
                                                         dt_units)
        product_family = any(q.function in _PRODUCT_FAMILY for q in queries)

        topology = rng.choice(("star", "three_tier", "three_tier", "chain"))
        n_intermediates = rng.randint(1, 2) if topology != "star" else 1
        checkpoint_interval = rng.choice((None, None, 2_000))
        fault = self._fault(rng, topology, checkpoint_interval,
                            n_nodes, events_per_node, dt_units)
        if fault is not None and fault.crashes and checkpoint_interval is None:
            checkpoint_interval = 2_000
        # Overload caps ride along on ~1/3 of faulty scenarios: the fast
        # conformance links rarely exhaust these generous credit windows,
        # so the bounded run usually sheds nothing and must then be
        # byte-identical to the unbounded faulty run (see OverloadSpec).
        overload = None
        if fault is not None and rng.random() < 0.35:
            overload = OverloadSpec(
                channel_credit_bytes=rng.choice((4_096, 16_384)),
                channel_credit_frames=rng.choice((16, 64)),
                staging_limit=rng.choice((64, 256)),
            )

        scenario = Scenario(
            name=f"gen-{self.seed}-{index}",
            seed=self.seed * 1_000_003 + index,
            n_nodes=n_nodes,
            events_per_node=events_per_node,
            n_keys=n_keys,
            dt_units=dt_units,
            gap_every=rng.choice((23, 41)) if needs_gap else None,
            gap_ms=rng.choice((1_500, 2_500)) if needs_gap else 2_000,
            marker_every=rng.choice((17, 29)) if needs_marker else None,
            # product folds overflow on wide windows; keep their values ~1
            value_lo=0.5 if product_family else 0.0,
            value_hi=1.5 if product_family else 100.0,
            queries=queries,
            max_lateness=rng.choice((0, 0, 0, 40, 150)),
            topology=topology,
            n_intermediates=n_intermediates,
            tick_interval=500,
            batch_ms=rng.choice((None, None, 500)),
            punctuation_mode=rng.choice(("heap", "scan")),
            checkpoint_interval=checkpoint_interval,
            fault=fault,
            overload=overload,
        )
        # drawn LAST so every earlier draw — and therefore every scenario
        # generated before the shards knob existed — is unchanged
        if scenario.fixed_time_only and scenario.queries:
            shards = rng.choice((1, 1, 2, 4))
            if shards != 1:
                scenario = replace(scenario, shards=shards)
        return scenario

    # -- pieces --------------------------------------------------------------

    def _queries(self, rng: random.Random, n_keys: int, n_nodes: int,
                 dt_units: tuple[int, ...]):
        count = rng.randint(1, 4)
        mean_dt = n_nodes * sum(dt_units) / len(dt_units)
        queries = []
        needs_gap = needs_marker = False
        for qi in range(count):
            window_type = rng.choice(
                (WindowType.TUMBLING, WindowType.TUMBLING, WindowType.SLIDING,
                 WindowType.SLIDING, WindowType.SESSION,
                 WindowType.USER_DEFINED)
            )
            fn = rng.choice(_FUNCTIONS)
            quantile = (
                rng.choice((0.1, 0.25, 0.75, 0.9))
                if fn is AggFunction.QUANTILE else None
            )
            measure = "time"
            length = slide = gap = None
            end_marker = None
            if window_type in (WindowType.TUMBLING, WindowType.SLIDING):
                if rng.random() < 0.25:
                    measure = "count"
                    length = rng.randint(5, 40)
                    slide = (
                        rng.randint(1, length)
                        if window_type is WindowType.SLIDING else None
                    )
                else:
                    length = rng.randint(4, 40) * 50
                    slide = (
                        max(50, (length // rng.choice((2, 4, 8))) // 50 * 50)
                        if window_type is WindowType.SLIDING else None
                    )
            elif window_type is WindowType.SESSION:
                # a gap a few inter-arrivals wide, so sessions actually split
                gap = int(mean_dt * rng.randint(3, 8))
                needs_gap = True
            else:
                end_marker = _END_MARKER
                needs_marker = True
            key = (
                f"k{rng.randrange(n_keys)}" if rng.random() < 0.3 else None
            )
            lo = hi = None
            if rng.random() < 0.2:
                lo, hi = 10.0, 80.0
            queries.append(
                QuerySpec(
                    query_id=f"q{qi}",
                    window_type=window_type.value,
                    function=fn.value,
                    measure=measure,
                    length=length,
                    slide=slide,
                    gap=gap,
                    end_marker=end_marker,
                    quantile=quantile,
                    key=key,
                    lo=lo,
                    hi=hi,
                )
            )
        return tuple(queries), needs_gap, needs_marker

    def _fault(self, rng: random.Random, topology: str,
               checkpoint_interval: int | None, n_nodes: int,
               events_per_node: int, dt_units: tuple[int, ...]) -> FaultSpec | None:
        roll = rng.random()
        if roll < 0.45:
            return None
        link = FaultSpec(
            seed=rng.randrange(1 << 16),
            drop_rate=round(rng.uniform(0.0, 0.12), 3),
            duplicate_rate=round(rng.uniform(0.0, 0.08), 3),
            reorder_rate=round(rng.uniform(0.0, 0.15), 3),
            jitter_ms=round(rng.uniform(0.0, 4.0), 1),
        )
        # Recoverable, state-losing crashes need a checkpointed three_tier
        # deployment and a window that closes well before end-of-stream.
        if roll < 0.8 or topology != "three_tier":
            return link
        span = events_per_node * n_nodes * (sum(dt_units) // len(dt_units))
        start = int(span * 0.4)
        end = min(int(span * 0.6), start + 4_000)
        if end <= start or checkpoint_interval is None and rng.random() < 0.0:
            return link
        node = rng.choice(("mid-0", "root"))
        return replace(
            link, crashes=(CrashSpec(node, start, end, lose_state=True),)
        )
