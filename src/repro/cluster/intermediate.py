"""Intermediate nodes: merge partial results by slice and forward (Sec 5.1).

An intermediate node maintains one :class:`~repro.cluster.merger.GroupMerger`
per query-group.  When all of its children have covered a boundary, the
released records — merged across children for slice-aligned groups,
passed through for session groups — are re-sequenced and forwarded to the
parent in a single batch, so one intermediate serves many children with
one upward message per tick (the fan-in the scalability experiment of
Fig 7c exercises).
"""

from __future__ import annotations

from repro.core.analyzer import QueryGroup, QueryPlan
from repro.core.types import NodeRole
from repro.cluster.checkpoint import (
    restore_retained,
    restore_shed,
    retained_chunks,
    shed_chunks,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.roles import Merger, Shipper
from repro.network.messages import (
    CheckpointMessage,
    ControlMessage,
    PartialBatchMessage,
    SliceRecord,
    SnapshotChunk,
)
from repro.network.simnet import SimNetwork

__all__ = ["IntermediateNode"]


class IntermediateNode(Shipper, Merger):
    """A Desis intermediate node: merges a set of children and ships the
    merged records to one parent."""

    ship_kind = "merge.release"

    def __init__(self, node_id: str, parent: str, children: list[str],
                 plan: QueryPlan, config: ClusterConfig, recorder=None) -> None:
        Shipper.__init__(self, node_id, NodeRole.INTERMEDIATE, parent, config, recorder)
        Merger.__init__(
            self, node_id, NodeRole.INTERMEDIATE, children, plan, config, recorder
        )

    def _reset_groups(self) -> None:
        self._reset_upward()
        #: per-group coverage boundary below which records are not forwarded
        #: (set by a parent resync: those windows closed degraded upstream)
        self.forward_floor: list[int] = []
        #: per-group trim floor last broadcast by the parent — our own
        #: trim to children is capped by it, so grandchildren never drop
        #: batches an ancestor recovery could still re-request
        self._trim_floor: list[int] = []
        super()._reset_groups()

    def _open_group(self, group: QueryGroup, origin: int) -> None:
        super()._open_group(group, origin)
        self._open_upward()
        self.forward_floor.append(origin)
        self._trim_floor.append(origin)

    def on_tick(self, now: int, net: SimNetwork) -> None:
        if not self.alive:
            return
        self._heartbeat(now, net)
        if self.liveness is not None:
            self._sweep_children(now, net)
        if self.config.overload_control and not self._stalled(net):
            # The upward channel regained credit since the last batch:
            # drain coverage that was staged behind the stall.
            for group_id, merger in enumerate(self.mergers):
                advanced = merger.advance()
                if advanced is not None:
                    self._release(group_id, *advanced, now, net)
        self._maybe_checkpoint(now, net)

    def on_message(self, message, now: int, net: SimNetwork) -> None:
        if isinstance(message, ControlMessage):
            if not self.alive:
                return
            if message.kind == "heartbeat":
                if self.liveness is not None:
                    self._beat(message.sender, now, net)
                net.send(self.node_id, self.parent, message)
            elif message.kind in ("queries", "topology"):
                for child in self.children:
                    net.send(self.node_id, child, message)
        elif isinstance(message, PartialBatchMessage):
            self._take(message, now, net)
        else:
            Shipper.on_message(self, message, now, net)

    def on_finish(self, now: int, net: SimNetwork) -> None:
        """End of stream overrides backpressure: release anything still
        staged behind a stalled channel so every closable window closes."""
        if not self.alive or not self.config.overload_control:
            return
        for group_id, merger in enumerate(self.mergers):
            advanced = merger.advance()
            if advanced is not None:
                self._release(group_id, *advanced, now, net)
            elif self.shed_pending[group_id]:
                # No coverage left to release, but shed metadata must still
                # reach the root: ship a records-free coverage step.
                self._release(group_id, merger.forwarded_to, [], now, net)

    # -- the role halves (repro.cluster.roles) ----------------------------------------

    def _release(self, group_id: int, covered: int, records: list[SliceRecord],
                 now: int, net: SimNetwork) -> None:
        if not self.alive:
            return
        floor = self.forward_floor[group_id]
        if floor > self.config.origin:
            records = [record for record in records if record.end > floor]
        self._ship(group_id, covered, records, now, net)
        self._maybe_checkpoint(now, net)

    def _apply_trim(self, safe_to: dict[int, int]) -> None:
        # Remember the parent's floors: they cap our own trim to children.
        for group_id, floor in safe_to.items():
            if group_id < len(self._trim_floor) and floor > self._trim_floor[group_id]:
                self._trim_floor[group_id] = floor
        super()._apply_trim(safe_to)

    def _drop_covered(self, group_id: int, floor: int, *,
                      rejoin: bool) -> list[SliceRecord]:
        # Filtered at forward time; an adopter's floor never lowers ours.
        self.forward_floor[group_id] = (
            floor if rejoin else max(self.forward_floor[group_id], floor)
        )
        return []

    def _snapshot(self, header: CheckpointMessage) -> list[SnapshotChunk]:
        for group_id, merger in enumerate(self.mergers):
            header.groups[group_id] = (
                self.ship_seq[group_id],
                self.forward_floor[group_id],
                merger.forwarded_to,
            )
            header.safe_to[group_id] = min(
                merger.forwarded_to, self._trim_floor[group_id]
            )
        chunks = retained_chunks(self.node_id, self._ckpt_id, self._retained)
        chunks.extend(shed_chunks(self.node_id, self._ckpt_id, self.shed_pending))
        return chunks

    def _reset_for_restart(self, now: int) -> dict:
        # No upward resync is needed: the send channel to the parent lives
        # in the transport, and the re-forwarded batches replay the original
        # sequence numbers, so the parent prefix-drops what it already has.
        self._reset_groups()
        self._retained = []
        self._last_heartbeat = now
        return {}

    def _restore(self, header: CheckpointMessage, chunks: list[SnapshotChunk]) -> None:
        for group_id, (ship, floor, _) in header.groups.items():
            if group_id < len(self.ship_seq):
                self.ship_seq[group_id] = ship
                self.forward_floor[group_id] = floor
        self._retained = restore_retained(self.node_id, chunks)
        self.shed_pending = restore_shed(len(self.plan.groups), chunks)
