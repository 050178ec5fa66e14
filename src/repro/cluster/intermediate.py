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
    ResyncMessage,
    SnapshotChunk,
)
from repro.network.simnet import SimNetwork

__all__ = ["IntermediateNode"]


class IntermediateNode(Shipper, Merger):
    """A Desis intermediate node: merges a set of children and ships the
    merged records to one parent."""

    def __init__(self, node_id: str, parent: str, children: list[str],
                 plan: QueryPlan, config: ClusterConfig, recorder=None) -> None:
        Shipper.__init__(self, node_id, NodeRole.INTERMEDIATE, parent, config, recorder)
        Merger.__init__(
            self, node_id, NodeRole.INTERMEDIATE, children, plan, config, recorder
        )

    def _reset_groups(self) -> None:
        self.ship_seq: list[int] = []
        #: per-group coverage boundary below which records are not forwarded
        #: (set by a parent resync: those windows closed degraded upstream)
        self.forward_floor: list[int] = []
        #: per-group trim floor last broadcast by the parent — our own
        #: trim to children is capped by it, so grandchildren never drop
        #: batches an ancestor recovery could still re-request
        self._trim_floor: list[int] = []
        #: per-group shed coverage awaiting the next upward forward
        #: (DESIGN.md §12); stays empty at default config
        self._shed_pending: list[list[tuple[str, int, int]]] = []
        super()._reset_groups()

    def _open_group(self, group: QueryGroup, origin: int) -> None:
        super()._open_group(group, origin)
        self.ship_seq.append(0)
        self.forward_floor.append(origin)
        self._trim_floor.append(origin)
        self._shed_pending.append([])

    def on_tick(self, now: int, net: SimNetwork) -> None:
        if not self.alive:
            return
        self._heartbeat(now, net)
        if self.liveness is not None:
            self._sweep_children(now, net)
        if self.config.overload_control and not net.channel_stalled(
            self.node_id, self.parent
        ):
            # The upward channel regained credit since the last batch:
            # drain coverage that was staged behind the stall.
            for group_id, merger in enumerate(self.mergers):
                advanced = merger.advance()
                if advanced is not None:
                    self._forward(group_id, advanced, now, net)
        if self.store is not None:
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
            return
        if isinstance(message, CheckpointMessage):
            # Parent's retention-trim broadcast: remember its floors (they
            # cap our own trim to children) and drop retained batches it
            # can never ask for again.
            for group_id, floor in message.safe_to.items():
                if group_id < len(self._trim_floor):
                    if floor > self._trim_floor[group_id]:
                        self._trim_floor[group_id] = floor
            self._apply_trim(message.safe_to)
            return
        if isinstance(message, ResyncMessage):
            if message.new_parent:
                self._reparent(message, net)
            elif message.recover:
                self._fast_forward(message, net)
            else:
                # Our parent soft-evicted and re-admitted us: restart the
                # upward slice sequences and never re-ship records for
                # coverage it already assembled without us.
                for group_id, (next_seq, covered) in message.entries.items():
                    if group_id < len(self.ship_seq):
                        self.ship_seq[group_id] = next_seq
                        self.forward_floor[group_id] = covered
                net.reset_channel(self.node_id, self.parent, message.epoch)
            return
        if not isinstance(message, PartialBatchMessage):
            return
        merger = self.mergers[message.group_id]
        merger.on_batch(message)
        if message.shed:
            # Coverage shed further down rides up with our next forward.
            self._note_shed(message.group_id, message.shed)
        if self.config.overload_control:
            self._shed_staging_overflow(message.group_id, net)
            self._note_staging()
            if net.channel_stalled(self.node_id, self.parent):
                # Backpressure: leave the released coverage staged in the
                # merger's pending buffers (just bounded) instead of
                # growing the stalled channel's unacked backlog.
                return
        advanced = merger.advance()
        if advanced is None or not self.alive:
            return
        self._forward(message.group_id, advanced, now, net)

    def _forward(
        self,
        group_id: int,
        advanced: tuple[int, list],
        now: int,
        net: SimNetwork,
    ) -> None:
        covered, records = advanced
        floor = self.forward_floor[group_id]
        if floor > self.config.origin:
            records = [record for record in records if record.end > floor]
        shed = self._shed_pending[group_id]
        out = PartialBatchMessage(
            sender=self.node_id,
            group_id=group_id,
            first_slice_seq=self.ship_seq[group_id],
            covered_to=covered,
            records=records,
            shed=shed,
        )
        if shed:
            self._shed_pending[group_id] = []
        if self.recorder.enabled and records:
            self.recorder.record(
                "merge.release",
                now,
                node=self.node_id,
                group=group_id,
                first_seq=self.ship_seq[group_id],
                records=len(records),
                start=records[0].start,
                end=records[-1].end,
                covered_to=covered,
            )
        self.ship_seq[group_id] += len(records)
        net.send(self.node_id, self.parent, out)
        if self._retain:
            self._retained.append(out)
            self._cap_retention()
        if self.store is not None:
            self._slices_since_ckpt += len(records)
            self._maybe_checkpoint(now, net)

    def on_finish(self, now: int, net: SimNetwork) -> None:
        """End of stream overrides backpressure: release anything still
        staged behind a stalled channel so every closable window closes."""
        if not self.alive or not self.config.overload_control:
            return
        for group_id, merger in enumerate(self.mergers):
            advanced = merger.advance()
            if advanced is not None:
                self._forward(group_id, advanced, now, net)
            elif self._shed_pending[group_id]:
                # No coverage left to release, but shed metadata must still
                # reach the root: ship a records-free coverage step.
                self._forward(
                    group_id, (merger.forwarded_to, []), now, net
                )

    # -- the role halves (repro.cluster.roles) ----------------------------------------

    def _rebase(self, group_id: int, next_seq: int, floor: int) -> None:
        if group_id < len(self.ship_seq):
            self.ship_seq[group_id] = next_seq
            self.forward_floor[group_id] = max(self.forward_floor[group_id], floor)

    def _note_shed(self, group_id: int, entries) -> None:
        # Rides up with the next forward; the root's ledger is its home.
        self._shed_pending[group_id].extend(entries)

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
        chunks.extend(shed_chunks(self.node_id, self._ckpt_id, self._shed_pending))
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
        self._shed_pending = restore_shed(len(self.plan.groups), chunks)
