"""The two jobs of a Desis node, each written once (Sec 3.2, Sec 5.1).

Every node below the root *ships* per-slice partials to a parent; every
node above the leaves *merges* its children's partials by slice id.  A
local node is a :class:`Shipper` plus its group handlers, the root a
:class:`Merger` plus its assemblers and exactly-once ledger, and an
intermediate is both plus the forward between them.

The roles hold the state and the behaviour of their half.  The shipping
side owns the upward protocol: per group, the slice sequence and the shed
coverage awaiting the next batch; the one ship step that numbers, traces,
sends and retains a batch; and the parent's trims and resyncs (failover,
restart, soft rejoin).  The merging side owns the intake of a child's
batch, membership, liveness, staging bounds, checkpointing and restart.
Both shed a staging buffer over its cap the same way, down to one
watermark.  What differs per node stays a small method the node
overrides — where its records come from, :attr:`Shipper.ship_kind` and
:meth:`Shipper._drop_covered` on the shipping side;
:meth:`Merger._release`, :meth:`Merger._note_shed`,
:meth:`Merger._snapshot` and the :meth:`Merger._reset_for_restart` /
:meth:`Merger._restore` pair on the merging side.  These paths run per
tick and per batch, not per event.
"""

from __future__ import annotations

from repro.core.analyzer import QueryGroup, QueryPlan
from repro.core.types import NodeRole
from repro.cluster.checkpoint import (
    decode_checkpoint,
    encode_checkpoint,
    merger_cursors,
    pending_chunks,
    restore_mergers,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.merger import GroupMerger
from repro.cluster.reliability import (
    ChildLiveness,
    recovery_entries,
    resync_entries,
)
from repro.network.messages import (
    CheckpointMessage,
    ControlMessage,
    PartialBatchMessage,
    ResyncMessage,
    SliceRecord,
    SnapshotChunk,
)
from repro.network.simnet import SimNetwork, SimNode
from repro.obs.tracing import NULL_RECORDER

__all__ = ["Shipper", "Merger"]

#: shedding hysteresis: a staging buffer over its cap sheds down to this
#: share of ``staging_limit``, not just under it, so it does not shed again
#: at the next record (DESIGN.md §12)
SHED_WATERMARK = 0.8


class _Node(SimNode):
    """What both halves share: the configuration, the recorder, and the
    overload accounting of a bounded staging buffer (DESIGN.md §12)."""

    def __init__(self, node_id: str, role: NodeRole, config: ClusterConfig,
                 recorder=None) -> None:
        SimNode.__init__(self, node_id, role)
        self.config = config
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        # Both stay zero without the opt-in caps.
        self.peak_staging = 0
        self.slices_shed = 0

    def _overflow(self, occupancy: int) -> int:
        """How many of ``occupancy`` staged slices to shed: none within
        ``staging_limit``, else down to the hysteresis low watermark
        ``staging_limit * SHED_WATERMARK``, so the buffer does not
        oscillate at the cap."""
        limit = self.config.staging_limit
        if limit is None or occupancy <= limit:
            return 0
        return occupancy - max(int(limit * SHED_WATERMARK), 0)

    def _shed(self, group_id: int, shed: list[SliceRecord], net: SimNetwork) -> None:
        """Account whole slices dropped from ``group_id``'s staging buffer
        and hand their coverage to :meth:`_note_shed`, so the root can
        stamp the windows they degrade with ``completeness < 1.0``."""
        self.slices_shed += len(shed)
        net.note_shed(self.node_id, group_id, shed)
        self._note_shed(
            group_id, [(self.node_id, record.start, record.end) for record in shed]
        )

    def _note_shed(self, group_id: int, entries) -> None:
        """Role hook: where shed coverage ``(node_id, start, end)`` — shed
        here or reported by a descendant — waits to degrade its windows."""
        raise NotImplementedError

    def _stalled(self, net: SimNetwork) -> bool:
        """Whether the upward channel is out of credit: never without a
        parent."""
        return False


class Shipper(_Node):
    """The half of a node that has a parent: the upward slice sequence of
    every group, the ship step, heartbeats, retention of what it shipped,
    and serving the parent's trims and resyncs."""

    #: trace kind of a shipped batch that carries records
    ship_kind: str

    def __init__(self, node_id: str, role: NodeRole, parent: str,
                 config: ClusterConfig, recorder=None) -> None:
        _Node.__init__(self, node_id, role, config, recorder)
        self.parent = parent
        self.alive = True
        self._last_heartbeat = config.origin
        # Retention (DESIGN.md §8): when the deployment asks for it, every
        # shipped batch — including empty coverage steps — is kept until a
        # parent checkpoint trims it, so a recovering or adoptive parent
        # can be served the exact per-tick suffix it is missing.
        self._retain = False
        self._retained: list[PartialBatchMessage] = []
        self.retention_evicted = 0
        self._reset_upward()

    def retain_shipped(self) -> None:
        """Keep shipped batches from now on (recovery is in play)."""
        self._retain = True

    # -- the upward protocol (Sec 5.1.1) ---------------------------------------------------

    def _reset_upward(self) -> None:
        #: per group, the slice seq the next upward batch starts at
        self.ship_seq: list[int] = []
        #: per group, shed coverage ``(node_id, start, end)`` awaiting the
        #: next batch (DESIGN.md §12); stays empty at default config
        self.shed_pending: list[list[tuple[str, int, int]]] = []

    def _open_upward(self) -> None:
        self.ship_seq.append(0)
        self.shed_pending.append([])

    def _ship(self, group_id: int, covered_to: int, records: list[SliceRecord],
              now: int, net: SimNetwork) -> None:
        """Ship ``records`` and coverage up to ``covered_to`` as the next
        batch of ``group_id``'s slice sequence, with the shed coverage
        noted since the last one; keep it while retention is on."""
        batch = PartialBatchMessage(
            sender=self.node_id,
            group_id=group_id,
            first_slice_seq=self.ship_seq[group_id],
            covered_to=covered_to,
            records=records,
            shed=self.shed_pending[group_id],
        )
        self.shed_pending[group_id] = []
        if self.recorder.enabled and records:
            self.recorder.record(
                self.ship_kind,
                now,
                node=self.node_id,
                group=group_id,
                first_seq=batch.first_slice_seq,
                records=len(records),
                start=records[0].start,
                end=records[-1].end,
                covered_to=covered_to,
            )
        self.ship_seq[group_id] += len(records)
        net.send(self.node_id, self.parent, batch)
        if self._retain:
            self._retained.append(batch)
            self._cap_retention()

    def _note_shed(self, group_id: int, entries) -> None:
        # Rides up with the next batch; the root's ledger is its home.
        self.shed_pending[group_id].extend(entries)

    def _stalled(self, net: SimNetwork) -> bool:
        return self.config.overload_control and net.channel_stalled(
            self.node_id, self.parent
        )

    def _heartbeat(self, now: int, net: SimNetwork) -> None:
        if now - self._last_heartbeat >= self.config.heartbeat_interval:
            self._last_heartbeat = now
            net.send(
                self.node_id,
                self.parent,
                ControlMessage(sender=self.node_id, kind="heartbeat", payload=now),
            )

    def _cap_retention(self) -> None:
        limit = self.config.retention_limit
        if limit is not None and len(self._retained) > limit:
            self.retention_evicted += len(self._retained) - limit
            self._retained = self._retained[-limit:]

    # -- the parent's trims and resyncs ----------------------------------------------------

    def on_message(self, message, now: int, net: SimNetwork) -> None:
        """Serve the parent: a checkpoint's retention trim, or a resync
        after a failover, a parent restart, or a soft-eviction outage."""
        if isinstance(message, CheckpointMessage):
            self._apply_trim(message.safe_to)
        elif isinstance(message, ResyncMessage):
            if message.new_parent:
                self._reparent(message, net)
            elif message.recover:
                self._fast_forward(message, net)
            else:
                self._rejoin(message, net)

    def _apply_trim(self, safe_to: dict[int, int]) -> None:
        """Drop retained batches the parent has durably checkpointed past."""
        if not self._retained:
            return
        self._retained = [
            batch
            for batch in self._retained
            if (floor := safe_to.get(batch.group_id)) is None
            or batch.covered_to > floor
        ]

    def _rejoin(self, message: ResyncMessage, net: SimNetwork) -> None:
        """Rejoin a parent that soft-evicted this node: restart the upward
        slice sequences, and never ship again what lies within the
        coverage the parent assembled meanwhile."""
        for group_id, (next_seq, covered) in message.entries.items():
            if group_id >= len(self.ship_seq):
                continue
            self.ship_seq[group_id] = next_seq
            dropped = self._drop_covered(group_id, covered, rejoin=True)
            if dropped and self.config.overload_control:
                # Records the resync prunes are data dropped under overload
                # (the outage was a stalled, not a silent, channel) —
                # account them like any other shed so the completeness
                # ledger stays truthful.
                self._shed(group_id, dropped, net)
        net.reset_channel(self.node_id, self.parent, message.epoch)

    def _fast_forward(self, message: ResyncMessage, net: SimNetwork) -> None:
        """Serve a parent that restarted from a checkpoint: re-ship only
        the retained suffix past its restored cursors, with the original
        sequence numbers (the merger prefix-drops any overlap with frames
        that survived in the reliable channel)."""
        net.reset_channel(self.node_id, self.parent, message.epoch)
        for batch in self._retained:
            cursor = message.entries.get(batch.group_id)
            if cursor is None or batch.covered_to > cursor[1]:
                net.send(self.node_id, self.parent, batch)

    def _reparent(self, message: ResyncMessage, net: SimNetwork) -> None:
        """Fail over to the adopter of this node after its parent died.

        The adoptive parent attached this node at its own coverage floors
        (``entries`` carries them with ``next_seq`` 0), so the retained
        suffix past each floor is renumbered from slice seq zero, records
        at or below the floor are pruned, and emptied batches are *kept* —
        their coverage steps reproduce the original release granularity.
        """
        self.parent = message.new_parent
        counts: dict[int, int] = {}
        kept: list[PartialBatchMessage] = []
        for batch in self._retained:
            entry = message.entries.get(batch.group_id)
            floor = entry[1] if entry is not None else None
            if floor is not None:
                if batch.covered_to <= floor:
                    continue
                batch.records = [r for r in batch.records if r.end > floor]
            batch.first_slice_seq = counts.get(batch.group_id, 0)
            counts[batch.group_id] = batch.first_slice_seq + len(batch.records)
            kept.append(batch)
        self._retained = kept
        for group_id, (_, floor) in message.entries.items():
            if group_id < len(self.ship_seq):
                self.ship_seq[group_id] = counts.get(group_id, 0)
                self._drop_covered(group_id, floor, rejoin=False)
        net.reset_channel(self.node_id, self.parent, message.epoch)
        for batch in kept:
            net.send(self.node_id, self.parent, batch)

    def _drop_covered(self, group_id: int, floor: int, *,
                      rejoin: bool) -> list[SliceRecord]:
        """Role hook: ship nothing of ``group_id`` at or below ``floor``,
        coverage the parent (``rejoin``) or an adopter assembled without
        this node; returns the staged records this drops."""
        raise NotImplementedError


class Merger(_Node):
    """The half of a node that has children: one :class:`GroupMerger` per
    query-group, the intake of their batches, membership and liveness,
    bounded staging, checkpoints, and the restart that reloads them."""

    def __init__(self, node_id: str, role: NodeRole, children: list[str],
                 plan: QueryPlan, config: ClusterConfig, recorder=None) -> None:
        _Node.__init__(self, node_id, role, config, recorder)
        self.children = list(children)
        self.plan = plan
        #: per group, the time its slicing is anchored at: ``config.origin``,
        #: or the tick a runtime query joined at.  Durable like the rest of
        #: the cluster metadata — a restart reopens each group where it began.
        self.origins = [config.origin for _ in plan.groups]
        # Soft-eviction state, only active under a fault plan: without one
        # the network is lossless and partitions cannot happen.
        self.liveness = (
            ChildLiveness(children, config.origin, config.node_timeout)
            if config.fault_plan is not None
            else None
        )
        self._reset_groups()
        #: deployment hook: called with ``(child, now, net)`` when liveness
        #: sweeps a child whose crash the fault plan declares permanent
        self.on_child_dead = None
        # Checkpointing (DESIGN.md §8); the deployment wires ``store``.
        self.store = None
        self._ckpt_id = 0
        self._last_ckpt = config.origin
        self.checkpoints_taken = 0
        self.recoveries = 0
        #: children soft-evicted for persistent credit stalls (DESIGN.md
        #: §12); zero without the opt-in caps
        self.slow_consumer_evictions = 0

    # -- query-groups --------------------------------------------------------------------

    def add_group(self, group: QueryGroup, origin: int) -> None:
        """Start merging a query-group whose slicing begins at ``origin``."""
        self.origins.append(origin)
        self._open_group(group, origin)

    def _open_group(self, group: QueryGroup, origin: int) -> None:
        """Extend every per-group list; roles add their own after this.
        A soft-evicted child is attached when its heartbeat re-admits it,
        like to every other merger."""
        attached = self.children
        if self.liveness is not None and self.liveness.evicted:
            attached = [c for c in attached if c not in self.liveness.evicted]
        self.mergers.append(GroupMerger(group, attached, origin))

    def _reset_groups(self) -> None:
        """Virgin per-group state (construction, lossy restart); roles
        empty their own per-group lists before this refills them."""
        self.mergers: list[GroupMerger] = []
        for group, origin in zip(self.plan.groups, self.origins):
            self._open_group(group, origin)

    # -- intake (Sec 5.1.1) --------------------------------------------------------------

    def _take(self, message: PartialBatchMessage, now: int, net: SimNetwork) -> None:
        """Merge a child's batch by slice id and release what every child
        now covers.  Under overload control the merger sheds over its
        staging cap first, and released coverage stays staged while the
        upward channel is stalled."""
        group_id = message.group_id
        merger = self.mergers[group_id]
        if message.shed:
            # Before the advance below can close the windows it degrades.
            self._note_shed(group_id, message.shed)
        merger.on_batch(message)
        if self.config.overload_control:
            self._shed_staging_overflow(group_id, net)
            self.peak_staging = max(
                self.peak_staging,
                sum(each.staging_occupancy() for each in self.mergers),
            )
            if self._stalled(net):
                # Backpressure: leave the released coverage staged in the
                # merger's pending buffers (just bounded) instead of
                # growing the stalled channel's unacked backlog.
                return
        advanced = merger.advance()
        if advanced is not None:
            self._release(group_id, *advanced, now, net)

    def _release(self, group_id: int, covered: int, records: list[SliceRecord],
                 now: int, net: SimNetwork) -> None:
        """Role hook: pass on ``records`` released up to ``covered``."""
        raise NotImplementedError

    # -- membership (Sec 3.2) ------------------------------------------------------------

    def add_child(self, child: str, now: int) -> None:
        """Attach ``child``, which joins at ``now`` — not at the origin, so
        it is never swept for silence it predates."""
        if child in self.children:
            return
        self.children.append(child)
        for merger in self.mergers:
            merger.add_child(child)
        if self.liveness is not None:
            self.liveness.add(child, now)

    def remove_child(self, child: str) -> None:
        if child in self.children:
            self.children.remove(child)
        for merger in self.mergers:
            merger.remove_child(child)
        if self.liveness is not None:
            self.liveness.remove(child)

    # -- liveness (repro.cluster.reliability) --------------------------------------------

    def on_tick(self, now: int, net: SimNetwork) -> None:
        if self.liveness is not None:
            self._sweep_children(now, net)
        self._maybe_checkpoint(now, net)

    def _sweep_children(self, now: int, net: SimNetwork) -> None:
        """Soft-evict children gone silent (or, under overload control,
        credit-stalled) for too long; hand permanently dead ones to the
        deployment for failover."""
        plan = net.fault_plan
        for child in self.liveness.sweep(now):
            for merger in self.mergers:
                merger.remove_child(child)
            if (
                self.on_child_dead is not None
                and plan is not None
                and plan.permanent(child, now)
            ):
                self.on_child_dead(child, now, net)
        if self.config.overload_control:
            self._sweep_slow_consumers(now, net)

    def _sweep_slow_consumers(self, now: int, net: SimNetwork) -> None:
        """Soft-evict children whose upward channel has been credit-stalled
        past ``node_timeout`` (DESIGN.md §12) — the same resync path as a
        silent child: coverage resumes without them, their heartbeats keep
        flowing, and the next one re-admits them."""
        timeout = self.config.node_timeout
        for child in self.children:
            since = net.channel_stalled_since(child, self.node_id)
            if (
                since is not None
                and now - since > timeout
                and self.liveness.force_evict(child)
            ):
                self.slow_consumer_evictions += 1
                for merger in self.mergers:
                    merger.remove_child(child)

    def _beat(self, child: str, now: int, net: SimNetwork) -> None:
        """A heartbeat arrived; a soft-evicted direct child rejoins on it."""
        liveness = self.liveness
        if liveness.tracks(child) and liveness.beat(child, now):
            self._readmit(child, net)

    def _readmit(self, child: str, net: SimNetwork) -> None:
        """Re-attach a soft-evicted child whose heartbeats came back."""
        for merger in self.mergers:
            merger.add_child(child)
        epoch = net.expect_resync(child, self.node_id)
        net.send(
            self.node_id,
            child,
            ResyncMessage(
                sender=self.node_id,
                epoch=epoch,
                entries=resync_entries(self.mergers),
            ),
        )

    # -- overload control (DESIGN.md §12) ------------------------------------------------

    def _shed_staging_overflow(self, group_id: int, net: SimNetwork) -> None:
        """Shed a merger over the staging cap: whole slices only, oldest
        (smallest ``(end, start)``) first."""
        merger = self.mergers[group_id]
        count = self._overflow(merger.staging_occupancy())
        if count:
            self._shed(group_id, merger.shed_oldest(count), net)

    # -- checkpointing and recovery (DESIGN.md §8) ---------------------------------------

    def _maybe_checkpoint(self, now: int, net: SimNetwork) -> None:
        interval = self.config.checkpoint_interval
        if self.store is None or interval is None:
            return
        if now - self._last_ckpt < interval:
            return
        plan = net.fault_plan
        if plan is not None and plan.crashed(self.node_id, now):
            # A crashed process takes no snapshots; the last one persisted
            # before the fault is what recovery will see.
            return
        self._checkpoint(now, net)

    def _checkpoint(self, now: int, net: SimNetwork) -> None:
        self._ckpt_id += 1
        header = CheckpointMessage(
            sender=self.node_id,
            checkpoint_id=self._ckpt_id,
            at=now,
            groups={
                group_id: (0, 0, merger.forwarded_to)
                for group_id, merger in enumerate(self.mergers)
            },
            cursors=merger_cursors(self.mergers),
            safe_to={
                group_id: merger.forwarded_to
                for group_id, merger in enumerate(self.mergers)
            },
        )
        chunks = pending_chunks(self.node_id, self._ckpt_id, self.mergers)
        chunks.extend(self._snapshot(header))
        self.store.save(
            self.node_id, self._ckpt_id, encode_checkpoint([header, *chunks])
        )
        self.checkpoints_taken += 1
        self._last_ckpt = now
        if self.recorder.enabled:
            self.recorder.record(
                "checkpoint.save",
                now,
                node=self.node_id,
                checkpoint_id=self._ckpt_id,
                chunks=len(chunks) + 1,
            )
        for child in self.children:
            net.send(
                self.node_id,
                child,
                CheckpointMessage(
                    sender=self.node_id,
                    checkpoint_id=self._ckpt_id,
                    at=now,
                    safe_to=dict(header.safe_to),
                ),
            )

    def _snapshot(self, header: CheckpointMessage) -> list[SnapshotChunk]:
        """Role hook: fill the role's fields of the checkpoint ``header``
        and return its chunks beyond the mergers' pending buffers."""
        raise NotImplementedError

    def on_restart(self, now: int, net: SimNetwork) -> None:
        """Come back from a state-losing crash (DESIGN.md §8).

        Cluster metadata (parent, children, queries, group origins) is
        durable and re-read; merge state is wiped and reloaded from the
        latest checkpoint — or left virgin when there is none, the
        checkpoint-less baseline.  Children are then asked to fast-forward:
        re-ship only the retained suffix past the restored cursors.
        """
        self.recoveries += 1
        # Liveness first: the reopened groups attach whom it holds live,
        # and after a restart that is every child.
        if self.liveness is not None:
            self.liveness = ChildLiveness(
                self.children, now, self.config.node_timeout
            )
        traced = self._reset_for_restart(now)
        self._last_ckpt = now
        loaded = self.store.load_latest(self.node_id) if self.store else None
        restored_id = 0
        if loaded is not None:
            restored_id, blobs = loaded
            header, chunks = decode_checkpoint(blobs)
            self._ckpt_id = restored_id
            restore_mergers(self.mergers, header, chunks)
            self._restore(header, chunks)
        if self.recorder.enabled:
            self.recorder.record(
                "node.recover",
                now,
                node=self.node_id,
                checkpoint_id=restored_id,
                from_checkpoint=loaded is not None,
                **traced,
            )
        for child in self.children:
            epoch = net.expect_resync(child, self.node_id)
            net.send(
                self.node_id,
                child,
                ResyncMessage(
                    sender=self.node_id,
                    epoch=epoch,
                    entries=recovery_entries(self.mergers, child),
                    recover=True,
                ),
            )

    def _reset_for_restart(self, now: int) -> dict:
        """Role hook: wipe what the crash lost (through
        :meth:`_reset_groups`); returns the role's extra fields of the
        ``node.recover`` trace event."""
        raise NotImplementedError

    def _restore(self, header: CheckpointMessage, chunks: list[SnapshotChunk]) -> None:
        """Role hook: reload the role's half of a checkpoint (the mergers
        are already restored)."""
        raise NotImplementedError
