"""Decentralized aggregation (Sec 5): Desis, Disco, and centralized shipping."""

from repro.cluster.centralized import CentralizedCluster
from repro.cluster.checkpoint import (
    CheckpointStore,
    DirCheckpointStore,
    InMemoryCheckpointStore,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.deployment import ClusterRunResult
from repro.cluster.desis import DesisCluster
from repro.cluster.disco import DiscoCluster
from repro.cluster.intermediate import IntermediateNode
from repro.cluster.local import LocalNode
from repro.cluster.merger import GroupMerger, merge_records
from repro.cluster.reliability import ChildLiveness, recovery_entries, resync_entries
from repro.cluster.root import RootAssembler, RootNode

__all__ = [
    "CentralizedCluster",
    "CheckpointStore",
    "ChildLiveness",
    "ClusterConfig",
    "ClusterRunResult",
    "DesisCluster",
    "DirCheckpointStore",
    "DiscoCluster",
    "GroupMerger",
    "InMemoryCheckpointStore",
    "IntermediateNode",
    "LocalNode",
    "RootAssembler",
    "RootNode",
    "merge_records",
    "recovery_entries",
    "resync_entries",
]
