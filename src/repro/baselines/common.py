"""Shared helpers for the baseline group-pattern miners.

The baselines (convoy, swarm) reason about which objects are grouped
together at each timestamp.  The helpers here produce that view from a
pre-built snapshot-cluster database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List

from ..clustering.snapshot import ClusterDatabase

__all__ = ["SnapshotGroups", "groups_from_clusters"]


@dataclass
class SnapshotGroups:
    """Per-timestamp groupings of objects.

    Attributes
    ----------
    timestamps:
        Sorted time instants.
    groups:
        For each timestamp (same order), the list of object-id sets that are
        grouped (density-connected) at that instant.
    """

    timestamps: List[float]
    groups: List[List[FrozenSet[int]]]

    def __post_init__(self) -> None:
        if len(self.timestamps) != len(self.groups):
            raise ValueError("timestamps and groups must have the same length")

    def __len__(self) -> int:
        return len(self.timestamps)

    def at(self, index: int) -> List[FrozenSet[int]]:
        return self.groups[index]


def groups_from_clusters(cluster_db: ClusterDatabase) -> SnapshotGroups:
    """Extract object-id groupings from a snapshot-cluster database."""
    timestamps = cluster_db.timestamps()
    groups = [
        [cluster.object_ids() for cluster in cluster_db.clusters_at(t)]
        for t in timestamps
    ]
    return SnapshotGroups(timestamps=timestamps, groups=groups)

