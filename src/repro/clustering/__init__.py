"""Density-based clustering substrate: DBSCAN and snapshot clusters."""

from .dbscan import NOISE, dbscan
from .snapshot import (
    ClusterDatabase,
    SnapshotCluster,
    build_cluster_database,
    cluster_snapshot,
)

__all__ = [
    "NOISE",
    "dbscan",
    "ClusterDatabase",
    "SnapshotCluster",
    "build_cluster_database",
    "cluster_snapshot",
]
