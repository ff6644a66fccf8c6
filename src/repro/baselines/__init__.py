"""Baseline group-pattern miners the paper compares against."""

from .common import SnapshotGroups, groups_from_clusters
from .convoy import Convoy, mine_convoys
from .swarm import Swarm, mine_swarms

__all__ = [
    "SnapshotGroups",
    "groups_from_clusters",
    "Convoy",
    "mine_convoys",
    "Swarm",
    "mine_swarms",
]
