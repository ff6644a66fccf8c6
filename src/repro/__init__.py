"""repro — reproduction of "On Discovery of Gathering Patterns from Trajectories".

The package reimplements, in pure Python, the full framework of Zheng, Zheng,
Yuan & Shang (ICDE 2013): snapshot clustering of trajectories, closed-crowd
discovery with R-tree / grid-index pruning, closed-gathering detection with
the Test-and-Divide algorithm and bit-vector signatures, and incremental
maintenance under new data arrivals — plus the baseline patterns (convoy,
swarm) and a synthetic taxi-fleet generator standing in for the proprietary
Beijing T-Drive dataset.

Typical use::

    from repro import GatheringMiner, GatheringParameters

    params = GatheringParameters(eps=200, min_points=5, mc=15, delta=300,
                                 kc=20, kp=15, mp=10)
    result = GatheringMiner(params).mine(trajectory_db)
    for gathering in result.gatherings:
        print(gathering.start_time, gathering.end_time, len(gathering.participator_ids))
"""

from .core import (
    PAPER_DEFAULTS,
    BitVector,
    Crowd,
    CrowdDiscoveryResult,
    Gathering,
    GatheringMiner,
    GatheringParameters,
    IncrementalCrowdMiner,
    IncrementalGatheringMiner,
    MiningResult,
    detect_gatherings,
    discover_closed_crowds,
    is_crowd,
    is_gathering,
)
from .clustering import ClusterDatabase, SnapshotCluster, build_cluster_database, dbscan
from .geometry import MBR, Point, hausdorff
from .trajectory import Trajectory, TrajectoryDatabase

__version__ = "1.0.0"

__all__ = [
    "PAPER_DEFAULTS",
    "BitVector",
    "Crowd",
    "CrowdDiscoveryResult",
    "Gathering",
    "GatheringMiner",
    "GatheringParameters",
    "IncrementalCrowdMiner",
    "IncrementalGatheringMiner",
    "MiningResult",
    "detect_gatherings",
    "discover_closed_crowds",
    "is_crowd",
    "is_gathering",
    "ClusterDatabase",
    "SnapshotCluster",
    "build_cluster_database",
    "dbscan",
    "MBR",
    "Point",
    "hausdorff",
    "Trajectory",
    "TrajectoryDatabase",
    "__version__",
]
