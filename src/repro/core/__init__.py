"""Core contribution: crowds, gatherings, TAD/TAD*, incremental mining."""

from .config import PAPER_DEFAULTS, GatheringParameters
from .crowd import Crowd, is_crowd
from .crowd_discovery import CrowdDiscoveryResult, discover_closed_crowds
from .bitvector import BitVector, build_signatures, popcount_tree
from .gathering import (
    Gathering,
    detect_gatherings,
    detect_gatherings_brute_force,
    detect_gatherings_tad,
    detect_gatherings_tad_star,
    invalid_clusters,
    is_gathering,
    participators,
)
from .range_search import (
    BruteForceRangeSearch,
    GridRangeSearch,
    ImprovedRTreeRangeSearch,
    RangeSearchStrategy,
    SimpleRTreeRangeSearch,
    STRATEGY_NAMES,
    make_range_search,
)
from .incremental import IncrementalCrowdMiner, update_gatherings
from .pipeline import GatheringMiner, IncrementalGatheringMiner, MiningResult

__all__ = [
    "PAPER_DEFAULTS",
    "GatheringParameters",
    "Crowd",
    "is_crowd",
    "CrowdDiscoveryResult",
    "discover_closed_crowds",
    "BitVector",
    "build_signatures",
    "popcount_tree",
    "Gathering",
    "detect_gatherings",
    "detect_gatherings_brute_force",
    "detect_gatherings_tad",
    "detect_gatherings_tad_star",
    "invalid_clusters",
    "is_gathering",
    "participators",
    "BruteForceRangeSearch",
    "GridRangeSearch",
    "ImprovedRTreeRangeSearch",
    "RangeSearchStrategy",
    "SimpleRTreeRangeSearch",
    "STRATEGY_NAMES",
    "make_range_search",
    "IncrementalCrowdMiner",
    "update_gatherings",
    "GatheringMiner",
    "IncrementalGatheringMiner",
    "MiningResult",
]
