"""Range-search strategies for crowd discovery.

``RangeSearch(c, C_t, delta)`` must return the clusters of ``C_t`` whose
Hausdorff distance to the query cluster ``c`` is at most ``delta``.  The
paper compares three pruning schemes on top of the brute-force approach:

* **BRUTE** — evaluate the (thresholded) Hausdorff distance against every
  cluster.
* **SR** — index the clusters' MBRs in an R-tree and run a window query with
  the query MBR enlarged by ``delta`` (Lemma 2), then refine survivors with
  the exact distance check.
* **IR** — same R-tree, but the node/entry test requires intersection with
  all four enlarged side windows of the query MBR (the tighter ``d_side``
  bound, Lemma 3) before refinement.
* **GRID** — the grid index of Section III-A-2 with affect-region pruning and
  common-cell refinement; no exact Hausdorff computation is needed.

Each strategy builds one index per timestamp lazily and caches it, because a
single timestamp serves range searches from many crowd candidates.

These scalar schemes are the paper-faithful reference and the parity
oracle.  The ``"numpy"`` backend runs no per-scheme search: it computes
every consecutive-snapshot δ-edge in one pass (:mod:`repro.engine.proximity`),
which is the answer every scheme gives, so by name it accepts only GRID
(:func:`runs_proximity_graph`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence, Type, Union

from ..clustering.snapshot import SnapshotCluster
from ..index.grid import GridIndex
from ..index.rtree import RTree, RTreeEntry

__all__ = [
    "RangeSearchStrategy",
    "BruteForceRangeSearch",
    "SimpleRTreeRangeSearch",
    "ImprovedRTreeRangeSearch",
    "GridRangeSearch",
    "make_range_search",
    "runs_proximity_graph",
    "RANGE_SEARCHES",
    "NUMPY_SCHEMES",
    "STRATEGY_NAMES",
]


class RangeSearchStrategy(ABC):
    """Finds clusters within Hausdorff distance ``delta`` of a query cluster."""

    #: Short name used in benchmark output (SR / IR / GRID / BRUTE).
    name = "ABSTRACT"

    #: One-line summary listed by ``repro backends``.
    description = ""

    def __init__(self, delta: float) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)
        #: How many candidate clusters survived pruning (exact checks done);
        #: useful for analysing pruning power in ablation benches.
        self.refinement_count = 0

    @abstractmethod
    def search(
        self, query: SnapshotCluster, timestamp: float, clusters: Sequence[SnapshotCluster]
    ) -> List[SnapshotCluster]:
        """Clusters of ``clusters`` (at ``timestamp``) within ``delta`` of ``query``."""

    def drop_before(self, timestamp: float) -> None:
        """Discard per-timestamp cached state older than ``timestamp``.

        The crowd sweep calls this as it moves forward so index caches stay
        bounded by the working set (the current snapshot, plus the previous
        one for query-side columns) instead of growing with the sweep.  The
        base implementation is a no-op for strategies that cache nothing.
        """

    def reset_statistics(self) -> None:
        self.refinement_count = 0


class BruteForceRangeSearch(RangeSearchStrategy):
    """No pruning: check the Hausdorff threshold against every cluster."""

    name = "BRUTE"
    description = "exact Hausdorff check against every cluster"

    def search(self, query, timestamp, clusters):
        self.refinement_count += len(clusters)
        return [c for c in clusters if query.within_hausdorff(c, self.delta)]


class _RTreeCache:
    """Shared lazy construction of one R-tree per timestamp."""

    def __init__(self) -> None:
        self._trees: Dict[float, RTree] = {}
        self._sources: Dict[float, int] = {}

    def tree_for(self, timestamp: float, clusters: Sequence[SnapshotCluster]) -> RTree:
        fingerprint = id(clusters) if isinstance(clusters, list) else hash(tuple(c.key() for c in clusters))
        if timestamp in self._trees and self._sources.get(timestamp) == len(clusters):
            return self._trees[timestamp]
        tree = RTree.build(
            (RTreeEntry(mbr=c.mbr, payload=c) for c in clusters), max_entries=8
        )
        self._trees[timestamp] = tree
        self._sources[timestamp] = len(clusters)
        return tree

    def drop_before(self, timestamp: float) -> None:
        """Evict trees of timestamps strictly before ``timestamp``."""
        for key in [t for t in self._trees if t < timestamp]:
            del self._trees[key]
            self._sources.pop(key, None)


class SimpleRTreeRangeSearch(RangeSearchStrategy):
    """SR: prune with ``d_min(MBR, MBR) <= delta`` (Lemma 2), then refine."""

    name = "SR"
    description = "R-tree window pruning (Lemma 2), scalar refine"

    def __init__(self, delta: float) -> None:
        super().__init__(delta)
        self._cache = _RTreeCache()

    def search(self, query, timestamp, clusters):
        if not clusters:
            return []
        tree = self._cache.tree_for(timestamp, clusters)
        window = query.mbr.expand(self.delta)
        candidates = [entry.payload for entry in tree.window_query(window)]
        self.refinement_count += len(candidates)
        return [c for c in candidates if query.within_hausdorff(c, self.delta)]

    def drop_before(self, timestamp: float) -> None:
        """Evict R-trees of timestamps the sweep has moved past."""
        self._cache.drop_before(timestamp)


class ImprovedRTreeRangeSearch(RangeSearchStrategy):
    """IR: prune with the tighter ``d_side`` bound (Lemma 3), then refine."""

    name = "IR"
    description = "R-tree d_side pruning (Lemma 3), scalar refine"

    def __init__(self, delta: float) -> None:
        super().__init__(delta)
        self._cache = _RTreeCache()

    def search(self, query, timestamp, clusters):
        if not clusters:
            return []
        tree = self._cache.tree_for(timestamp, clusters)
        windows = query.mbr.expanded_side_windows(self.delta)
        candidates = [entry.payload for entry in tree.multi_window_query(windows)]
        self.refinement_count += len(candidates)
        return [c for c in candidates if query.within_hausdorff(c, self.delta)]

    def drop_before(self, timestamp: float) -> None:
        """Evict R-trees of timestamps the sweep has moved past."""
        self._cache.drop_before(timestamp)


class GridRangeSearch(RangeSearchStrategy):
    """GRID: affect-region pruning plus common-cell refinement (no exact d_H)."""

    name = "GRID"
    description = "grid affect-region pruning, common-cell refine"

    def __init__(self, delta: float) -> None:
        super().__init__(delta)
        self._indexes: Dict[float, GridIndex] = {}
        self._sources: Dict[float, int] = {}

    def _index_for(self, timestamp: float, clusters: Sequence[SnapshotCluster]) -> GridIndex:
        if timestamp in self._indexes and self._sources.get(timestamp) == len(clusters):
            return self._indexes[timestamp]
        # Deliberately the scalar build: the "python" backend stays a fully
        # independent reference so backend-parity tests are differential.
        index = GridIndex.build(clusters, self.delta)
        self._indexes[timestamp] = index
        self._sources[timestamp] = len(clusters)
        return index

    def search(self, query, timestamp, clusters):
        if not clusters:
            return []
        index = self._index_for(timestamp, clusters)
        query_cells = index.query_cells_of_points(query.points())
        candidates = index.candidates_for(query_cells.keys())
        self.refinement_count += len(candidates)
        return [c for c in candidates if index.refine(query_cells, c)]

    def drop_before(self, timestamp: float) -> None:
        """Evict grid indexes of timestamps the sweep has moved past."""
        for key in [t for t in self._indexes if t < timestamp]:
            del self._indexes[key]
            self._sources.pop(key, None)


#: The scalar schemes by name.
RANGE_SEARCHES: Dict[str, Type[RangeSearchStrategy]] = {
    cls.name: cls
    for cls in (
        BruteForceRangeSearch,
        SimpleRTreeRangeSearch,
        ImprovedRTreeRangeSearch,
        GridRangeSearch,
    )
}

STRATEGY_NAMES = tuple(RANGE_SEARCHES)

#: Schemes the ``"numpy"`` backend runs, as the proximity-graph frontier
#: sweep; the graph's edges are exactly GRID's (and every scheme's) answers.
NUMPY_SCHEMES = {"GRID": "proximity graph of consecutive snapshots + frontier sweep"}


def make_range_search(name: str, delta: float) -> RangeSearchStrategy:
    """Instantiate the scalar scheme called ``name`` (case-insensitive)."""
    cls = RANGE_SEARCHES.get(name.upper())
    if cls is None:
        raise ValueError(
            f"unknown range-search scheme {name!r}; choose from {STRATEGY_NAMES}"
        )
    return cls(delta)


def runs_proximity_graph(
    strategy: Union[str, RangeSearchStrategy, None], backend: str
) -> bool:
    """Whether crowd discovery runs the numpy proximity-graph sweep.

    A strategy *instance* (ablations, spies) or the ``"python"`` backend
    runs the scalar loop.  Under ``"numpy"`` a scheme name of ``None`` or
    ``"GRID"`` runs the graph sweep; any other known scheme raises
    ``ValueError``, because the numpy backend has no per-scheme search to
    offer and silently answering with GRID would hide the choice.
    """
    if backend != "numpy" or isinstance(strategy, RangeSearchStrategy):
        return False
    name = "GRID" if strategy is None else strategy.upper()
    if name in NUMPY_SCHEMES:
        return True
    if name not in RANGE_SEARCHES:
        raise ValueError(
            f"unknown range-search scheme {strategy!r}; choose from {STRATEGY_NAMES}"
        )
    raise ValueError(
        f"range-search scheme {strategy!r} runs only on the scalar reference; "
        "the numpy backend always runs the proximity-graph sweep (GRID) — "
        "use --backend python to pick a scheme"
    )
