"""Grid index over snapshot clusters (Section III-A-2 of the paper).

The space is partitioned into square cells with side ``sqrt(2)/2 * delta`` so
that any two points inside the same cell are at most ``delta`` apart.  For
every timestamp the index stores

* a **cell list** per cluster — the set of cells the cluster occupies, and
* an **inverted list** per cell — the clusters covering that cell.

Together with the *affect region* of a cell (Definition 5: the cells whose
minimum distance to it is at most ``delta``) these structures support the
pruning-refinement range search used by the GRID scheme of Algorithm 1:

* **Pruning** — a cluster of the next timestamp is a candidate only if it
  overlaps the affect region of *every* cell of the query cluster.
* **Refinement** — points falling in the common cells of the two cell lists
  are already within ``delta`` of each other; only the points in the
  difference cells need nearest-neighbour checks, restricted to the affect
  region of their own cell.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..clustering.snapshot import SnapshotCluster
from ..geometry.point import Point

__all__ = ["GridIndex", "cell_size_for_delta", "affect_region"]

Cell = Tuple[int, int]


def cell_size_for_delta(delta: float) -> float:
    """The paper's cell side length ``sqrt(2)/2 * delta``."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return math.sqrt(2.0) / 2.0 * delta


def affect_region(cell: Cell) -> Set[Cell]:
    """Affect region of a cell (Definition 5).

    ``AR(g_ab) = { g_ij : |i-a| <= 2, |j-b| <= 2, |i-a| + |j-b| < 4 }`` —
    the 5x5 block around the cell minus its four corners.
    """
    a, b = cell
    region: Set[Cell] = set()
    for di in range(-2, 3):
        for dj in range(-2, 3):
            if abs(di) + abs(dj) < 4:
                region.add((a + di, b + dj))
    return region


class GridIndex:
    """Grid index over the snapshot clusters of a single timestamp."""

    def __init__(self, delta: float) -> None:
        self.delta = float(delta)
        self.cell_size = cell_size_for_delta(delta)
        # cluster key -> set of occupied cells
        self._cell_lists: Dict[Tuple[float, int], FrozenSet[Cell]] = {}
        # cell -> list of cluster keys covering it
        self._inverted: Dict[Cell, List[Tuple[float, int]]] = defaultdict(list)
        # cluster key -> cluster object
        self._clusters: Dict[Tuple[float, int], SnapshotCluster] = {}
        # (cluster key, cell) -> points of that cluster inside the cell
        self._points_by_cell: Dict[Tuple[Tuple[float, int], Cell], List[Point]] = {}

    # -- construction -----------------------------------------------------------
    @classmethod
    def build(cls, clusters: Iterable[SnapshotCluster], delta: float) -> "GridIndex":
        index = cls(delta)
        for cluster in clusters:
            index.add(cluster)
        return index

    def cell_of(self, point: Point) -> Cell:
        return (int(math.floor(point.x / self.cell_size)), int(math.floor(point.y / self.cell_size)))

    def add(self, cluster: SnapshotCluster) -> None:
        key = cluster.key()
        if key in self._clusters:
            raise ValueError(f"cluster {key} already indexed")
        cells: Set[Cell] = set()
        for point in cluster.points():
            cell = self.cell_of(point)
            cells.add(cell)
            self._points_by_cell.setdefault((key, cell), []).append(point)
        self._cell_lists[key] = frozenset(cells)
        self._clusters[key] = cluster
        for cell in cells:
            self._inverted[cell].append(key)

    def __len__(self) -> int:
        return len(self._clusters)

    # -- accessors ----------------------------------------------------------------
    def cell_list(self, cluster: SnapshotCluster) -> FrozenSet[Cell]:
        return self._cell_lists[cluster.key()]

    def clusters(self) -> List[SnapshotCluster]:
        return list(self._clusters.values())

    def clusters_in_cells(self, cells: Iterable[Cell]) -> Set[Tuple[float, int]]:
        found: Set[Tuple[float, int]] = set()
        for cell in cells:
            found.update(self._inverted.get(cell, ()))
        return found

    def points_in_cell(self, cluster_key: Tuple[float, int], cell: Cell) -> List[Point]:
        return self._points_by_cell.get((cluster_key, cell), [])

    # -- range search (pruning + refinement) ---------------------------------------
    def candidates_for(self, query_cells: Iterable[Cell]) -> List[SnapshotCluster]:
        """Pruning step: clusters overlapping the affect region of every query cell."""
        query_cells = list(query_cells)
        if not query_cells:
            return []
        surviving: Optional[Set[Tuple[float, int]]] = None
        for cell in query_cells:
            covered = self.clusters_in_cells(affect_region(cell))
            surviving = covered if surviving is None else (surviving & covered)
            if not surviving:
                return []
        return [self._clusters[key] for key in sorted(surviving)]

    def query_cells_of_points(self, points: Iterable[Point]) -> Dict[Cell, List[Point]]:
        """Group arbitrary points (a query cluster's members) by grid cell."""
        grouped: Dict[Cell, List[Point]] = defaultdict(list)
        for point in points:
            grouped[self.cell_of(point)].append(point)
        return dict(grouped)

    def refine(
        self,
        query_cells: Dict[Cell, List[Point]],
        candidate: SnapshotCluster,
    ) -> bool:
        """Refinement step: decide ``d_H(query, candidate) <= delta`` exactly.

        ``query_cells`` maps each cell occupied by the query cluster to the
        query points inside it.  Points of either cluster that lie in cells
        occupied by both clusters are within ``delta`` of the other cluster by
        construction of the cell size, so only points in the symmetric
        difference of the cell lists need explicit nearest-neighbour checks.
        """
        cand_key = candidate.key()
        cand_cells = self._cell_lists[cand_key]
        query_cell_set = set(query_cells)
        common = query_cell_set & cand_cells
        delta_sq = self.delta * self.delta

        # Query points in cells not shared with the candidate must have a
        # neighbour in the candidate within delta.
        for cell in query_cell_set - common:
            neighbourhood = affect_region(cell) & cand_cells
            if not neighbourhood:
                return False
            cand_points = [
                p
                for neighbour_cell in neighbourhood
                for p in self.points_in_cell(cand_key, neighbour_cell)
            ]
            for point in query_cells[cell]:
                if not _has_neighbour_within(point, cand_points, delta_sq):
                    return False

        # Candidate points in cells not shared with the query must have a
        # neighbour among the query points within delta.
        for cell in cand_cells - common:
            neighbourhood = affect_region(cell) & query_cell_set
            if not neighbourhood:
                return False
            query_points = [
                p for neighbour_cell in neighbourhood for p in query_cells[neighbour_cell]
            ]
            for point in self.points_in_cell(cand_key, cell):
                if not _has_neighbour_within(point, query_points, delta_sq):
                    return False
        return True

    def range_search(self, query: SnapshotCluster) -> List[SnapshotCluster]:
        """Clusters whose Hausdorff distance to ``query`` is at most ``delta``."""
        query_cells = self.query_cells_of_points(query.points())
        results = []
        for candidate in self.candidates_for(query_cells.keys()):
            if self.refine(query_cells, candidate):
                results.append(candidate)
        return results


def _has_neighbour_within(point: Point, others: List[Point], limit_sq: float) -> bool:
    px, py = point.x, point.y
    for other in others:
        dx = px - other.x
        dy = py - other.y
        if dx * dx + dy * dy <= limit_sq:
            return True
    return False
