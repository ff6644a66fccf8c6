"""Precomputed cluster-to-cluster proximity graph for the crowd sweep.

The scalar sweep answers phase 2 one timestamp at a time: one range search
per live candidate against the snapshot's index.  This module removes the
per-timestamp machinery entirely by observing that Algorithm 1 only ever
asks *one* question of the geometry: "is cluster ``u``
of snapshot ``t_i`` within Hausdorff distance δ of cluster ``v`` of snapshot
``t_{i+1}``?" — and that every eligible cluster is the last cluster of at
least one candidate (extensions cover the appended clusters, fresh starts
cover the rest).  The full set of (previous cluster, next cluster) proximity
edges is therefore exactly the work a complete sweep performs, so it can be
computed for the whole database up front, in one columnar pass:

1. **Candidate pairs** — every node's member coordinates are bucketed into
   cells of side δ once, globally.  Per consecutive snapshot *pair*, the
   target side's unique ``(cell, node)`` entries are keyed with a per-pair
   offset (the :func:`~repro.engine.kernels.neighbor_pairs_batched` idiom,
   at cell granularity) so that nine ``searchsorted`` passes over one sorted
   key array find, for every source node, all target nodes sharing a 3x3
   cell block — a necessary condition for any two member points to be within
   δ, hence for ``d_H <= δ``.
2. **MBR prefilter** — ``d_H(u, v) <= δ`` requires each cluster's bounding
   box to lie inside the other's δ-expanded box (both directed distances are
   bounded by δ); one vectorized comparison over the candidate pairs.
3. **Exact refinement** — the surviving pairs go through the exact
   thresholded-Hausdorff decision
   :func:`~repro.engine.kernels.hausdorff_within_pairs`, chunked by
   distance-matrix work.

The result is a CSR adjacency (``indptr`` per source node, ``indices`` of
δ-reachable successor nodes, sorted so successors come out in snapshot
order), over which :func:`~repro.engine.sweep.sweep_crowds_frontier`
propagates candidate frontiers with a single gather per timestamp — no
range-search objects, no per-``(timestamp, last_cluster)`` memo dictionaries.

Cell size and MBR windows carry a tiny relative slack so float rounding in
the grid arithmetic can never exclude a pair the exact squared-distance
decision would accept: candidate generation stays a conservative superset
and the final edge set is bit-identical to the scalar reference's decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..clustering.snapshot import ClusterDatabase, SnapshotCluster
from ..geometry.point import points_to_array
from .frame import FrameBackedCluster
from .kernels import (
    DEFAULT_CHUNK_SIZE,
    bucket_cells,
    gather_ranges,
    hausdorff_within_pairs,
    mbrs_of_segments,
    pair_chunks,
    sorted_unique_pairs,
)

__all__ = ["ProximityGraph", "build_proximity_graph", "cluster_coordinates"]

#: Relative slack applied to the candidate-generation cell size and the MBR
#: prefilter windows.  The exact pair decision compares float squared
#: distances against ``δ²``; a pair it accepts can exceed δ by at most a few
#: ulps along either axis, which this margin covers with orders of magnitude
#: to spare — pruning stays a strict superset of the exact decision.
_SLACK = 1e-9


def cluster_coordinates(cluster: SnapshotCluster) -> np.ndarray:
    """Member coordinates of a cluster as an ``(n, 2)`` float array.

    Frame-backed clusters (the batched phase-1 output) hand back a zero-copy
    view of their home frame's coordinate block; scalar clusters fall back
    to materialising their points.
    """
    if isinstance(cluster, FrameBackedCluster):
        frame, index = cluster.segment()
        return frame.cluster_coords(index)
    return points_to_array(cluster.points())


@dataclass
class ProximityGraph:
    """CSR adjacency of δ-reachable cluster pairs across consecutive snapshots.

    Attributes
    ----------
    timestamps:
        The processed snapshot timestamps, in sweep order.
    clusters:
        One entry per graph node: the eligible clusters (support ``>= mc``)
        of every timestamp, concatenated in snapshot order.  Node ids index
        this list.
    node_bounds:
        ``(len(timestamps) + 1,)`` int64; the nodes of timestamp position
        ``p`` are ``node_bounds[p]:node_bounds[p + 1]``.
    indptr, indices:
        CSR adjacency: the δ-reachable successors of node ``u`` (all at the
        next timestamp position) are ``indices[indptr[u]:indptr[u + 1]]``,
        ascending — i.e. in the successor snapshot's cluster order, which is
        what keeps the frontier sweep's output order identical to the
        scalar reference.
    coords, offsets:
        All node member coordinates as one CSR block (node ``u`` owns rows
        ``offsets[u]:offsets[u + 1]``); reused by the carried-candidate
        bridge of the frontier sweep.
    delta, chunk_size:
        The Hausdorff threshold and kernel chunk size the graph was built
        with (the bridge reuses both).
    candidate_pairs:
        How many (source, target) pairs the grid pass generated (before the
        MBR prefilter and exact refinement) — the pruning-power statistic.
    build_seconds:
        Wall-clock seconds spent building the graph; surfaced as the
        ``proximity_seconds`` sub-phase in ``repro bench``.
    """

    timestamps: List[float]
    clusters: List[SnapshotCluster]
    node_bounds: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    coords: np.ndarray
    offsets: np.ndarray
    delta: float
    chunk_size: int = DEFAULT_CHUNK_SIZE
    candidate_pairs: int = 0
    build_seconds: float = 0.0

    @property
    def node_count(self) -> int:
        """Number of graph nodes (eligible clusters across all snapshots)."""
        return len(self.clusters)

    @property
    def edge_count(self) -> int:
        """Number of δ-proximity edges between consecutive snapshots."""
        return len(self.indices)

    def nodes_at(self, position: int) -> Tuple[int, int]:
        """The ``[begin, end)`` node-id range of one timestamp position."""
        return int(self.node_bounds[position]), int(self.node_bounds[position + 1])

    def successors(self, node: int) -> np.ndarray:
        """δ-reachable successor node ids of one node (ascending)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def position_block(self, position: int) -> Tuple[np.ndarray, np.ndarray]:
        """Coordinate CSR sub-block of one position's nodes.

        Returns ``(coords, offsets)`` re-based so the block's clusters are
        segments ``0..k`` — the layout :func:`hausdorff_within_many` expects.
        """
        begin, end = self.nodes_at(position)
        lo = int(self.offsets[begin])
        hi = int(self.offsets[end])
        return self.coords[lo:hi], self.offsets[begin : end + 1] - lo


def build_proximity_graph(
    cluster_db: ClusterDatabase,
    params,
    timestamps: Optional[Sequence[float]] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> ProximityGraph:
    """Build the full consecutive-snapshot proximity graph of a database.

    Parameters
    ----------
    cluster_db:
        The snapshot-cluster database (``C_DB``).
    params:
        Mining thresholds; only ``mc`` (node eligibility) and ``delta``
        (edge threshold) are used.
    timestamps:
        The snapshot timestamps to include, in sweep order; defaults to all
        of the database's.  Incremental resumes pass the already-filtered
        ``> start_after`` list so the graph covers exactly the new batch.
    chunk_size:
        Kernel chunk size bounding the refinement's peak memory.
    """
    started = perf_counter()
    if timestamps is None:
        timestamps = list(cluster_db.timestamps())
    else:
        timestamps = list(timestamps)

    clusters: List[SnapshotCluster] = []
    node_bounds = np.zeros(len(timestamps) + 1, dtype=np.int64)
    for position, t in enumerate(timestamps):
        clusters.extend(
            c for c in cluster_db.clusters_at(t) if len(c) >= params.mc
        )
        node_bounds[position + 1] = len(clusters)

    coords, offsets = _node_coordinates(clusters)
    delta = float(params.delta)
    n = len(clusters)

    src = dst = np.empty(0, dtype=np.int64)
    candidate_pairs = 0
    if n and len(timestamps) > 1:
        src, dst = _candidate_pairs(coords, offsets, node_bounds, delta)
        candidate_pairs = len(src)
        if len(src):
            keep = _mbr_prefilter(coords, offsets, src, dst, delta)
            src, dst = src[keep], dst[keep]
        if len(src):
            within = _refine_pairs(coords, offsets, src, dst, delta, chunk_size)
            src, dst = src[within], dst[within]

    indptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return ProximityGraph(
        timestamps=timestamps,
        clusters=clusters,
        node_bounds=node_bounds,
        indptr=indptr,
        indices=dst,
        coords=coords,
        offsets=offsets,
        delta=delta,
        chunk_size=int(chunk_size),
        candidate_pairs=candidate_pairs,
        build_seconds=perf_counter() - started,
    )


def _node_coordinates(
    clusters: Sequence[SnapshotCluster],
) -> Tuple[np.ndarray, np.ndarray]:
    """One CSR coordinate block over all graph nodes."""
    blocks = [cluster_coordinates(cluster) for cluster in clusters]
    offsets = np.zeros(len(clusters) + 1, dtype=np.int64)
    if blocks:
        np.cumsum([len(block) for block in blocks], out=offsets[1:])
        coords = np.concatenate(blocks)
    else:
        coords = np.empty((0, 2), dtype=float)
    return coords, offsets


def _candidate_pairs(
    coords: np.ndarray,
    offsets: np.ndarray,
    node_bounds: np.ndarray,
    delta: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Grid-generated candidate (source, target) node pairs, deduped + sorted.

    Any two points within δ of each other land in the same or an adjacent
    δ-cell, so two clusters with ``d_H <= δ`` must share a 3x3 cell block.
    The lookup runs at ``(cell, node)`` granularity over all snapshot pairs
    at once: target entries are keyed ``pair_id * (nx * ny) + local_cell``
    so a source cell of pair ``p`` can only ever hit target cells of the
    same pair — the per-group key-offset idiom of
    :func:`~repro.engine.kernels.neighbor_pairs_batched`.
    """
    n = len(offsets) - 1
    positions = len(node_bounds) - 1
    cells = bucket_cells(coords, delta * (1.0 + _SLACK))
    cells -= cells.min(axis=0)
    nx = np.int64(int(cells[:, 0].max()) + 3)
    ny = np.int64(int(cells[:, 1].max()) + 3)
    if float(positions) * float(nx) * float(ny) >= float(np.iinfo(np.int64).max):
        # Composite keys would overflow int64 (astronomical extents only):
        # fall back to all cross pairs per snapshot pair — a correct
        # superset; the MBR prefilter and exact refinement still apply.
        return _cross_pairs_fallback(node_bounds)

    node_of_point = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(offsets)
    )
    local_key = (cells[:, 0] + 1) * ny + (cells[:, 1] + 1)
    # Unique (node, cell) entries, sorted by node: one lexsort for the
    # whole database.
    entry_node, entry_key = sorted_unique_pairs(node_of_point, local_key)
    position_of_node = np.repeat(
        np.arange(positions, dtype=np.int64), np.diff(node_bounds)
    )
    entry_position = position_of_node[entry_node]

    # Target side: nodes of positions 1..P-1 belong to snapshot pair p-1.
    is_target = entry_position >= 1
    t_keys = (entry_position[is_target] - 1) * (nx * ny) + entry_key[is_target]
    t_nodes = entry_node[is_target]
    order = np.argsort(t_keys, kind="stable")
    t_keys = t_keys[order]
    t_nodes = t_nodes[order]

    # Source side: nodes of positions 0..P-2 probe the nine neighbouring
    # cells of their own pair's target table.
    is_source = entry_position <= positions - 2
    s_keys = entry_position[is_source] * (nx * ny) + entry_key[is_source]
    s_nodes = entry_node[is_source]

    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    for dx in (-1, 0, 1):
        # The three ``dy`` neighbours of a cell are *consecutive* keys (the
        # +1 padding keeps them inside one cx row), so each dx column is a
        # single contiguous key-range probe instead of three point probes.
        probe = s_keys + np.int64(dx) * ny
        left = np.searchsorted(t_keys, probe - 1, side="left")
        right = np.searchsorted(t_keys, probe + 1, side="right")
        lengths = right - left
        if not lengths.any():
            continue
        src_parts.append(np.repeat(s_nodes, lengths))
        dst_parts.append(gather_ranges(t_nodes, left, right))

    if not src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # A pair found via several shared cells appears once per cell: dedupe,
    # coming out sorted by (source, target) — the final CSR order.
    return sorted_unique_pairs(np.concatenate(src_parts), np.concatenate(dst_parts))


def _cross_pairs_fallback(node_bounds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All (source, target) cross pairs per consecutive snapshot pair."""
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    for position in range(len(node_bounds) - 2):
        a0, a1 = int(node_bounds[position]), int(node_bounds[position + 1])
        b0, b1 = a1, int(node_bounds[position + 2])
        if a1 == a0 or b1 == b0:
            continue
        src_parts.append(np.repeat(np.arange(a0, a1, dtype=np.int64), b1 - b0))
        dst_parts.append(np.tile(np.arange(b0, b1, dtype=np.int64), a1 - a0))
    if not src_parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return np.concatenate(src_parts), np.concatenate(dst_parts)


def _mbr_prefilter(
    coords: np.ndarray,
    offsets: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    delta: float,
) -> np.ndarray:
    """Keep pairs whose MBRs mutually fit the other's δ-expanded box.

    ``d_H(u, v) <= δ`` bounds *both* directed distances, so every point of
    ``u`` lies within δ of ``v``'s box and vice versa — a necessary
    condition checked with eight broadcast comparisons per pair.
    """
    mbrs = mbrs_of_segments(coords, offsets)
    m = delta * (1.0 + _SLACK)
    a, b = mbrs[src], mbrs[dst]
    return (
        (a[:, 0] >= b[:, 0] - m)
        & (a[:, 1] >= b[:, 1] - m)
        & (a[:, 2] <= b[:, 2] + m)
        & (a[:, 3] <= b[:, 3] + m)
        & (b[:, 0] >= a[:, 0] - m)
        & (b[:, 1] >= a[:, 1] - m)
        & (b[:, 2] <= a[:, 2] + m)
        & (b[:, 3] <= a[:, 3] + m)
    )


def _refine_pairs(
    coords: np.ndarray,
    offsets: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    delta: float,
    chunk_size: int,
) -> np.ndarray:
    """Exact thresholded-Hausdorff decision for the surviving pairs, chunked."""
    limit_sq = delta * delta
    sizes = np.diff(offsets)
    pair_work = sizes[src] * sizes[dst]
    within = np.empty(len(src), dtype=bool)
    for begin, end in pair_chunks(pair_work, chunk_size * 256):
        within[begin:end] = hausdorff_within_pairs(
            coords,
            offsets,
            coords,
            offsets,
            src[begin:end],
            dst[begin:end],
            limit_sq,
        )
    return within
