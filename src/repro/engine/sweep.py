"""Arena-based crowd sweep — the vectorized phase-2 path.

:func:`sweep_crowds_frontier` re-runs Algorithm 1 (closed-crowd discovery)
over a precomputed proximity graph.  The full cluster-to-cluster proximity
graph of consecutive snapshots is built by
:func:`~repro.engine.proximity.build_proximity_graph`, so at each timestamp
the live candidate frontier extends with a *single* CSR ``indptr`` gather:
no range-search objects, no per-``(timestamp, last_cluster)`` memo
dictionaries, no per-timestamp index caches at all.  Candidates carried in
from a previous incremental batch (Lemma 4) end at clusters foreign to the
graph; they are bridged at the first processed snapshot with one exact
Hausdorff decision per distinct carried cluster.

Candidates live as rows of an append-only arena (parent row, appended
cluster, lifetime) instead of per-object :class:`~repro.core.crowd.Crowd`
tuples: extending a candidate is an O(1) row append rather than an
O(lifetime) tuple copy, and full cluster sequences are only materialised
when a candidate closes or the sweep ends.

Timestamps whose snapshot has no cluster meeting the support threshold are
skipped without touching the geometry at all: every live candidate either
closes (Lemma 1) or dies, and nothing can start.

The sweep is a pure re-ordering of the reference loop's work, so its output
— closed crowds, open candidates, and their order — is identical to the
scalar path's; the parity suites assert this label-for-label.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clustering.snapshot import SnapshotCluster
from ..core.crowd import Crowd
from .kernels import gather_ranges, hausdorff_within_many
from .proximity import ProximityGraph, cluster_coordinates

__all__ = ["sweep_crowds_frontier"]


class _CandidateArena:
    """Append-only arena of crowd-candidate rows.

    Row ``r`` represents the candidate obtained by appending ``cluster[r]``
    to the candidate of row ``parent[r]`` (``-1`` for none).  A row carried
    over from a previous incremental batch stores its full prefix crowd in
    :attr:`bases` instead of a cluster chain.  :attr:`last_node` holds each
    row's last graph node id (``-1`` for a carried-in base, whose cluster is
    foreign to the graph).
    """

    __slots__ = ("parent", "cluster", "length", "last_node", "bases")

    def __init__(self) -> None:
        self.parent: List[int] = []
        self.cluster: List[Optional[SnapshotCluster]] = []
        self.length: List[int] = []
        self.last_node: List[int] = []
        self.bases: Dict[int, Crowd] = {}

    def add_base(self, crowd: Crowd) -> int:
        """Root row for a candidate carried in from a previous batch."""
        row = self._add(-1, None, crowd.lifetime, -1)
        self.bases[row] = crowd
        return row

    def add_start(self, cluster: SnapshotCluster, node: int) -> int:
        """Root row for a fresh single-cluster candidate at graph ``node``."""
        return self._add(-1, cluster, 1, node)

    def extend(self, row: int, cluster: SnapshotCluster, node: int) -> int:
        """Child row: the candidate of ``row`` extended by one cluster."""
        return self._add(row, cluster, self.length[row] + 1, node)

    def _add(
        self, parent: int, cluster: Optional[SnapshotCluster], length: int, node: int
    ) -> int:
        row = len(self.parent)
        self.parent.append(parent)
        self.cluster.append(cluster)
        self.length.append(length)
        self.last_node.append(node)
        return row

    def materialize(self, row: int) -> Crowd:
        """Rebuild the candidate's full cluster sequence from the row chain."""
        chain: List[SnapshotCluster] = []
        while row != -1:
            cluster = self.cluster[row]
            if cluster is None:
                # Carried-in root: splice the prefix crowd in front.
                return Crowd(self.bases[row].clusters + tuple(reversed(chain)))
            chain.append(cluster)
            row = self.parent[row]
        return Crowd(tuple(reversed(chain)))


def sweep_crowds_frontier(
    graph: ProximityGraph,
    params,
    initial_candidates: Optional[Sequence[Crowd]] = None,
):
    """Run the Algorithm 1 sweep as frontier propagation over a proximity graph.

    ``graph`` must cover exactly the timestamps to process (the caller
    filters ``start_after`` before building it); ``initial_candidates`` are
    the open candidates carried over from a previous incremental batch
    (Lemma 4).  Returns the same
    :class:`~repro.core.crowd_discovery.CrowdDiscoveryResult` as the scalar
    reference loop, label-for-label and in the same order: a node's CSR
    successors are ascending, i.e. in the successor snapshot's cluster
    order — the order the reference's range searches report matches in.
    """
    from ..core.crowd_discovery import CrowdDiscoveryResult

    arena = _CandidateArena()
    closed: List[Crowd] = []
    current: List[int] = []
    for candidate in initial_candidates or ():
        # Carried-in candidates end at clusters of the *previous* batch,
        # which are not graph nodes: mark them with the -1 sentinel and
        # bridge them at the first processed snapshot.
        current.append(arena.add_base(candidate))

    kc = params.kc
    clusters_of = graph.clusters
    node_bounds = graph.node_bounds
    indptr = graph.indptr
    indices = graph.indices
    last_nodes = arena.last_node
    lengths = arena.length
    last_processed: Optional[float] = None

    for position, t in enumerate(graph.timestamps):
        last_processed = t
        begin = int(node_bounds[position])
        end = int(node_bounds[position + 1])
        if begin == end:
            # No eligible cluster here: close the long candidates, drop the
            # rest — the graph holds no nodes (hence no edges) to extend to.
            for row in current:
                if lengths[row] >= kc:
                    closed.append(arena.materialize(row))
            current = []
            continue

        appended = bytearray(end - begin)
        next_rows: List[int] = []
        if current:
            # One gather per timestamp: every live row's successor list is a
            # slice of the CSR indices at its last node.
            nodes = np.asarray([last_nodes[row] for row in current], dtype=np.int64)
            resident = nodes >= 0
            if resident.any():
                starts = indptr[nodes[resident]]
                ends = indptr[nodes[resident] + 1]
                flat = gather_ranges(indices, starts, ends).tolist()
                counts = (ends - starts).tolist()
            else:
                flat, counts = [], []
            base_matches = (
                None
                if bool(resident.all())
                else _bridge_base_rows(arena, current, graph, position)
            )
            cursor = 0
            slot = 0
            for row, node in zip(current, nodes.tolist()):
                if node >= 0:
                    width = counts[slot]
                    slot += 1
                    matches = flat[cursor : cursor + width]
                    cursor += width
                else:
                    matches = base_matches[row]
                if matches:
                    for successor in matches:
                        appended[successor - begin] = 1
                        next_rows.append(
                            arena.extend(row, clusters_of[successor], successor)
                        )
                elif lengths[row] >= kc:
                    closed.append(arena.materialize(row))

        for node in range(begin, end):
            if not appended[node - begin]:
                next_rows.append(arena.add_start(clusters_of[node], node))
        current = next_rows

    if last_processed is None and initial_candidates:
        # Nothing new was processed; keep the caller's candidates untouched.
        open_candidates = list(initial_candidates)
    else:
        open_candidates = [arena.materialize(row) for row in current]
    for row, candidate in zip(current, open_candidates):
        if lengths[row] >= kc:
            closed.append(candidate)

    return CrowdDiscoveryResult(
        closed_crowds=closed,
        open_candidates=open_candidates,
        last_timestamp=last_processed,
        proximity_seconds=graph.build_seconds,
    )


def _bridge_base_rows(
    arena: _CandidateArena,
    rows: Sequence[int],
    graph: ProximityGraph,
    position: int,
) -> Dict[int, List[int]]:
    """Graph successors of carried-in candidates at the first processed snapshot.

    Base rows end at clusters of a previous batch, so the graph holds no
    edges for them; their extensions are decided here with the same exact
    thresholded-Hausdorff kernel the graph build uses, against the CSR
    coordinate block of ``position``'s nodes — once per *distinct* carried
    last cluster (branching candidates share them).  Returns each base
    row's matching node ids, ascending (snapshot cluster order).
    """
    sub_coords, sub_offsets = graph.position_block(position)
    begin, _ = graph.nodes_at(position)
    per_cluster: Dict[Tuple[float, int], List[int]] = {}
    matches: Dict[int, List[int]] = {}
    for row in rows:
        if arena.last_node[row] != -1:
            continue
        cluster = arena.bases[row].clusters[-1]
        key = cluster.key()
        found = per_cluster.get(key)
        if found is None:
            within = hausdorff_within_many(
                cluster_coordinates(cluster),
                sub_coords,
                sub_offsets,
                graph.delta,
                graph.chunk_size,
            )
            found = [begin + int(node) for node in np.flatnonzero(within)]
            per_cluster[key] = found
        matches[row] = found
    return matches
