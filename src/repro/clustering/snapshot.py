"""Snapshot clusters and the snapshot-clustering phase.

A *snapshot cluster* (Definition 1) is a maximal set of objects whose
positions at one timestamp are density-connected.  This module defines the
:class:`SnapshotCluster` record, the per-timestamp cluster set, the cluster
database ``C_DB`` and the clustering driver that turns a
:class:`~repro.trajectory.TrajectoryDatabase` into a cluster database.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..geometry.hausdorff import hausdorff, hausdorff_within
from ..geometry.mbr import MBR, mbr_of_points
from ..geometry.point import Point, centroid
from ..trajectory.trajectory import TrajectoryDatabase
from .dbscan import NOISE, DBSCANRunner, dbscan

__all__ = [
    "SnapshotCluster",
    "ClusterDatabase",
    "cluster_snapshot",
    "build_cluster_database",
]


class SnapshotCluster:
    """A density-based cluster of object positions at one timestamp.

    Historically a frozen dataclass holding an eager ``{object_id: Point}``
    map; now a plain immutable-by-convention class so the columnar engine
    can subclass it with a *lazy* view over a
    :class:`~repro.engine.frame.SnapshotFrame` segment
    (:class:`~repro.engine.frame.FrameBackedCluster`): the batched phase-1
    path then never materialises a member dict unless a caller actually
    asks for one.  Equality, hashing and the constructor signature are
    unchanged.

    Attributes
    ----------
    timestamp:
        The time instant the cluster was observed at.
    members:
        Mapping from object id to that object's position at ``timestamp``.
    cluster_id:
        Index of the cluster within its timestamp (stable but arbitrary).
    """

    __slots__ = ("timestamp", "cluster_id", "_members", "_ids")

    def __init__(
        self, timestamp: float, members: Dict[int, Point], cluster_id: int = 0
    ) -> None:
        if not members:
            raise ValueError("a snapshot cluster must contain at least one object")
        self.timestamp = timestamp
        self.cluster_id = cluster_id
        self._members = members
        self._ids: Optional[frozenset] = None

    @property
    def members(self) -> Dict[int, Point]:
        """Mapping from object id to position (insertion order preserved)."""
        return self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SnapshotCluster):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.cluster_id == other.cluster_id
            and self.members == other.members
        )

    def __hash__(self) -> int:
        # Hash on the identity plus membership ids (no Point values), which
        # matches the historical frozenset-of-dict-keys hash exactly.
        return hash((self.timestamp, self.cluster_id, self.object_ids()))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(timestamp={self.timestamp!r}, "
            f"cluster_id={self.cluster_id!r}, size={len(self)})"
        )

    # -- membership ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self.members

    def object_ids(self) -> frozenset:
        if self._ids is None:
            self._ids = frozenset(self.members)
        return self._ids

    def points(self) -> List[Point]:
        return list(self.members.values())

    # -- geometry -------------------------------------------------------------
    @property
    def mbr(self) -> MBR:
        return mbr_of_points(self.members.values())

    @property
    def center(self) -> Point:
        return centroid(list(self.members.values()))

    def hausdorff_to(self, other: "SnapshotCluster") -> float:
        """Exact Hausdorff distance to another cluster."""
        return hausdorff(self.points(), other.points())

    def within_hausdorff(self, other: "SnapshotCluster", threshold: float) -> bool:
        """Early-abandoning check ``d_H(self, other) <= threshold``."""
        return hausdorff_within(self.points(), other.points(), threshold)

    def key(self) -> Tuple[float, int]:
        """A hashable identity ``(timestamp, cluster_id)``."""
        return (self.timestamp, self.cluster_id)


class ClusterDatabase:
    """The snapshot-cluster database ``C_DB = {C_t1, ..., C_tn}``.

    Clusters are grouped per timestamp; timestamps are kept sorted so that
    crowd discovery can sweep them in temporal order.
    """

    def __init__(self) -> None:
        self._by_time: Dict[float, List[SnapshotCluster]] = {}

    def __len__(self) -> int:
        return sum(len(clusters) for clusters in self._by_time.values())

    def __iter__(self) -> Iterator[SnapshotCluster]:
        for t in self.timestamps():
            yield from self._by_time[t]

    def add(self, cluster: SnapshotCluster) -> None:
        self._by_time.setdefault(cluster.timestamp, []).append(cluster)

    def add_snapshot(self, timestamp: float, clusters: Iterable[SnapshotCluster]) -> None:
        """Register the full cluster set of one timestamp."""
        bucket = self._by_time.setdefault(timestamp, [])
        bucket.extend(clusters)

    def timestamps(self) -> List[float]:
        return sorted(self._by_time)

    def clusters_at(self, timestamp: float) -> List[SnapshotCluster]:
        return list(self._by_time.get(timestamp, []))

    def snapshot_count(self) -> int:
        return len(self._by_time)

    def slice_time(self, t_start: float, t_end: float) -> "ClusterDatabase":
        """Cluster database restricted to ``t_start <= t <= t_end``."""
        sliced = ClusterDatabase()
        for t in self.timestamps():
            if t_start <= t <= t_end:
                sliced.add_snapshot(t, self._by_time[t])
        return sliced

    def merge(self, other: "ClusterDatabase") -> None:
        """Append another cluster database (e.g. a new data batch)."""
        for t in other.timestamps():
            self.add_snapshot(t, other.clusters_at(t))


def cluster_snapshot(
    positions: Dict[int, Point],
    timestamp: float,
    eps: float,
    min_points: int,
    method: str = "grid",
    runner: Optional["DBSCANRunner"] = None,
) -> List[SnapshotCluster]:
    """Run DBSCAN on one snapshot and wrap the result into cluster records.

    Noise points are discarded — they belong to no snapshot cluster.
    ``runner`` supplies a pre-validated :class:`~repro.clustering.dbscan.DBSCANRunner`
    (parameters checked once, grid scratch reused), which per-database
    drivers pass so the per-snapshot loop does no repeated validation work.
    """
    if not positions:
        return []
    object_ids = sorted(positions)
    coords = [(positions[oid].x, positions[oid].y) for oid in object_ids]
    if runner is not None:
        labels = runner(coords)
    else:
        labels = dbscan(coords, eps=eps, min_points=min_points, method=method)

    grouped: Dict[int, Dict[int, Point]] = {}
    for oid, label in zip(object_ids, labels):
        if label == NOISE:
            continue
        grouped.setdefault(label, {})[oid] = positions[oid]

    clusters = []
    for cluster_id, members in sorted(grouped.items()):
        clusters.append(
            SnapshotCluster(timestamp=timestamp, members=members, cluster_id=cluster_id)
        )
    return clusters


def build_cluster_database(
    database: TrajectoryDatabase,
    timestamps: Optional[Sequence[float]] = None,
    eps: float = 200.0,
    min_points: int = 5,
    time_step: float = 1.0,
    max_gap: Optional[float] = None,
    method: str = "grid",
    object_shards: int = 1,
    spill_dir: Optional[str] = None,
    workers: int = 1,
) -> ClusterDatabase:
    """Snapshot-cluster a whole trajectory database.

    Parameters
    ----------
    database:
        The moving-object database.
    timestamps:
        Explicit time instants to cluster at.  Defaults to the discretised
        time domain of the database with granularity ``time_step``.
    eps, min_points:
        DBSCAN parameters (the paper uses ``eps=200 m``, ``min_points=5``).
    max_gap:
        Maximum sampling gap to interpolate across (``None`` = no limit).
    method:
        Neighbour-search backend passed to :func:`repro.clustering.dbscan`.
        ``"numpy"`` dispatches to the batched whole-database path
        (:func:`repro.engine.phase1.build_cluster_database_batched`): one
        columnar sweep per block of snapshots, label-identical to the
        per-snapshot loop.
    object_shards:
        Object-axis interpolation groups for the batched path (results
        unchanged; bounds extraction memory).  The scalar methods
        interpolate one snapshot dict at a time, where the knob is
        meaningless — it is accepted and ignored so callers can pass one
        execution config to either backend.
    spill_dir:
        Out-of-core spill directory for the batched path; requires
        ``method="numpy"`` (the scalar per-snapshot loop has no arena to
        spill, so a spill request on it is a configuration error).
    workers:
        Worker processes (``1`` keeps everything in-process).  The batched
        path clusters one block of snapshots per job; the scalar methods
        one snapshot per job (:mod:`repro.engine.parallel`).  Results are
        identical either way.
    """
    if method == "numpy":
        from ..engine.phase1 import build_cluster_database_batched

        return build_cluster_database_batched(
            database,
            timestamps=timestamps,
            eps=eps,
            min_points=min_points,
            time_step=time_step,
            max_gap=max_gap,
            object_shards=object_shards,
            spill_dir=spill_dir,
            workers=workers,
        )
    if spill_dir is not None:
        raise ValueError(
            "spill_dir requires the batched numpy path (method='numpy'); "
            f"the scalar {method!r} method has no position arena to spill"
        )
    if timestamps is None:
        timestamps = database.timestamps(step=time_step)
    timestamps = list(timestamps)
    cdb = ClusterDatabase()
    if workers > 1 and len(timestamps) > 1:
        from ..engine.parallel import cluster_snapshots_pooled

        for t, clusters in cluster_snapshots_pooled(
            database, timestamps, eps, min_points, max_gap, method, workers
        ):
            cdb.add_snapshot(t, clusters)
        return cdb
    runner = DBSCANRunner(eps=eps, min_points=min_points, method=method)
    for t in timestamps:
        positions = database.snapshot(t, max_gap=max_gap)
        clusters = cluster_snapshot(
            positions, timestamp=t, eps=eps, min_points=min_points, runner=runner
        )
        cdb.add_snapshot(t, clusters)
    return cdb
