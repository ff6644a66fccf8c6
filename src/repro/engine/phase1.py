"""Whole-database batched phase-1 snapshot clustering.

The scalar phase 1 interpolates one ``{object_id: Point}`` snapshot dict
per timestamp, runs DBSCAN per snapshot, wraps every cluster into member
dicts — and the vectorized phases 2/3 then re-pack all of it into columnar
:class:`~repro.engine.frame.SnapshotFrame` arrays.  The batched path skips
the scalar object layer entirely, one block of timestamps at a time:

1. :meth:`~repro.trajectory.trajectory.TrajectoryDatabase.positions_matrix`
   interpolates every object at every timestamp of the block in one
   vectorized pass and lands the positions in a flat
   :class:`~repro.trajectory.trajectory.PositionArena` (rows grouped by
   timestamp, object-id sorted within each).
2. :func:`~repro.engine.dbscan.dbscan_numpy_batched` clusters the whole
   block in a single sweep — the eps-grid bucket keys are offset per
   timestamp so neighbour pairs can never cross snapshots, one union-find
   labels every snapshot's components at once, and labels are renumbered
   per snapshot to stay identical to the scalar backend.  The clustered
   rows are then sorted by ``(timestamp, label, object id)``.
3. :func:`frames_from_columns` turns those columns directly into
   :class:`~repro.engine.frame.SnapshotFrame` objects (zero-copy slices of
   the sorted columns) whose clusters are lazy
   :class:`~repro.engine.frame.FrameBackedCluster` views — the member-dict
   representation is only materialised if a downstream consumer (codec,
   store, HTTP serving) actually asks for it.

:func:`build_cluster_database_batched` is the one executor around these
steps.  Blocks bound peak memory; step 2 runs in-process or on a
supervised worker pool (``workers``); the columns land either in RAM or,
with ``spill_dir``, in an on-disk :class:`~repro.engine.arena.ArenaSpool`
whose ``np.memmap`` columns back the frames, so phase 2 and the
proximity-graph build stream the frame data from disk.  Every combination
gives the same answer.
"""

from __future__ import annotations

import shutil
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..clustering.snapshot import ClusterDatabase
from ..resilience.supervisor import run_supervised
from ..trajectory.trajectory import PositionArena, TrajectoryDatabase
from .arena import (
    ArenaSpool,
    SpillCorruptionError,
    effective_snapshot_block,
    verify_arena_dir,
)
from .dbscan import dbscan_numpy_batched
from .frame import FrameBackedCluster, SnapshotFrame

__all__ = [
    "DEFAULT_SNAPSHOT_BLOCK",
    "frames_from_columns",
    "extend_cluster_database",
    "build_cluster_database_batched",
]

_BlockJob = Tuple[PositionArena, float, int]

#: Clustered rows of one arena: ``(ts_index, object_ids, coords, labels)``.
_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: Snapshots clustered per arena block; bounds peak memory at roughly
#: ``block * objects * (3 int64 + 2 float64)`` bytes plus the pair lists.
DEFAULT_SNAPSHOT_BLOCK = 256


def _clustered_columns(arena: PositionArena, labels: np.ndarray) -> _Columns:
    """A labelled arena's clustered rows, sorted the way frames need them.

    Drops noise rows (``labels < 0``) and re-sorts the rest once by
    ``(timestamp, label, object id)`` — the exact member order the scalar
    path produces.  Returns ``(ts_index, object_ids, coords, labels)``.
    """
    keep = labels >= 0
    ts = arena.ts_index[keep]
    object_ids = arena.object_ids[keep]
    coords = arena.coords[keep]
    labels = labels[keep]
    order = np.lexsort((object_ids, labels, ts))
    return ts[order], object_ids[order], coords[order], labels[order]


def _cluster_block(job: _BlockJob) -> _Columns:
    """Label one block arena and return its clustered columns.

    Module-level so the supervised pool can pickle it; a pure function of
    its payload, so a retried block returns the same columns.
    """
    arena, eps, min_points = job
    labels = dbscan_numpy_batched(arena.coords, arena.offsets, eps, min_points)
    return _clustered_columns(arena, labels)


def frames_from_columns(
    timestamps: Sequence[float],
    ts: np.ndarray,
    object_ids: np.ndarray,
    coords: np.ndarray,
    labels: np.ndarray,
) -> Dict[int, SnapshotFrame]:
    """Build frames over already label-sorted clustered arena columns.

    The columns hold only clustered rows (noise dropped), sorted by
    ``(timestamp position, label, object id)`` with ``ts`` indexing into
    ``timestamps``.  Each frame's coordinate/object-id arrays are
    contiguous slices of the inputs — when the columns are ``np.memmap``
    views of a spilled arena (the out-of-core builder), the frames stay
    disk-backed and rows are only paged in as phase 2 touches them.
    Returns frames keyed by position in ``timestamps``.
    """
    frames: Dict[int, SnapshotFrame] = {}
    if not len(ts):
        return frames

    snapshot_bounds = np.searchsorted(
        ts, np.arange(len(timestamps) + 1, dtype=np.int64), side="left"
    )
    cluster_starts = np.flatnonzero(
        np.concatenate(([True], (ts[1:] != ts[:-1]) | (labels[1:] != labels[:-1])))
    )
    for position, timestamp in enumerate(timestamps):
        begin, end = int(snapshot_bounds[position]), int(snapshot_bounds[position + 1])
        if begin == end:
            continue
        lo = int(np.searchsorted(cluster_starts, begin, side="left"))
        hi = int(np.searchsorted(cluster_starts, end, side="left"))
        offsets = np.empty(hi - lo + 1, dtype=np.int64)
        offsets[:-1] = cluster_starts[lo:hi] - begin
        offsets[-1] = end - begin
        frame = SnapshotFrame(
            timestamp=float(timestamp),
            coords=coords[begin:end],
            object_ids=object_ids[begin:end],
            offsets=offsets,
            cluster_ids=labels[cluster_starts[lo:hi]].copy(),
        )
        frame.clusters = tuple(
            FrameBackedCluster(frame, index) for index in range(hi - lo)
        )
        frames[position] = frame
    return frames


def extend_cluster_database(
    cdb: ClusterDatabase,
    timestamps: Sequence[float],
    frames: Dict[int, SnapshotFrame],
) -> None:
    """Land one block's frames into a cluster database.

    Timestamps without a frame become *empty* snapshots (they still count
    toward ``snapshot_count`` and still close crowd candidates during the
    sweep, exactly like the scalar path).
    """
    for position, timestamp in enumerate(timestamps):
        frame = frames.get(position)
        if frame is None:
            cdb.add_snapshot(timestamp, [])
        else:
            cdb.add_snapshot(timestamp, frame.clusters)


def build_cluster_database_batched(
    database: TrajectoryDatabase,
    timestamps: Optional[Sequence[float]] = None,
    eps: float = 200.0,
    min_points: int = 5,
    time_step: float = 1.0,
    max_gap: Optional[float] = None,
    snapshot_block: int = DEFAULT_SNAPSHOT_BLOCK,
    spill_dir: Optional[str] = None,
    workers: int = 1,
) -> ClusterDatabase:
    """Snapshot-cluster a whole trajectory database in columnar sweeps.

    Drop-in equivalent of
    :func:`repro.clustering.snapshot.build_cluster_database` with
    ``method="numpy"`` — same parameters, and a cluster database whose
    timestamps, cluster ids and member sets are identical to the scalar
    per-snapshot loop (property-tested) — but the snapshots of each block
    are interpolated, clustered and framed as one arena, and the resulting
    clusters are lazy frame views.

    This is the numpy backend's one phase-1 executor.  The parent walks
    timestamp blocks and interpolates each from the full database (so a
    sampling gap of any length is bridged exactly);
    :func:`_cluster_block` labels the block and returns its label-sorted
    clustered columns — in-process when ``workers == 1``, otherwise in a
    supervised pool of ``workers`` processes that hands the blocks back in
    order.  One sink consumes the columns:

    * in RAM, each block's columns become frames of the cluster database;
    * with ``spill_dir``, they are appended to one parent-owned
      :class:`~repro.engine.arena.ArenaSpool`, which is checksum-verified
      (a failure rebuilds once, then raises
      :class:`~repro.engine.arena.SpillCorruptionError`) and the frames
      become zero-copy slices of its ``np.memmap`` columns, so peak memory
      is bounded by the blocks in flight regardless of database size.

    Block sizes: ``snapshot_block`` in RAM; with ``spill_dir`` also capped
    by the arena row budget
    (:func:`~repro.engine.arena.effective_snapshot_block`); with
    ``workers > 1`` also capped at two blocks per worker.
    """
    if snapshot_block < 1:
        raise ValueError("snapshot_block must be at least 1")
    if timestamps is None:
        timestamps = database.timestamps(step=time_step)
    timestamps = list(timestamps)
    block = snapshot_block
    if spill_dir is not None:
        block = effective_snapshot_block(database, snapshot_block)
    if workers > 1:
        # Two blocks per worker balances stragglers without shrinking the
        # per-sweep batches too far.
        block = min(block, max(1, -(-len(timestamps) // (workers * 2))))

    def clustered_blocks() -> Iterator[Tuple[int, _Columns]]:
        """``(block start, clustered columns)`` per block, in time order."""
        starts = range(0, len(timestamps), block)
        # Lazy: each block is interpolated only as the executor takes it.
        jobs = (
            (
                database.positions_matrix(
                    timestamps[start : start + block], max_gap=max_gap
                ),
                eps,
                min_points,
            )
            for start in starts
        )
        if workers > 1 and len(starts) > 1:
            results = run_supervised(
                _cluster_block, jobs, workers=min(workers, len(starts))
            )
        else:
            results = map(_cluster_block, jobs)
        return zip(starts, results)

    if spill_dir is None:
        cdb = ClusterDatabase()
        for start, columns in clustered_blocks():
            chunk = timestamps[start : start + block]
            extend_cluster_database(cdb, chunk, frames_from_columns(chunk, *columns))
        return cdb

    last_error: Optional[SpillCorruptionError] = None
    for _attempt in range(2):
        with ArenaSpool(spill_dir, with_labels=True) as spool:
            for start, (ts, object_ids, coords, labels) in clustered_blocks():
                # Blocks cover disjoint ascending timestamp ranges, so the
                # rebased rows keep the spool globally label-sorted.
                spool.append(ts + start, object_ids, coords, labels)
            columns = spool.finalize()
        try:
            verify_arena_dir(spool.directory)
        except SpillCorruptionError as error:
            # Clustering is deterministic, so a failed checksum means the
            # bytes were damaged on the way to disk: rebuild once rather
            # than mining garbage.
            last_error = error
            del columns
            shutil.rmtree(spool.directory, ignore_errors=True)
            continue
        cdb = ClusterDatabase()
        extend_cluster_database(
            cdb, timestamps, frames_from_columns(timestamps, *columns)
        )
        return cdb
    raise SpillCorruptionError(
        f"clustered-spill rebuild failed verification twice in {spill_dir!r}: "
        f"{last_error}"
    )
