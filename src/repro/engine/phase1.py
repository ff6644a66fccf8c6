"""Whole-database batched phase-1 snapshot clustering.

The scalar phase 1 interpolates one ``{object_id: Point}`` snapshot dict
per timestamp, runs DBSCAN per snapshot, wraps every cluster into member
dicts — and the vectorized phases 2/3 then re-pack all of it into columnar
:class:`~repro.engine.frame.SnapshotFrame` arrays.  The batched path skips
the scalar object layer entirely:

1. :meth:`~repro.trajectory.trajectory.TrajectoryDatabase.positions_matrix`
   interpolates every object at every timestamp in one vectorized pass and
   lands the positions in a flat :class:`~repro.trajectory.trajectory.PositionArena`
   (rows grouped by timestamp, object-id sorted within each).
2. :func:`~repro.engine.dbscan.dbscan_numpy_batched` clusters the whole
   arena in a single sweep — the eps-grid bucket keys are offset per
   timestamp so neighbour pairs can never cross snapshots, one union-find
   labels every snapshot's components at once, and labels are renumbered
   per snapshot to stay identical to the scalar backend.
3. :func:`frames_from_arena` turns the ``(timestamp, object, label)``
   columns directly into :class:`~repro.engine.frame.SnapshotFrame` objects
   (zero-copy slices of the label-sorted arena) whose clusters are lazy
   :class:`~repro.engine.frame.FrameBackedCluster` views — the member-dict
   representation is only materialised if a downstream consumer (codec,
   store, HTTP serving) actually asks for it.

Timestamps are processed in blocks of ``snapshot_block`` snapshots, so peak
memory is bounded by the block's arena instead of the whole database.  Phase
2's proximity graph reads the member coordinates straight out of the frames
behind the resulting clusters, so it starts from the phase-1 arena without
re-packing anything.

Two scale axes ride on top of the block loop (see
:mod:`repro.engine.arena`): ``object_shards`` interpolates each block in
contiguous object-id groups and merges the partial arenas back (bounding
extraction memory, bit-identical by construction), and ``spill_dir``
switches the builder to out-of-core mode — every block's label-sorted
clustered rows are appended to an on-disk :class:`~repro.engine.arena.ArenaSpool`
and the frames become zero-copy slices of the finalised ``np.memmap``
columns, so phase 2 and the proximity-graph build stream the frame data
from disk instead of holding the whole clustered arena in RAM.
"""

from __future__ import annotations

import shutil
from typing import Dict, Optional, Sequence

import numpy as np

from ..clustering.snapshot import ClusterDatabase
from ..trajectory.trajectory import PositionArena, TrajectoryDatabase
from .arena import (
    ArenaSpool,
    SpillCorruptionError,
    build_arena_block,
    effective_snapshot_block,
    verify_arena_dir,
)
from .dbscan import dbscan_numpy_batched
from .frame import FrameBackedCluster, SnapshotFrame

__all__ = [
    "DEFAULT_SNAPSHOT_BLOCK",
    "frames_from_arena",
    "frames_from_columns",
    "extend_cluster_database",
    "build_cluster_database_batched",
]

#: Snapshots clustered per arena block; bounds peak memory at roughly
#: ``block * objects * (3 int64 + 2 float64)`` bytes plus the pair lists.
DEFAULT_SNAPSHOT_BLOCK = 256


def frames_from_arena(
    arena: PositionArena, labels: np.ndarray
) -> Dict[int, SnapshotFrame]:
    """Build one columnar frame per non-empty snapshot of a labelled arena.

    ``labels`` assigns every arena row its per-snapshot DBSCAN label (noise
    ``< 0``).  Rows are re-sorted once by ``(timestamp, label, object id)``
    — giving every frame the exact member order the scalar path produces —
    and each frame's coordinate/object-id columns are then contiguous
    *views* of that sorted arena, not copies.  Returns frames keyed by
    position in ``arena.timestamps``.
    """
    keep = labels >= 0
    ts = arena.ts_index[keep]
    if not len(ts):
        return {}
    object_ids = arena.object_ids[keep]
    coords = arena.coords[keep]
    labels = labels[keep]
    order = np.lexsort((object_ids, labels, ts))
    return frames_from_columns(
        arena.timestamps, ts[order], object_ids[order], coords[order], labels[order]
    )


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
    sweep, exactly like the scalar path).  Shared by the serial batched
    builder and the per-block multiprocessing path so the two can never
    diverge on these semantics.
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
    object_shards: int = 1,
    spill_dir: Optional[str] = None,
) -> ClusterDatabase:
    """Snapshot-cluster a whole trajectory database in columnar sweeps.

    Drop-in equivalent of
    :func:`repro.clustering.snapshot.build_cluster_database` with
    ``method="numpy"`` — same parameters, and a cluster database whose
    timestamps, cluster ids and member sets are identical to the scalar
    per-snapshot loop (property-tested) — but the snapshots of each
    ``snapshot_block`` are interpolated, clustered and framed as one arena,
    and the resulting clusters are lazy frame views.

    ``object_shards > 1`` interpolates every block in contiguous object-id
    groups merged back before clustering (bit-identical, bounded
    extraction memory; see :func:`repro.engine.arena.build_arena_block`).
    ``spill_dir`` switches to the out-of-core builder: blocks are sized to
    a row budget, each block's label-sorted clustered rows are appended to
    an on-disk spool, and the frames are built as zero-copy slices of the
    finalised ``np.memmap`` columns — mined answers stay bit-identical
    while peak memory is bounded by one block regardless of database size.
    """
    if snapshot_block < 1:
        raise ValueError("snapshot_block must be at least 1")
    if timestamps is None:
        timestamps = database.timestamps(step=time_step)
    timestamps = list(timestamps)

    if spill_dir is not None:
        return _build_cluster_database_spilled(
            database,
            timestamps,
            eps=eps,
            min_points=min_points,
            max_gap=max_gap,
            snapshot_block=snapshot_block,
            object_shards=object_shards,
            spill_dir=spill_dir,
        )

    cdb = ClusterDatabase()
    for block_start in range(0, len(timestamps), snapshot_block):
        block = timestamps[block_start : block_start + snapshot_block]
        arena = build_arena_block(
            database, block, max_gap=max_gap, object_shards=object_shards
        )
        labels = dbscan_numpy_batched(arena.coords, arena.offsets, eps, min_points)
        extend_cluster_database(cdb, block, frames_from_arena(arena, labels))
    return cdb


def _build_cluster_database_spilled(
    database: TrajectoryDatabase,
    timestamps: Sequence[float],
    eps: float,
    min_points: int,
    max_gap: Optional[float],
    snapshot_block: int,
    object_shards: int,
    spill_dir: str,
) -> ClusterDatabase:
    """Out-of-core batched phase 1: spool clustered rows, memmap the frames.

    Each snapshot block is interpolated and clustered in RAM exactly like
    the in-memory path, but instead of keeping the block's frames alive,
    the kept (clustered, label-sorted) rows are appended to an
    :class:`~repro.engine.arena.ArenaSpool` with their timestamp indices
    rebased to the global timestamp list.  Blocks cover disjoint ascending
    timestamp ranges, so the concatenated spool is globally sorted by
    ``(timestamp, label, object id)`` — the exact order
    :func:`frames_from_columns` needs — and the resulting frames are
    read-only memmap slices the OS pages in on demand.

    The spool build is crash-safe: a mid-build exception removes the
    partial ``arena-*`` directory (context-manager guarantee), and the
    finalised spill is checksum-verified before mining — a corrupted
    column triggers one deterministic rebuild instead of mining garbage.
    """
    block = effective_snapshot_block(database, snapshot_block)
    last_error: Optional[SpillCorruptionError] = None
    for _attempt in range(2):
        with ArenaSpool(spill_dir, with_labels=True) as spool:
            for block_start in range(0, len(timestamps), block):
                chunk = timestamps[block_start : block_start + block]
                arena = build_arena_block(
                    database, chunk, max_gap=max_gap, object_shards=object_shards
                )
                labels = dbscan_numpy_batched(
                    arena.coords, arena.offsets, eps, min_points
                )
                keep = labels >= 0
                ts = arena.ts_index[keep] + block_start
                object_ids = arena.object_ids[keep]
                coords = arena.coords[keep]
                kept_labels = labels[keep]
                order = np.lexsort((object_ids, kept_labels, ts))
                spool.append(
                    ts[order], object_ids[order], coords[order], kept_labels[order]
                )
            ts, object_ids, coords, labels = spool.finalize()
        try:
            verify_arena_dir(spool.directory)
        except SpillCorruptionError as error:
            last_error = error
            del ts, object_ids, coords, labels
            shutil.rmtree(spool.directory, ignore_errors=True)
            continue
        frames = frames_from_columns(timestamps, ts, object_ids, coords, labels)

        cdb = ClusterDatabase()
        extend_cluster_database(cdb, timestamps, frames)
        return cdb
    raise SpillCorruptionError(
        f"clustered-spill rebuild failed verification twice in {spill_dir!r}: "
        f"{last_error}"
    )
