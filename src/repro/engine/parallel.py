"""Multiprocessing over independent snapshots for phase-1 clustering.

Snapshot clustering (the first phase of the paper's framework, Section III
preliminaries / Definition 1) is embarrassingly parallel — each timestamp's
DBSCAN run is independent — so :func:`build_cluster_database_parallel` fans
the snapshots out over a process pool.

Two job shapes are used, matching the two phase-1 execution styles:

* **Scalar methods** (``grid`` / ``naive``) ship one snapshot per job:
  positions are extracted in the parent (trajectory interpolation is cheap)
  and only the per-snapshot position maps cross the process boundary.  Each
  worker process keeps one validated
  :class:`~repro.clustering.dbscan.DBSCANRunner` per parameter set, so
  parameter checks and grid-scratch allocation happen once per process,
  not once per snapshot.
* **The batched numpy method** ships one *timestamp block* per job: the
  parent extracts the block's columnar
  :class:`~repro.trajectory.trajectory.PositionArena` (vectorized
  interpolation), the worker clusters the whole block in one
  :func:`~repro.engine.dbscan.dbscan_numpy_batched` sweep and returns the
  built frames.  Blocks bound both the pickled payload and each worker's
  peak memory.

All fan-out goes through the supervised executor
(:func:`repro.resilience.supervisor.run_supervised`) rather than a bare
``multiprocessing.Pool``: a worker process dying mid-job or a stuck job
hitting its per-job timeout restarts the pool and re-runs exactly the
outstanding jobs (degrading to in-process serial execution if the pool
keeps dying).  Every job is a pure function of its payload, so results —
and therefore mined patterns — are bit-identical with or without crashes.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..clustering.dbscan import DBSCANRunner
from ..clustering.snapshot import (
    ClusterDatabase,
    SnapshotCluster,
    cluster_snapshot,
)
from ..geometry.point import Point
from ..resilience.supervisor import run_supervised
from ..trajectory.trajectory import PositionArena, TrajectoryDatabase

__all__ = ["build_cluster_database_parallel", "build_cluster_databases_sharded"]

_Job = Tuple[float, Dict[int, Point], float, int, str]

_BlockJob = Tuple[PositionArena, float, int]

_ShardJob = Tuple[
    TrajectoryDatabase, Tuple[float, ...], float, int, str, int, Optional[str]
]

#: Per-process cache of validated DBSCAN runners, keyed by parameter set.
_RUNNERS: Dict[Tuple[float, int, str], DBSCANRunner] = {}


def _runner_for(eps: float, min_points: int, method: str) -> DBSCANRunner:
    """The process-local reusable runner for one parameter set."""
    key = (eps, min_points, method)
    runner = _RUNNERS.get(key)
    if runner is None:
        runner = DBSCANRunner(eps=eps, min_points=min_points, method=method)
        _RUNNERS[key] = runner
    return runner


def _cluster_one(job: _Job) -> Tuple[float, List[SnapshotCluster]]:
    """Worker: cluster a single snapshot (module-level for pickling)."""
    timestamp, positions, eps, min_points, method = job
    return timestamp, cluster_snapshot(
        positions,
        timestamp=timestamp,
        eps=eps,
        min_points=min_points,
        runner=_runner_for(eps, min_points, method),
    )


def _cluster_block(job: _BlockJob):
    """Worker: batched-cluster one timestamp block's position arena."""
    arena, eps, min_points = job
    from .dbscan import dbscan_numpy_batched
    from .phase1 import frames_from_arena

    labels = dbscan_numpy_batched(arena.coords, arena.offsets, eps, min_points)
    return arena.timestamps, frames_from_arena(arena, labels)


def _parallel_batched(
    database: TrajectoryDatabase,
    timestamps: List[float],
    eps: float,
    min_points: int,
    max_gap: Optional[float],
    workers: int,
    object_shards: int = 1,
    spill_dir: Optional[str] = None,
    job_timeout: Optional[float] = None,
) -> ClusterDatabase:
    """Batched numpy phase 1 over a worker pool, one timestamp block per job.

    With ``spill_dir`` set the out-of-core serial builder runs instead of
    the pool: its whole point is bounding peak memory, and one process
    appending to one spool keeps the on-disk rows globally sorted —
    fanning blocks out to workers would reintroduce per-worker arenas and
    an out-of-order spool for no memory win.
    """
    from .phase1 import build_cluster_database_batched

    if spill_dir is not None or workers <= 1 or len(timestamps) < 2:
        return build_cluster_database_batched(
            database,
            timestamps=timestamps,
            eps=eps,
            min_points=min_points,
            max_gap=max_gap,
            object_shards=object_shards,
            spill_dir=spill_dir,
        )
    from .phase1 import DEFAULT_SNAPSHOT_BLOCK

    # Two blocks per worker balances stragglers without shrinking the
    # per-sweep batches too far — capped at the serial path's block size so
    # per-job arena memory (and the pickled payload) stays bounded by the
    # block, not the database length.
    block_size = min(
        max(1, -(-len(timestamps) // (workers * 2))), DEFAULT_SNAPSHOT_BLOCK
    )
    block_starts = range(0, len(timestamps), block_size)

    def jobs() -> Iterator[_BlockJob]:
        """Extract one block arena at a time, as the pool consumes them."""
        from .arena import build_arena_block

        for start in block_starts:
            arena = build_arena_block(
                database,
                timestamps[start : start + block_size],
                max_gap=max_gap,
                object_shards=object_shards,
            )
            yield (arena, eps, min_points)

    # The supervised executor consumes the lazy job generator through a
    # bounded in-flight window (~2 blocks per worker), so at most a handful
    # of block arenas are alive in the parent and interpolation overlaps
    # the workers' clustering, instead of materialising the whole
    # database's arena before the pool starts.
    results = run_supervised(
        _cluster_block,
        jobs(),
        workers=min(workers, len(block_starts)),
        job_timeout=job_timeout,
    )

    from .phase1 import extend_cluster_database

    cdb = ClusterDatabase()
    for block_timestamps, frames in results:
        extend_cluster_database(cdb, block_timestamps, frames)
    return cdb


def build_cluster_database_parallel(
    database: TrajectoryDatabase,
    timestamps: Optional[Sequence[float]] = None,
    eps: float = 200.0,
    min_points: int = 5,
    time_step: float = 1.0,
    max_gap: Optional[float] = None,
    method: str = "grid",
    workers: int = 2,
    object_shards: int = 1,
    spill_dir: Optional[str] = None,
    job_timeout: Optional[float] = None,
) -> ClusterDatabase:
    """Snapshot-cluster a trajectory database using a supervised worker pool.

    Mirrors :func:`repro.clustering.snapshot.build_cluster_database` exactly
    (same parameters, same output) but distributes the work over ``workers``
    processes — per-snapshot jobs for the scalar methods, per-block batched
    sweeps for ``method="numpy"``.  ``workers <= 1`` degrades to the serial
    path.  ``object_shards`` / ``spill_dir`` select the object-sharded and
    out-of-core arena paths of the batched method (``spill_dir`` forces the
    serial out-of-core builder; it raises on scalar methods, which have no
    arena to spill).  ``job_timeout`` bounds each pool job's wall clock
    (default from ``REPRO_JOB_TIMEOUT_SECONDS``); crashed or timed-out jobs
    are retried by the supervisor without changing the result.
    """
    if timestamps is None:
        timestamps = database.timestamps(step=time_step)
    timestamps = list(timestamps)
    if method == "numpy":
        return _parallel_batched(
            database,
            timestamps,
            eps,
            min_points,
            max_gap,
            workers,
            object_shards=object_shards,
            spill_dir=spill_dir,
            job_timeout=job_timeout,
        )
    if spill_dir is not None:
        raise ValueError(
            "spill_dir requires the batched numpy path (method='numpy'); "
            f"the scalar {method!r} method has no position arena to spill"
        )
    jobs: List[_Job] = [
        (t, database.snapshot(t, max_gap=max_gap), eps, min_points, method)
        for t in timestamps
    ]

    cdb = ClusterDatabase()
    if workers <= 1 or len(jobs) < 2:
        results = map(_cluster_one, jobs)
    else:
        results = run_supervised(
            _cluster_one, jobs, workers=workers, job_timeout=job_timeout
        )
    for timestamp, clusters in results:
        cdb.add_snapshot(timestamp, clusters)
    return cdb


def _cluster_shard(job: _ShardJob) -> ClusterDatabase:
    """Worker: snapshot-cluster one shard's timestamp range.

    The shard carries its own (overlap-padded) trajectory slice, so both the
    interpolation and the per-snapshot DBSCAN runs happen inside the worker
    process — unlike :func:`build_cluster_database_parallel`, which
    interpolates in the parent and ships positions.  With ``method="numpy"``
    the shard runs the batched whole-shard sweep
    (:func:`~repro.engine.phase1.build_cluster_database_batched`, via the
    ``build_cluster_database`` dispatch).
    """
    database, timestamps, eps, min_points, method, object_shards, spill_dir = job
    from ..clustering.snapshot import build_cluster_database

    return build_cluster_database(
        database,
        timestamps=list(timestamps),
        eps=eps,
        min_points=min_points,
        method=method,
        object_shards=object_shards,
        spill_dir=spill_dir,
    )


def _list_spill_entries(spill_dir: str) -> Set[str]:
    """Names of the ``arena-*`` entries currently present under ``spill_dir``."""
    try:
        return {e for e in os.listdir(spill_dir) if e.startswith("arena-")}
    except FileNotFoundError:
        return set()


def _reap_new_partial_spills(spill_dir: str, preexisting: Set[str]) -> None:
    """Remove manifest-less arena dirs created by this run's (dead) workers.

    A supervisor pool restart terminates sibling workers mid-spill, skipping
    their :class:`~repro.engine.arena.ArenaSpool` cleanup.  Once the
    supervised run has returned every worker is gone, so a manifest-less
    ``arena-*`` directory that was not there before the run is debris —
    every spill referenced by the results was finalized with a manifest.
    Entries that predate the run are left to the age-gated
    :func:`~repro.engine.arena.reap_orphaned_spills` sweep.
    """
    from .arena import SPILL_MANIFEST

    for entry in sorted(_list_spill_entries(spill_dir) - preexisting):
        path = os.path.join(spill_dir, entry)
        if not os.path.exists(os.path.join(path, SPILL_MANIFEST)):
            shutil.rmtree(path, ignore_errors=True)


def build_cluster_databases_sharded(
    database: TrajectoryDatabase,
    shard_timestamps: Sequence[Sequence[float]],
    eps: float = 200.0,
    min_points: int = 5,
    overlap: float = 0.0,
    method: str = "grid",
    workers: Optional[int] = None,
    object_shards: int = 1,
    spill_dir: Optional[str] = None,
    job_timeout: Optional[float] = None,
) -> List[ClusterDatabase]:
    """Phase-1 cluster each shard of a partitioned snapshot range in parallel.

    Parameters
    ----------
    database:
        The full trajectory database.  Each shard job receives only the
        time slice it needs (its timestamp range padded by ``overlap`` on
        both sides), which bounds what crosses the process boundary.
    shard_timestamps:
        One contiguous, sorted timestamp list per shard, in shard order.
    overlap:
        Slack (in time units) added around each shard's range when slicing
        trajectories, so boundary snapshots still see the neighbouring
        samples they need for interpolation.
    workers:
        Process count; defaults to one per shard.  ``1`` (or a single
        shard) degrades to in-process execution.
    object_shards:
        Second sharding axis, orthogonal to the snapshot shards: each
        shard interpolates its blocks in this many contiguous object-id
        groups (``method="numpy"``; merged back before clustering, so the
        shard's cluster database is unchanged — see
        :mod:`repro.engine.arena`).
    spill_dir:
        Out-of-core arena directory shared by all shards; every shard
        spools into its own unique ``arena-*`` subdirectory, so
        concurrent shard processes never collide.  Requires
        ``method="numpy"``.
    job_timeout:
        Per-shard-job wall-clock limit in seconds for the supervised pool
        (default from ``REPRO_JOB_TIMEOUT_SECONDS``); a timed-out or
        crashed shard job is retried without changing the result.

    Returns
    -------
    The shards' cluster databases, in shard order.  Concatenated in time
    order they are exactly the cluster database of an unsharded run — each
    timestamp is clustered by exactly one shard, from the same interpolated
    positions (given a sufficient ``overlap`` for the feed's sampling gaps).
    """
    jobs: List[_ShardJob] = []
    for timestamps in shard_timestamps:
        timestamps = list(timestamps)
        if not timestamps:
            continue
        sliced = database.slice_time(timestamps[0] - overlap, timestamps[-1] + overlap)
        jobs.append(
            (sliced, tuple(timestamps), eps, min_points, method, object_shards, spill_dir)
        )
    if not jobs:
        return []
    if workers is None:
        workers = len(jobs)
    if workers <= 1 or len(jobs) < 2:
        return [_cluster_shard(job) for job in jobs]
    preexisting = _list_spill_entries(spill_dir) if spill_dir is not None else set()
    results = run_supervised(
        _cluster_shard,
        jobs,
        workers=min(workers, len(jobs)),
        job_timeout=job_timeout,
    )
    if spill_dir is not None:
        _reap_new_partial_spills(spill_dir, preexisting)
    return results
