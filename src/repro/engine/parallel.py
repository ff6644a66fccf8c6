"""Multiprocessing over independent snapshots for phase-1 clustering.

Snapshot clustering (the first phase of the paper's framework, Section III
preliminaries / Definition 1) is embarrassingly parallel — each timestamp's
DBSCAN run is independent — so
:func:`repro.clustering.snapshot.build_cluster_database` fans the
snapshots out over a process pool when ``workers > 1``.  There are two job
shapes, one per backend:

* **Scalar methods** (``grid`` / ``naive``, the python backend) ship one
  snapshot per job through :func:`cluster_snapshots_pooled`: positions
  are extracted in the parent (trajectory interpolation is cheap) and only
  the per-snapshot position maps cross the process boundary.  Each worker
  process keeps one validated
  :class:`~repro.clustering.dbscan.DBSCANRunner` per parameter set, so
  parameter checks and grid-scratch allocation happen once per process,
  not once per snapshot.
* **The batched numpy method** ships one *timestamp block* per job (see
  :func:`repro.engine.phase1.build_cluster_database_batched`): the parent
  interpolates the block's arena from the full database, the worker
  labels it and returns its label-sorted clustered columns, and the parent
  lands them in RAM or in its own out-of-core spool.  Workers never write
  spill files, so ``workers`` and ``spill_dir`` compose: a pooled spilled
  run holds at most the in-flight window of blocks.

All fan-out goes through the supervised executor
(:func:`repro.resilience.supervisor.run_supervised`) rather than a bare
``multiprocessing.Pool``: a worker process dying mid-job or a stuck job
hitting its per-job timeout restarts the pool and re-runs exactly the
outstanding jobs (degrading to in-process serial execution if the pool
keeps dying), and results come back in payload order.  Every job is a pure
function of its payload, so results — and therefore mined patterns — are
bit-identical with or without crashes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..clustering.dbscan import DBSCANRunner
from ..clustering.snapshot import SnapshotCluster, cluster_snapshot
from ..geometry.point import Point
from ..resilience.supervisor import run_supervised
from ..trajectory.trajectory import TrajectoryDatabase

__all__ = ["cluster_snapshots_pooled"]

_Job = Tuple[float, Dict[int, Point], float, int, str]

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


def cluster_snapshots_pooled(
    database: TrajectoryDatabase,
    timestamps: Sequence[float],
    eps: float,
    min_points: int,
    max_gap: Optional[float],
    method: str,
    workers: int,
) -> Iterator[Tuple[float, List[SnapshotCluster]]]:
    """``(timestamp, clusters)`` per snapshot, clustered by a worker pool.

    The scalar methods' per-snapshot jobs, in timestamp order.  Positions
    are extracted lazily, as the supervised pool consumes the jobs.
    """
    jobs = (
        (t, database.snapshot(t, max_gap=max_gap), eps, min_points, method)
        for t in timestamps
    )
    return run_supervised(_cluster_one, jobs, workers=workers)
