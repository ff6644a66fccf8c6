"""Execution backends and the configuration shared by every mining phase.

:class:`ExecutionConfig` carries the execution knobs — backend choice, the
row-chunk size bounding kernel memory, and an optional worker count for
multiprocessing phase-1 clustering over independent snapshots.  The
backend picks the implementation of each phase: the range-search schemes
live in :data:`repro.core.range_search.RANGE_SEARCHES` (the numpy backend
runs the proximity-graph sweep instead) and the gathering detectors come
from :func:`repro.core.gathering.make_detector`.

This module imports nothing from the mining layers, so any layer can
import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["BACKENDS", "ExecutionConfig"]

#: Known execution backends: the scalar reference first.
BACKENDS = ("python", "numpy")


@dataclass(frozen=True)
class ExecutionConfig:
    """Execution knobs shared by every phase of the mining pipeline.

    Attributes
    ----------
    backend:
        ``"numpy"`` selects the columnar vectorized kernels; ``"python"``
        selects the scalar reference implementations.
    chunk_size:
        Number of query rows per distance-matrix block in the vectorized
        kernels; bounds peak memory.
    workers:
        Worker processes for phase-1 snapshot clustering.  Snapshots are
        independent, so ``workers > 1`` clusters them in parallel (blocks
        of snapshots on the numpy backend, single snapshots on the python
        one); ``1`` keeps everything in-process.  Composes with
        ``object_shards`` and ``spill_dir``; answers are unchanged.
    object_shards:
        Contiguous object-id groups per phase-1 interpolation block
        (numpy backend).  Bounds the per-block extraction working set;
        mined answers are unchanged (the partial arenas are merged back
        before clustering — see :mod:`repro.engine.arena`).
    spill_dir:
        When set (numpy backend), phase 1 runs out-of-core: the clustered
        position arena is spooled under this directory and frames become
        read-only ``np.memmap`` slices, bounding peak RAM regardless of
        database size (with ``workers > 1`` the parent still owns the one
        spool; workers only label blocks).  ``None`` keeps everything in
        RAM.
    """

    backend: str = "numpy"
    chunk_size: int = 2048
    workers: int = 1
    object_shards: int = 1
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.object_shards < 1:
            raise ValueError("object_shards must be at least 1")
