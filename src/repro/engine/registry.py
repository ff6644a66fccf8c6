"""Execution backends and the configuration shared by every mining phase.

:class:`ExecutionConfig` carries the execution knobs — backend choice, the
phase-1 worker count and the optional out-of-core spill directory.  The
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
        selects the scalar reference implementations, which run serially
        in RAM as the parity oracle of the numpy backend (so ``workers``
        and ``spill_dir`` are rejected with it).
    workers:
        Worker processes for phase-1 snapshot clustering (numpy backend).
        Snapshots are independent, so ``workers > 1`` clusters blocks of
        them in parallel; ``1`` keeps everything in-process.  Composes
        with ``spill_dir``; answers are unchanged.
    spill_dir:
        When set (numpy backend), phase 1 runs out-of-core: the clustered
        position arena is spooled under this directory and frames become
        read-only ``np.memmap`` slices, bounding peak RAM regardless of
        database size (with ``workers > 1`` the parent still owns the one
        spool; workers only label blocks).  ``None`` keeps everything in
        RAM.
    """

    backend: str = "numpy"
    workers: int = 1
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.backend == "python" and (self.workers > 1 or self.spill_dir is not None):
            raise ValueError(
                "workers > 1 or a spill_dir needs the numpy backend; "
                "the python backend is the serial in-RAM reference"
            )
