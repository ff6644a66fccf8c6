"""Replay driver for point feeds.

:class:`ReplayDriver` pulls a feed (any iterable of ``(object_id, t, x, y)``
fixes in arrival order) through a :class:`StreamingGatheringService` in
bounded batches, so the driver-side working set stays one batch however
long the feed is.  Each closed window still flows through the engine's
batched kernels (one clustering / range-search pass per window, not one
per point).

The driver also owns the checkpoint cadence: with ``checkpoint_every`` set
it writes a checkpoint after every N closed windows, which is what the
``repro stream`` CLI exposes as ``--checkpoint-every``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Optional, Union

from .service import PointLike, StreamingGatheringService, StreamResult

__all__ = ["ReplayReport", "ReplayDriver"]


@dataclass
class ReplayReport:
    """Outcome of one feed replay."""

    result: StreamResult
    points: int
    elapsed_seconds: float
    checkpoints_written: int

    @property
    def points_per_second(self) -> float:
        """Ingest throughput over the whole replay (0 for an empty feed)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.points / self.elapsed_seconds


class ReplayDriver:
    """Drive a point feed through a streaming service in bounded batches.

    Parameters
    ----------
    service:
        The target :class:`StreamingGatheringService`.
    batch_size:
        Fixes ingested per batch; bounds the driver-side working set.
    checkpoint_path:
        Where to write checkpoints (required when ``checkpoint_every`` set).
    checkpoint_every:
        Write a checkpoint each time this many new windows have closed.
    checkpoint_keep:
        Rotated previous checkpoints kept next to ``checkpoint_path``
        (restore falls back to them when the primary is corrupted).
    """

    def __init__(
        self,
        service: StreamingGatheringService,
        batch_size: int = 2048,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_keep: int = 1,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be at least 1")
            if checkpoint_path is None:
                raise ValueError("checkpoint_every requires a checkpoint_path")
        if checkpoint_keep < 0:
            raise ValueError("checkpoint_keep must be non-negative")
        self.service = service
        self.batch_size = int(batch_size)
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.checkpoint_keep = int(checkpoint_keep)

    def replay(self, feed: Iterable[PointLike], finish: bool = True) -> ReplayReport:
        """Ingest the whole feed; optionally flush the final partial window.

        With ``finish=False`` the service is left open (e.g. to checkpoint
        once more and hand off to another process); the report then covers
        only what has been folded so far.
        """
        service = self.service
        iterator = iter(feed)
        points = 0
        checkpoints = 0
        windows_at_last_checkpoint = service.stats.windows_closed
        started = time.perf_counter()

        while True:
            batch = list(islice(iterator, self.batch_size))
            if not batch:
                break
            service.ingest_many(batch)
            points += len(batch)
            if (
                self.checkpoint_every is not None
                and service.stats.windows_closed - windows_at_last_checkpoint
                >= self.checkpoint_every
            ):
                service.checkpoint(self.checkpoint_path, keep=self.checkpoint_keep)
                windows_at_last_checkpoint = service.stats.windows_closed
                checkpoints += 1

        result = service.finish() if finish else service.results()
        elapsed = time.perf_counter() - started
        return ReplayReport(
            result=result,
            points=points,
            elapsed_seconds=elapsed,
            checkpoints_written=checkpoints,
        )
