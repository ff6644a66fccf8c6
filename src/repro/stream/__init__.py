"""Streaming gathering discovery: a durable service over raw point feeds.

The package wraps the incremental miners of Section III-C into a
production-shaped lifecycle — windowed ingestion, bounded-memory eviction
(Lemma 4), versioned checkpoint/restore and a batched replay driver.
See :mod:`repro.stream.service` for the semantics and
``docs/streaming.md`` for the operator-level guide.
"""

from .checkpoint import CHECKPOINT_FORMAT, CHECKPOINT_VERSION, CheckpointCorruptionError
from .driver import ReplayDriver, ReplayReport
from .service import (
    EVICTION_POLICIES,
    LATE_POLICIES,
    StreamingGatheringService,
    StreamPoint,
    StreamResult,
    StreamStats,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointCorruptionError",
    "EVICTION_POLICIES",
    "LATE_POLICIES",
    "ReplayDriver",
    "ReplayReport",
    "StreamingGatheringService",
    "StreamPoint",
    "StreamResult",
    "StreamStats",
]
