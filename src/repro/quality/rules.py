"""Reason codes and record-level validation rules.

Every rejected or repaired record is tagged with exactly one *reason code*
from the vocabulary below; the :class:`~repro.quality.report.IngestReport`
aggregates per-code counts, and the quarantine sink stores the code next to
the raw record so a dead-letter file explains itself.

The rules themselves run as columnar passes in
:mod:`repro.quality.pipeline`; this module holds what they share with the
per-point streaming gate: the vocabulary, the parse-stage record and the
speed-gate distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "REASONS",
    "SCHEMA",
    "PARSE",
    "NON_FINITE",
    "OUT_OF_BOUNDS",
    "DUPLICATE_TIMESTAMP",
    "NON_MONOTONE",
    "TELEPORT",
    "TOO_FEW_SAMPLES",
    "RawRecord",
    "travel_distance",
]

#: The input could not be decomposed into fields at all (wrong column
#: count, missing JSON keys, truncated header, …).
SCHEMA = "schema"
#: Fields were present but one failed to parse (bad number, bad date).
PARSE = "parse"
#: A coordinate or timestamp is NaN or infinite.
NON_FINITE = "non_finite"
#: A coordinate lies outside the configured bounding box.
OUT_OF_BOUNDS = "out_of_bounds"
#: A second record for the same ``(object, timestamp)`` pair.
DUPLICATE_TIMESTAMP = "duplicate_timestamp"
#: A record whose timestamp runs backwards within its object's sequence.
NON_MONOTONE = "non_monotone"
#: The implied speed from the previous accepted fix exceeds the gate.
TELEPORT = "teleport"
#: The object ended the load with fewer accepted samples than required.
TOO_FEW_SAMPLES = "too_few_samples"

#: Every reason code, in severity/pipeline order.
REASONS = (
    SCHEMA,
    PARSE,
    NON_FINITE,
    OUT_OF_BOUNDS,
    DUPLICATE_TIMESTAMP,
    NON_MONOTONE,
    TELEPORT,
    TOO_FEW_SAMPLES,
)


@dataclass(frozen=True)
class RawRecord:
    """One input record exactly as the parse stage saw it.

    A format reader produces one :class:`RawRecord` per accounting unit
    (one text line for CSV / T-Drive / GeoLife, one sample triple — or one
    unparseable line — for JSONL).  A record either parsed fully
    (``error is None`` and all fields set) or failed the parse stage
    (``error`` is :data:`SCHEMA` or :data:`PARSE` and the numeric fields
    are ``None``); either way ``raw`` preserves the original text so the
    record can be quarantined and replayed verbatim.
    """

    index: int
    raw: str
    object_id: Optional[int] = None
    t: Optional[float] = None
    x: Optional[float] = None
    y: Optional[float] = None
    error: Optional[str] = None

    def is_parsed(self) -> bool:
        """Whether the parse stage produced all four fields."""
        return (
            self.error is None
            and self.object_id is not None
            and self.t is not None
            and self.x is not None
            and self.y is not None
        )


def travel_distance(
    x0: float, y0: float, x1: float, y1: float, metric: str
) -> float:
    """Distance between two fixes under the configured metric.

    ``"euclidean"`` treats coordinates as planar units (synthetic CSV /
    JSONL traces); ``"haversine"`` treats them as ``(longitude, latitude)``
    degrees and returns metres (the T-Drive / GeoLife readers, whose
    timestamps are epoch seconds during validation — so the speed gate is
    in m/s there).
    """
    if metric == "haversine":
        # Imported lazily: the trajectory package's IO layer imports this
        # package, so a module-level import would be order-sensitive.
        from ..trajectory.geo import haversine_distance

        return haversine_distance(lat1=y0, lon1=x0, lat2=y1, lon2=x1)
    return math.hypot(x1 - x0, y1 - y0)
