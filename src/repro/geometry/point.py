"""Planar point primitives used throughout the library.

The paper works with timestamped locations in the Euclidean plane.  All
higher-level structures (snapshot clusters, crowds, gatherings) are ultimately
sets or sequences of these points, so the primitives here are intentionally
small, immutable, and cheap to hash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "Point",
    "points_to_array",
    "centroid",
]


@dataclass(frozen=True, order=True)
class Point:
    """An immutable 2-D point.

    Attributes
    ----------
    x, y:
        Planar coordinates.  The library is agnostic about the unit; the
        paper (and our synthetic generator) uses metres in a projected plane.
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance to ``other`` (avoids the sqrt)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def translate(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)`` as a plain tuple."""
        return (self.x, self.y)

    def __iter__(self):
        yield self.x
        yield self.y


def points_to_array(points: Iterable[Point]) -> np.ndarray:
    """Convert an iterable of :class:`Point` to an ``(n, 2)`` float array."""
    pts = list(points)
    if not pts:
        return np.empty((0, 2), dtype=float)
    return np.array([(p.x, p.y) for p in pts], dtype=float)


def centroid(points: Sequence[Point]) -> Point:
    """Arithmetic mean of a non-empty point sequence."""
    if not points:
        raise ValueError("centroid of an empty point set is undefined")
    sx = sum(p.x for p in points)
    sy = sum(p.y for p in points)
    n = len(points)
    return Point(sx / n, sy / n)
