"""Temporal linear interpolation of trajectory samples.

The paper assumes trajectories with heterogeneous sampling rates and creates
"virtual points" by linear interpolation whenever an object has no sample at
a required time instant (Section II).  These helpers implement that model.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence, Tuple

from .point import Point

__all__ = ["interpolate_position"]

TimedPoint = Tuple[float, Point]


def interpolate_position(
    samples: Sequence[TimedPoint], t: float, max_gap: Optional[float] = None
) -> Optional[Point]:
    """Location of a trajectory at time ``t`` via linear interpolation.

    Parameters
    ----------
    samples:
        Chronologically sorted ``(time, Point)`` pairs.
    t:
        The query time.
    max_gap:
        If given, interpolation between two samples more than ``max_gap``
        apart returns ``None`` (the object is considered unobserved), which
        avoids inventing positions across long signal losses.

    Returns
    -------
    The interpolated :class:`Point`, or ``None`` when ``t`` lies outside the
    trajectory's lifespan or inside a gap longer than ``max_gap``.
    """
    if not samples:
        return None
    times = [s[0] for s in samples]
    if t < times[0] or t > times[-1]:
        return None
    idx = bisect_left(times, t)
    if idx < len(times) and times[idx] == t:
        return samples[idx][1]
    # t strictly between times[idx - 1] and times[idx]
    t0, p0 = samples[idx - 1]
    t1, p1 = samples[idx]
    if max_gap is not None and (t1 - t0) > max_gap:
        return None
    if t1 == t0:
        return p0
    ratio = (t - t0) / (t1 - t0)
    return Point(p0.x + ratio * (p1.x - p0.x), p0.y + ratio * (p1.y - p0.y))

