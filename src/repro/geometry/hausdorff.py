"""Hausdorff distance between point sets.

The crowd definition (Definition 2) bounds the Hausdorff distance between
consecutive snapshot clusters by the variation threshold ``delta``.  Because
crowd discovery evaluates an enormous number of cluster pairs, three
implementations are provided:

* :func:`hausdorff_naive` — the textbook double loop, used as the reference
  in tests and ablations.
* :func:`hausdorff` — numpy-vectorised exact distance.
* :func:`hausdorff_within` — thresholded decision procedure with early
  abandoning; it answers *"is d_H(P, Q) <= delta?"* without always computing
  the exact value, which is all Algorithm 1 needs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..engine.kernels import directed_within as _directed_within_kernel
from .point import Point, points_to_array

__all__ = [
    "hausdorff",
    "hausdorff_naive",
    "hausdorff_within",
]


def _as_array(points) -> np.ndarray:
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("point array must have shape (n, 2)")
        return arr
    pts = list(points)
    if pts and isinstance(pts[0], Point):
        return points_to_array(pts)
    return np.asarray(pts, dtype=float).reshape(-1, 2)


def hausdorff(p, q) -> float:
    """Exact (symmetric) Hausdorff distance between two point sets."""
    parr = _as_array(p)
    qarr = _as_array(q)
    if parr.size == 0 or qarr.size == 0:
        raise ValueError("Hausdorff distance of an empty point set is undefined")
    diffs = parr[:, None, :] - qarr[None, :, :]
    dists = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    forward = dists.min(axis=1).max()
    backward = dists.min(axis=0).max()
    return float(max(forward, backward))


def hausdorff_naive(p: Sequence[Point], q: Sequence[Point]) -> float:
    """Pure-Python reference implementation (quadratic double loop)."""
    p = list(p)
    q = list(q)
    if not p or not q:
        raise ValueError("Hausdorff distance of an empty point set is undefined")

    def directed(src, dst):
        worst = 0.0
        for a in src:
            best = math.inf
            for b in dst:
                d = math.hypot(a[0] - b[0], a[1] - b[1])
                if d < best:
                    best = d
                    if best == 0.0:
                        break
            if best > worst:
                worst = best
        return worst

    def _coords(pts):
        return [(pt.x, pt.y) if isinstance(pt, Point) else (pt[0], pt[1]) for pt in pts]

    pc = _coords(p)
    qc = _coords(q)
    return max(directed(pc, qc), directed(qc, pc))


def hausdorff_within(p, q, threshold: float) -> bool:
    """Decide whether ``d_H(P, Q) <= threshold`` with early abandoning.

    The directed distances are evaluated block-wise by the vectorized
    :func:`repro.engine.kernels.directed_within` kernel; a block containing a
    point whose nearest neighbour in the other set is farther than
    ``threshold`` answers ``False`` and abandons the remaining blocks.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    parr = _as_array(p)
    qarr = _as_array(q)
    if parr.size == 0 or qarr.size == 0:
        raise ValueError("Hausdorff distance of an empty point set is undefined")
    limit_sq = threshold * threshold
    return _directed_within_kernel(parr, qarr, limit_sq) and _directed_within_kernel(
        qarr, parr, limit_sq
    )
