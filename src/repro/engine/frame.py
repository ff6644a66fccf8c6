"""Columnar snapshot storage for the mining engine.

A :class:`SnapshotFrame` holds every snapshot cluster (Definition 1 of the
paper) of one timestamp as contiguous NumPy arrays — one ``(n, 2)``
coordinate block plus CSR offsets delimiting the clusters — together with an
aligned object-id column.  Batched phase 1
(:mod:`repro.engine.phase1`) builds the frames straight from its clustered
arena, and the clusters of the resulting database are lazy
:class:`FrameBackedCluster` views over them, so the proximity graph of
phase 2 reads member coordinates without any
per-:class:`~repro.geometry.point.Point` object graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..clustering.snapshot import SnapshotCluster
from ..geometry.mbr import MBR
from ..geometry.point import Point
from .kernels import mbrs_of_segments

__all__ = ["SnapshotFrame", "FrameBackedCluster"]


class FrameBackedCluster(SnapshotCluster):
    """A :class:`SnapshotCluster` that is a lazy view over a frame segment.

    The batched phase-1 path labels the whole trajectory database in one
    columnar sweep and lands the results directly in
    :class:`SnapshotFrame` arrays; these clusters wrap one CSR segment of
    such a frame.  Everything the mining hot paths ask of a cluster —
    ``len()``, membership ids, bounding box, the ``(timestamp, id)`` key —
    is answered straight from the columnar data; the ``{object_id: Point}``
    member dict of the scalar representation is only materialised if a
    caller actually reads :attr:`members` (codecs, stores, HTTP serving).
    """

    __slots__ = ("_frame", "_index")

    def __init__(self, frame: "SnapshotFrame", index: int) -> None:
        # Deliberately skips SnapshotCluster.__init__: a frame segment is
        # non-empty by construction and members stay unmaterialised.
        self.timestamp = frame.timestamp
        self.cluster_id = int(frame.cluster_ids[index])
        self._members = None
        self._ids = None
        self._frame = frame
        self._index = index

    # -- lazy materialisation --------------------------------------------------
    @property
    def members(self) -> Dict[int, Point]:
        """The member map, built on first access (ascending object id)."""
        if self._members is None:
            start, end = self._frame.segment(self._index)
            coords = self._frame.coords
            self._members = {
                int(oid): Point(float(coords[row, 0]), float(coords[row, 1]))
                for row, oid in enumerate(
                    self._frame.object_ids[start:end].tolist(), start
                )
            }
        return self._members

    # -- columnar fast paths ---------------------------------------------------
    def segment(self) -> Tuple["SnapshotFrame", int]:
        """The backing frame and this cluster's segment index within it."""
        return self._frame, self._index

    def __len__(self) -> int:
        start, end = self._frame.segment(self._index)
        return end - start

    def object_ids(self) -> frozenset:
        """Member object ids, read from the frame columns (cached)."""
        if self._ids is None:
            start, end = self._frame.segment(self._index)
            self._ids = frozenset(self._frame.object_ids[start:end].tolist())
        return self._ids

    def __contains__(self, object_id: int) -> bool:
        return object_id in self.object_ids()

    @property
    def mbr(self) -> MBR:
        """Bounding box, served from the frame's cached per-cluster MBRs."""
        box = self._frame.mbrs()[self._index]
        return MBR(float(box[0]), float(box[1]), float(box[2]), float(box[3]))


@dataclass
class SnapshotFrame:
    """Columnar view of the snapshot clusters of one timestamp.

    Attributes
    ----------
    timestamp:
        The snapshot's time instant.
    coords:
        ``(n, 2)`` float64 member coordinates, clusters stored back to back.
    object_ids:
        ``(n,)`` int64 object ids aligned with ``coords`` rows.
    offsets:
        ``(k + 1,)`` int64 CSR boundaries: cluster ``i`` owns rows
        ``offsets[i]:offsets[i + 1]``.
    cluster_ids:
        ``(k,)`` int64 per-snapshot cluster ids.
    clusters:
        The :class:`FrameBackedCluster` views of the segments, in order.
    """

    timestamp: float
    coords: np.ndarray
    object_ids: np.ndarray
    offsets: np.ndarray
    cluster_ids: np.ndarray
    clusters: Tuple[SnapshotCluster, ...] = ()
    _mbrs: Optional[np.ndarray] = field(default=None, repr=False)

    # -- per-cluster views -----------------------------------------------------
    def segment(self, index: int) -> Tuple[int, int]:
        """The ``[start, end)`` coordinate rows of one cluster."""
        return int(self.offsets[index]), int(self.offsets[index + 1])

    def cluster_coords(self, index: int) -> np.ndarray:
        """Coordinate block view of one cluster."""
        start, end = self.segment(index)
        return self.coords[start:end]

    # -- derived geometry (cached) ---------------------------------------------
    def mbrs(self) -> np.ndarray:
        """Per-cluster bounding boxes as a ``(k, 4)`` array."""
        if self._mbrs is None:
            self._mbrs = mbrs_of_segments(self.coords, self.offsets)
        return self._mbrs
