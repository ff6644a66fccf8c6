"""Trajectory and trajectory-database models.

The paper's object database ``O_DB`` is a set of trajectories, each a finite
sequence of timestamped locations possibly with different lengths and
sampling rates.  :class:`Trajectory` stores one object's samples;
:class:`TrajectoryDatabase` stores a fleet and can answer "where was every
object at time t?" — the operation the snapshot-clustering phase needs —
using the linear-interpolation model of Section II.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.interpolation import interpolate_position
from ..geometry.point import Point

__all__ = ["Trajectory", "TrajectoryDatabase", "PositionArena"]


@dataclass
class PositionArena:
    """Columnar snapshot positions of a whole database at once.

    The batched phase-1 path clusters every snapshot in one sweep, so it
    needs "where was every object at every timestamp?" as flat arrays
    rather than one ``{object_id: Point}`` dict per timestamp.  Rows are
    grouped by timestamp (ascending) and sorted by object id within each
    timestamp — the same member order the scalar
    :func:`~repro.clustering.snapshot.cluster_snapshot` iterates in.

    Attributes
    ----------
    timestamps:
        The queried time instants, in query order.
    ts_index:
        ``(n,)`` int64 — per row, the index into :attr:`timestamps`.
    object_ids:
        ``(n,)`` int64 object ids.
    coords:
        ``(n, 2)`` float64 interpolated positions (bit-identical to the
        scalar :meth:`Trajectory.position_at` virtual points).
    offsets:
        ``(len(timestamps) + 1,)`` int64 CSR boundaries: timestamp ``i``
        owns rows ``offsets[i]:offsets[i + 1]``.
    """

    timestamps: Tuple[float, ...]
    ts_index: np.ndarray
    object_ids: np.ndarray
    coords: np.ndarray
    offsets: np.ndarray

    @property
    def point_count(self) -> int:
        """Total (timestamp, object) position rows in the arena."""
        return len(self.coords)

    def snapshot_rows(self, index: int) -> Tuple[int, int]:
        """The ``[start, end)`` rows of one timestamp."""
        return int(self.offsets[index]), int(self.offsets[index + 1])


class Trajectory:
    """A single moving object's trajectory.

    A trajectory holds its samples in one of two forms and converts on
    demand: a list of ``(time, Point)`` pairs (:attr:`samples`, what the
    scalar paths and incremental appends use) or one ``(n, 3)`` float64
    ``(t, x, y)`` array (:meth:`sample_triples`, what the numpy phase-1
    path reads).  A trajectory built by :meth:`from_array` — every load
    through the ingest firewall — keeps only the array until something
    asks for :attr:`samples`, so the numpy path never creates a
    :class:`~repro.geometry.point.Point`.

    Attributes
    ----------
    object_id:
        Stable identifier of the moving object (e.g. a taxi id).
    samples:
        Chronologically sorted ``(time, Point)`` pairs.
    """

    def __init__(
        self, object_id: int, samples: Optional[Iterable[Tuple[float, Point]]] = None
    ) -> None:
        self.object_id = object_id
        #: The ``(time, Point)`` list; ``None`` while only the array exists.
        self._samples: Optional[List[Tuple[float, Point]]] = sorted(
            samples or (), key=lambda s: s[0]
        )
        #: The ``(n, 3)`` array; a cache of :attr:`_samples` when that is
        #: set (rebuilt when the sample count changes), else the only copy.
        self._triples: Optional[np.ndarray] = None

    @classmethod
    def from_array(cls, object_id: int, triples: np.ndarray) -> "Trajectory":
        """Wrap an ``(n, 3)`` ``(t, x, y)`` array already sorted by time."""
        trajectory = cls.__new__(cls)
        trajectory.object_id = object_id
        trajectory._samples = None
        trajectory._triples = triples
        return trajectory

    @property
    def samples(self) -> List[Tuple[float, Point]]:
        """Chronologically sorted ``(time, Point)`` pairs (built on first use)."""
        if self._samples is None:
            self._samples = [
                (t, Point(x, y)) for t, x, y in self._triples.tolist()
            ]
        return self._samples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.object_id == other.object_id and self.samples == other.samples

    def __repr__(self) -> str:
        return f"Trajectory(object_id={self.object_id!r}, samples={self.samples!r})"

    # -- construction -------------------------------------------------------
    def add_sample(self, t: float, point: Point) -> None:
        """Append a sample, keeping the sequence sorted by time."""
        samples = self._samples
        if samples is None:
            samples = self.samples
        # The cached array goes stale; sample_triples() sees the new length.
        if samples and t >= samples[-1][0]:
            samples.append((t, point))
        else:
            samples.append((t, point))
            samples.sort(key=lambda s: s[0])

    @classmethod
    def from_coordinates(
        cls, object_id: int, coords: Iterable[Tuple[float, float, float]]
    ) -> "Trajectory":
        """Build a trajectory from ``(t, x, y)`` triples."""
        samples = [(float(t), Point(float(x), float(y))) for t, x, y in coords]
        return cls(object_id=object_id, samples=samples)

    # -- basic properties ---------------------------------------------------
    def __len__(self) -> int:
        samples = self._samples
        return len(self._triples) if samples is None else len(samples)

    def __iter__(self) -> Iterator[Tuple[float, Point]]:
        return iter(self.samples)

    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def start_time(self) -> float:
        samples = self._samples
        if samples:
            return samples[0][0]
        if samples is None and len(self._triples):
            return float(self._triples[0, 0])
        raise ValueError("empty trajectory has no start time")

    @property
    def end_time(self) -> float:
        samples = self._samples
        if samples:
            return samples[-1][0]
        if samples is None and len(self._triples):
            return float(self._triples[-1, 0])
        raise ValueError("empty trajectory has no end time")

    @property
    def lifespan(self) -> Tuple[float, float]:
        """The closed time interval ``[t_first, t_last]`` covered by samples."""
        return (self.start_time, self.end_time)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def timestamps(self) -> List[float]:
        if self._samples is None:
            return self._triples[:, 0].tolist()
        return [t for t, _ in self._samples]

    def points(self) -> List[Point]:
        return [p for _, p in self.samples]

    def sample_triples(self) -> "np.ndarray":
        """The samples as one ``(n, 3)`` float64 ``(t, x, y)`` array.

        Cached and rebuilt whenever the sample count changes, so repeated
        vectorized snapshot extractions (the batched phase-1 path) do not
        re-convert unchanged trajectories.
        """
        cached = self._triples
        samples = self._samples
        if cached is None or (samples is not None and len(cached) != len(samples)):
            cached = np.asarray(
                [(t, p.x, p.y) for t, p in samples], dtype=float
            ).reshape(-1, 3)
            self._triples = cached
        return cached

    # -- queries ------------------------------------------------------------
    def position_at(self, t: float, max_gap: Optional[float] = None) -> Optional[Point]:
        """Location at time ``t`` using linear interpolation (virtual points)."""
        return interpolate_position(self.samples, t, max_gap=max_gap)

    def length(self) -> float:
        """Total travelled path length."""
        total = 0.0
        for (_, a), (_, b) in zip(self.samples, self.samples[1:]):
            total += a.distance_to(b)
        return total

    def average_speed(self) -> float:
        """Average speed over the lifespan; 0 for degenerate trajectories."""
        if len(self.samples) < 2 or self.duration == 0:
            return 0.0
        return self.length() / self.duration

    def slice_time(self, t_start: float, t_end: float) -> "Trajectory":
        """Return the sub-trajectory with samples in ``[t_start, t_end]``."""
        if t_start > t_end:
            raise ValueError("t_start must not exceed t_end")
        subset = [(t, p) for t, p in self.samples if t_start <= t <= t_end]
        return Trajectory(object_id=self.object_id, samples=subset)

    def resample(self, timestamps: Sequence[float], max_gap: Optional[float] = None) -> "Trajectory":
        """Resample this trajectory at the given timestamps (dropping gaps)."""
        samples = []
        for t in timestamps:
            p = self.position_at(t, max_gap=max_gap)
            if p is not None:
                samples.append((t, p))
        return Trajectory(object_id=self.object_id, samples=samples)


class TrajectoryDatabase:
    """The moving-object database ``O_DB``.

    Stores :class:`Trajectory` objects indexed by object id and provides the
    snapshot view needed by per-timestamp clustering.
    """

    def __init__(self, trajectories: Optional[Iterable[Trajectory]] = None) -> None:
        self._trajectories: Dict[int, Trajectory] = {}
        if trajectories:
            for traj in trajectories:
                self.add(traj)

    @classmethod
    def from_columns(
        cls, object_ids: np.ndarray, t: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> "TrajectoryDatabase":
        """Build a database from one sample per row, without creating points.

        Equivalent to calling :meth:`add_sample` row by row: objects appear
        in order of their first row, and each object's samples are sorted by
        time, stably (equal times keep row order).  Every trajectory keeps
        its samples as one ``(n, 3)`` array (:meth:`Trajectory.from_array`).
        """
        database = cls()
        if not len(object_ids):
            return database
        ids, first, code = np.unique(object_ids, return_index=True, return_inverse=True)
        # Rank objects by first appearance, then sort rows by (rank, t, row).
        appearance = np.argsort(first, kind="stable")
        rank = np.empty_like(appearance)
        rank[appearance] = np.arange(len(ids))
        row_rank = rank[code.ravel()]
        order = np.lexsort((t, row_rank))
        triples = np.stack((t[order], x[order], y[order]), axis=1)
        bounds = np.searchsorted(row_rank[order], np.arange(len(ids) + 1)).tolist()
        id_list = ids.tolist()
        for position, index in enumerate(appearance.tolist()):
            object_id = id_list[index]
            database._trajectories[object_id] = Trajectory.from_array(
                object_id, triples[bounds[position] : bounds[position + 1]]
            )
        return database

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._trajectories)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self._trajectories.values())

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._trajectories

    def __getitem__(self, object_id: int) -> Trajectory:
        return self._trajectories[object_id]

    # -- mutation -------------------------------------------------------------
    def add(self, trajectory: Trajectory) -> None:
        """Add a trajectory; samples are merged if the object already exists."""
        existing = self._trajectories.get(trajectory.object_id)
        if existing is None:
            self._trajectories[trajectory.object_id] = trajectory
        else:
            merged = existing.samples + trajectory.samples
            self._trajectories[trajectory.object_id] = Trajectory(
                object_id=trajectory.object_id, samples=merged
            )

    def add_sample(self, object_id: int, t: float, point: Point) -> None:
        """Append a single sample for an object, creating it if needed."""
        traj = self._trajectories.get(object_id)
        if traj is None:
            self._trajectories[object_id] = Trajectory(object_id, [(t, point)])
        else:
            traj.add_sample(t, point)

    def extend(self, other: "TrajectoryDatabase") -> None:
        """Merge another database (e.g. a new batch of arrivals) into this one."""
        for traj in other:
            self.add(traj)

    # -- views ----------------------------------------------------------------
    def object_ids(self) -> List[int]:
        return sorted(self._trajectories)

    def subset_objects(self, object_ids: Iterable[int]) -> "TrajectoryDatabase":
        """Database restricted to the given object ids (trajectories shared).

        Unknown ids are ignored.  The returned database references the same
        :class:`Trajectory` objects (no sample copying), so it is cheap to
        build one per object shard.
        """
        subset = TrajectoryDatabase()
        for object_id in object_ids:
            trajectory = self._trajectories.get(object_id)
            if trajectory is not None:
                subset._trajectories[object_id] = trajectory
        return subset

    def time_domain(self) -> Tuple[float, float]:
        """The overall ``[min_t, max_t]`` across all trajectories."""
        if not self._trajectories:
            raise ValueError("time domain of an empty database is undefined")
        starts = [t.start_time for t in self._trajectories.values() if not t.is_empty()]
        ends = [t.end_time for t in self._trajectories.values() if not t.is_empty()]
        if not starts:
            raise ValueError("time domain of an empty database is undefined")
        return (min(starts), max(ends))

    def timestamps(self, step: float = 1.0) -> List[float]:
        """Discretised time domain ``T_DB`` with the given granularity."""
        if step <= 0:
            raise ValueError("step must be positive")
        t0, t1 = self.time_domain()
        count = int(math.floor((t1 - t0) / step)) + 1
        return [t0 + i * step for i in range(count)]

    def snapshot(
        self, t: float, max_gap: Optional[float] = None
    ) -> Dict[int, Point]:
        """Positions of every object observed (or interpolated) at time ``t``."""
        positions: Dict[int, Point] = {}
        for object_id, traj in self._trajectories.items():
            p = traj.position_at(t, max_gap=max_gap)
            if p is not None:
                positions[object_id] = p
        return positions

    def positions_matrix(
        self,
        timestamps: Optional[Sequence[float]] = None,
        max_gap: Optional[float] = None,
        time_step: float = 1.0,
    ) -> PositionArena:
        """Every object's position at every timestamp, as one columnar arena.

        Vectorized equivalent of calling :meth:`snapshot` per timestamp: for
        each object the sample times are searched once for *all* query
        instants (``searchsorted``) and the virtual points are produced with
        the same linear-interpolation arithmetic as
        :func:`~repro.geometry.interpolation.interpolate_position`, so the
        coordinates are bit-identical to the scalar path — without creating
        a single :class:`~repro.geometry.point.Point` object.

        Parameters
        ----------
        timestamps:
            Explicit time instants; defaults to the discretised time domain
            with granularity ``time_step``.
        max_gap:
            Maximum sampling gap to interpolate across (``None`` = no limit).
        """
        if timestamps is None:
            timestamps = self.timestamps(step=time_step)
        t_arr = np.asarray(list(timestamps), dtype=float)
        m = len(t_arr)

        tracks: List[Tuple[int, "np.ndarray"]] = []
        if m:
            t_min = float(t_arr.min())
            t_max = float(t_arr.max())
            for object_id in sorted(self._trajectories):
                triples = self._trajectories[object_id].sample_triples()
                if not len(triples):
                    continue
                # Only the samples bracketing the query window matter; the
                # slice keeps one sample at or before t_min and one at or
                # after t_max, so every in-window interpolation (and the
                # outside-lifespan test) sees exactly the samples the
                # unsliced search would.  This keeps the per-call sort
                # proportional to the window, not the whole history, when
                # the batched builder walks a long database block by block.
                times = triples[:, 0]
                lo = max(int(np.searchsorted(times, t_min, side="left")) - 1, 0)
                hi = min(int(np.searchsorted(times, t_max, side="right")) + 1, len(times))
                window = triples[lo:hi]
                if len(window):
                    tracks.append((object_id, window))
        if not tracks or m == 0:
            return PositionArena(
                timestamps=tuple(float(t) for t in t_arr),
                ts_index=np.empty(0, dtype=np.int64),
                object_ids=np.empty(0, dtype=np.int64),
                coords=np.empty((0, 2), dtype=float),
                offsets=np.zeros(m + 1, dtype=np.int64),
            )
        n_objects = len(tracks)
        lengths = np.asarray([len(track) for _, track in tracks], dtype=np.int64)
        starts = np.zeros(n_objects, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        flat = np.concatenate([track for _, track in tracks])
        times_flat = flat[:, 0]

        # Every object's bracketing-sample search runs as ONE searchsorted:
        # sample times and query times are replaced by their rank in the
        # merged unique-time axis (rank equality <=> float equality), and an
        # object-major composite integer key makes the concatenated sample
        # ranks globally sorted.
        unique_times = np.unique(np.concatenate((times_flat, t_arr)))
        stride = np.int64(len(unique_times) + 1)
        sample_rank = np.searchsorted(unique_times, times_flat)
        query_rank = np.searchsorted(unique_times, t_arr)
        object_of_sample = np.repeat(np.arange(n_objects, dtype=np.int64), lengths)
        sample_keys = object_of_sample * stride + sample_rank
        query_keys = (
            np.arange(n_objects, dtype=np.int64)[:, None] * stride
            + query_rank[None, :]
        ).ravel()
        idx = np.searchsorted(sample_keys, query_keys, side="left")

        # Per (object, query): local bracketing index and the inside mask.
        first_rank = sample_rank[starts]
        last_rank = sample_rank[starts + lengths - 1]
        ranks_2d = np.broadcast_to(query_rank[None, :], (n_objects, m))
        inside = (ranks_2d >= first_rank[:, None]) & (ranks_2d <= last_rank[:, None])
        inside = inside.ravel()
        safe_idx = np.minimum(idx, np.repeat(starts + lengths, m) - 1)
        exact = inside & (sample_keys[safe_idx] == query_keys)
        interp = np.flatnonzero(inside & ~exact)
        if max_gap is not None and interp.size:
            # Mirrors the scalar rule: a gap wider than max_gap means the
            # object is unobserved at t, not interpolated.
            gaps = times_flat[idx[interp]] - times_flat[idx[interp] - 1]
            interp = interp[gaps <= max_gap]

        x = np.empty(n_objects * m, dtype=float)
        y = np.empty(n_objects * m, dtype=float)
        present = np.zeros(n_objects * m, dtype=bool)
        exact_rows = np.flatnonzero(exact)
        present[exact_rows] = True
        x[exact_rows] = flat[safe_idx[exact_rows], 1]
        y[exact_rows] = flat[safe_idx[exact_rows], 2]
        if interp.size:
            present[interp] = True
            # t is strictly between two distinct sample times of the same
            # object here, so the denominator is never zero; the expression
            # matches interpolate_position() operation for operation.
            i1 = idx[interp]
            i0 = i1 - 1
            t0 = times_flat[i0]
            queried_t = np.broadcast_to(t_arr[None, :], (n_objects, m)).ravel()
            ratio = (queried_t[interp] - t0) / (times_flat[i1] - t0)
            x[interp] = flat[i0, 1] + ratio * (flat[i1, 1] - flat[i0, 1])
            y[interp] = flat[i0, 2] + ratio * (flat[i1, 2] - flat[i0, 2])

        # Rows come out timestamp-major with ascending object id inside each
        # timestamp (objects were laid out in ascending-id order).
        present_2d = present.reshape(n_objects, m)
        ts_index, object_rows = np.nonzero(present_2d.T)
        flat_rows = object_rows * m + ts_index
        track_ids = np.asarray([object_id for object_id, _ in tracks], dtype=np.int64)
        oid_arr = track_ids[object_rows]
        coords = np.stack((x[flat_rows], y[flat_rows]), axis=1)
        offsets = np.searchsorted(
            ts_index, np.arange(m + 1, dtype=np.int64), side="left"
        )
        return PositionArena(
            timestamps=tuple(float(t) for t in t_arr),
            ts_index=ts_index.astype(np.int64),
            object_ids=oid_arr,
            coords=coords,
            offsets=offsets.astype(np.int64),
        )

    def slice_time(self, t_start: float, t_end: float) -> "TrajectoryDatabase":
        """Database restricted to samples within ``[t_start, t_end]``."""
        sliced = TrajectoryDatabase()
        for traj in self._trajectories.values():
            sub = traj.slice_time(t_start, t_end)
            if not sub.is_empty():
                sliced.add(sub)
        return sliced

    def subset(self, object_ids: Iterable[int]) -> "TrajectoryDatabase":
        """Database restricted to the given object ids."""
        wanted = set(object_ids)
        return TrajectoryDatabase(
            traj for oid, traj in self._trajectories.items() if oid in wanted
        )

    def total_samples(self) -> int:
        return sum(len(traj) for traj in self._trajectories.values())
