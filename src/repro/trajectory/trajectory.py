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
    path reads).  A trajectory built by :meth:`from_array` keeps only the
    array until something asks for :attr:`samples`.  Every load through
    the ingest firewall and every window the streaming service closes
    builds its database with :meth:`TrajectoryDatabase.from_columns`,
    whose trajectories are such views (created only when asked for), so
    the numpy path — batch or stream — never creates a
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


@dataclass(frozen=True)
class _SampleColumns:
    """Every sample of a database as flat columns, grouped by object.

    Object ``object_ids[i]`` owns rows ``first[i]:stop[i]`` of
    :attr:`triples`, sorted by time; ``object_ids`` ascends.  A subset
    shares :attr:`triples` and selects entries of the other three arrays,
    so no object's rows are ever copied to restrict a database.
    """

    object_ids: np.ndarray
    first: np.ndarray
    stop: np.ndarray
    triples: np.ndarray


def _segment_searchsorted(
    values: np.ndarray, first: np.ndarray, stop: np.ndarray, target: float, side: str
) -> np.ndarray:
    """``np.searchsorted`` of one ``target`` in every sorted segment at once.

    Segment ``i`` is ``values[first[i]:stop[i]]``; the result is the absolute
    row where ``target`` would be inserted into it (``side`` as in
    :func:`numpy.searchsorted`).  All segments are bisected in lock step, so
    the cost is ``O(segments * log(longest segment))`` numpy work with no
    per-segment Python call.
    """
    lo = first.copy()
    hi = stop.copy()
    live = np.flatnonzero(lo < hi)
    while live.size:
        mid = (lo[live] + hi[live]) >> 1
        probe = values[mid]
        right = probe < target if side == "left" else probe <= target
        lo[live[right]] = mid[right] + 1
        hi[live[~right]] = mid[~right]
        live = live[lo[live] < hi[live]]
    return lo


class TrajectoryDatabase:
    """The moving-object database ``O_DB``.

    Stores :class:`Trajectory` objects indexed by object id and provides the
    snapshot view needed by per-timestamp clustering.

    A database built by :meth:`from_columns` holds only its sample columns
    and creates the :class:`Trajectory` objects the first time something
    asks for them (iteration, lookup, the time domain, mutation), so
    :meth:`positions_matrix` at explicit timestamps — the stream's window
    close — never builds one per object.  A database built from
    trajectories derives the columns on the first :meth:`positions_matrix`
    call and drops them on mutation.
    """

    def __init__(self, trajectories: Optional[Iterable[Trajectory]] = None) -> None:
        #: Object id -> trajectory; ``None`` until built from :attr:`_columns`.
        self._trajectories: Optional[Dict[int, Trajectory]] = {}
        #: Every sample as columns; ``None`` until first needed.
        self._columns: Optional[_SampleColumns] = None
        #: While ``_trajectories`` is ``None``: the column indices of the
        #: objects in insertion order, the order they will be iterated in.
        self._order: Optional[np.ndarray] = None
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
        time, stably (equal times keep row order).  The rows are kept as one
        ``(n, 3)`` array; each trajectory, once asked for, is a view of its
        slice (:meth:`Trajectory.from_array`).
        """
        if not len(object_ids):
            return cls()
        object_ids = np.asarray(object_ids)
        order = np.lexsort((t, object_ids))
        sorted_ids = object_ids[order]
        first = np.flatnonzero(
            np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))
        )
        stop = np.append(first[1:], len(order))
        triples = np.stack((t[order], x[order], y[order]), axis=1)
        # Objects are iterated in order of their first row.
        appearance = np.argsort(np.minimum.reduceat(order, first), kind="stable")
        database = cls()
        database._trajectories = None
        database._columns = _SampleColumns(sorted_ids[first], first, stop, triples)
        database._order = appearance
        return database

    # -- representations ------------------------------------------------------
    def _objects(self) -> Dict[int, Trajectory]:
        """The id -> trajectory dict, built from the columns on first use."""
        if self._trajectories is None:
            columns = self._columns
            ids = columns.object_ids.tolist()
            first = columns.first.tolist()
            stop = columns.stop.tolist()
            triples = columns.triples
            self._trajectories = {
                ids[i]: Trajectory.from_array(ids[i], triples[first[i] : stop[i]])
                for i in self._order.tolist()
            }
            self._order = None
        return self._trajectories

    def _sample_columns(self) -> _SampleColumns:
        """Every sample as columns, built from the trajectories on first use.

        Each trajectory's cached array becomes a view of its rows, so the
        samples are held once.
        """
        if self._columns is None:
            trajectories = self._trajectories
            ids = sorted(trajectories)
            lengths = np.fromiter(
                (len(trajectories[object_id]) for object_id in ids),
                dtype=np.int64,
                count=len(ids),
            )
            stop = np.cumsum(lengths)
            first = stop - lengths
            triples = np.empty((int(stop[-1]) if len(ids) else 0, 3), dtype=float)
            for object_id, a, b in zip(ids, first.tolist(), stop.tolist()):
                trajectory = trajectories[object_id]
                triples[a:b] = trajectory.sample_triples()
                trajectory._triples = triples[a:b]
            self._columns = _SampleColumns(
                np.asarray(ids, dtype=np.int64), first, stop, triples
            )
        return self._columns

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        if self._trajectories is None:
            return len(self._columns.object_ids)
        return len(self._trajectories)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self._objects().values())

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects()

    def __getitem__(self, object_id: int) -> Trajectory:
        return self._objects()[object_id]

    # -- mutation -------------------------------------------------------------
    def add(self, trajectory: Trajectory) -> None:
        """Add a trajectory; samples are merged if the object already exists."""
        trajectories = self._objects()
        self._columns = None
        existing = trajectories.get(trajectory.object_id)
        if existing is None:
            trajectories[trajectory.object_id] = trajectory
        else:
            merged = existing.samples + trajectory.samples
            trajectories[trajectory.object_id] = Trajectory(
                object_id=trajectory.object_id, samples=merged
            )

    def add_sample(self, object_id: int, t: float, point: Point) -> None:
        """Append a single sample for an object, creating it if needed."""
        trajectories = self._objects()
        self._columns = None
        traj = trajectories.get(object_id)
        if traj is None:
            trajectories[object_id] = Trajectory(object_id, [(t, point)])
        else:
            traj.add_sample(t, point)

    def extend(self, other: "TrajectoryDatabase") -> None:
        """Merge another database (e.g. a new batch of arrivals) into this one."""
        for traj in other:
            self.add(traj)

    # -- views ----------------------------------------------------------------
    def object_ids(self) -> List[int]:
        return sorted(self._objects())

    def time_domain(self) -> Tuple[float, float]:
        """The overall ``[min_t, max_t]`` across all trajectories."""
        trajectories = self._objects()
        if not trajectories:
            raise ValueError("time domain of an empty database is undefined")
        starts = [t.start_time for t in trajectories.values() if not t.is_empty()]
        ends = [t.end_time for t in trajectories.values() if not t.is_empty()]
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
        for object_id, traj in self._objects().items():
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

        Vectorized equivalent of calling :meth:`snapshot` per timestamp.  It
        reads the sample columns: every object's rows bracketing the queried
        span are found at once (:func:`_segment_searchsorted`) and only those
        rows are gathered, so a long database walked block by block is never
        copied per block.  The virtual points are produced with the same
        linear-interpolation arithmetic as
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
        columns = self._sample_columns()
        if m == 0 or not len(columns.triples):
            return PositionArena(
                timestamps=tuple(float(t) for t in t_arr),
                ts_index=np.empty(0, dtype=np.int64),
                object_ids=np.empty(0, dtype=np.int64),
                coords=np.empty((0, 2), dtype=float),
                offsets=np.zeros(m + 1, dtype=np.int64),
            )

        # Only the samples bracketing the queried span matter: one sample at
        # or before t_min and one at or after t_max per object, so every
        # in-span interpolation (and the outside-lifespan test) sees exactly
        # the samples a search of the whole history would.
        all_times = columns.triples[:, 0]
        lo = np.maximum(
            _segment_searchsorted(
                all_times, columns.first, columns.stop, t_arr.min(), "left"
            )
            - 1,
            columns.first,
        )
        hi = np.minimum(
            _segment_searchsorted(
                all_times, columns.first, columns.stop, t_arr.max(), "right"
            )
            + 1,
            columns.stop,
        )
        tracked = np.flatnonzero(hi > lo)
        lo = lo[tracked]
        lengths = hi[tracked] - lo
        n_objects = len(tracked)
        starts = np.cumsum(lengths) - lengths
        flat = columns.triples[
            np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(lo - starts, lengths)
        ]
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
        # timestamp (the columns hold objects in ascending-id order).
        present_2d = present.reshape(n_objects, m)
        ts_index, object_rows = np.nonzero(present_2d.T)
        flat_rows = object_rows * m + ts_index
        oid_arr = columns.object_ids[tracked][object_rows].astype(np.int64)
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
        for traj in self:
            sub = traj.slice_time(t_start, t_end)
            if not sub.is_empty():
                sliced.add(sub)
        return sliced

    def subset(self, object_ids: Iterable[int]) -> "TrajectoryDatabase":
        """Database restricted to the given object ids."""
        wanted = set(object_ids)
        return TrajectoryDatabase(
            traj for oid, traj in self._objects().items() if oid in wanted
        )

    def total_samples(self) -> int:
        return sum(len(traj) for traj in self._objects().values())
