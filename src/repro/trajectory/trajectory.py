"""Trajectory and trajectory-database models.

The paper's object database ``O_DB`` is a set of trajectories, each a finite
sequence of timestamped locations possibly with different lengths and
sampling rates.  :class:`TrajectoryDatabase` stores a fleet as one set of
sample columns and answers "where was every object at time t?" — the
operation the snapshot-clustering phase needs — using the
linear-interpolation model of Section II.  :class:`Trajectory` is one
object's samples: a read-only view of the database's rows, or a standalone
trajectory a database is built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry.interpolation import interpolate_position
from ..geometry.point import Point
from ..quality.columns import object_id_column

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


def _by_time(rows: Sequence[Tuple[float, float, float]]) -> np.ndarray:
    """``(t, x, y)`` rows as a read-only ``(n, 3)`` array, stably sorted by time."""
    triples = np.asarray(rows, dtype=float).reshape(-1, 3)
    triples = triples[np.argsort(triples[:, 0], kind="stable")]
    triples.flags.writeable = False
    return triples


class Trajectory:
    """A single moving object's trajectory, immutable.

    The samples are one ``(n, 3)`` float64 ``(t, x, y)`` array sorted by
    time (:meth:`sample_triples`).  Iterating a :class:`TrajectoryDatabase`
    yields views of its rows (:meth:`from_array`), so reading a database —
    batch or stream, numpy or scalar path — copies no sample.  The
    ``(time, Point)`` list of :attr:`samples` is derived on first access.

    Attributes
    ----------
    object_id:
        Stable identifier of the moving object (e.g. a taxi id).
    """

    __slots__ = ("object_id", "_triples", "_samples")

    def __init__(
        self, object_id: int, samples: Iterable[Tuple[float, Point]] = ()
    ) -> None:
        self.object_id = object_id
        self._triples = _by_time([(t, p.x, p.y) for t, p in samples])
        #: The ``(time, Point)`` list, derived from the array on first use.
        self._samples: Optional[List[Tuple[float, Point]]] = None

    @classmethod
    def from_array(cls, object_id: int, triples: np.ndarray) -> "Trajectory":
        """Wrap an ``(n, 3)`` ``(t, x, y)`` array already sorted by time."""
        trajectory = cls.__new__(cls)
        trajectory.object_id = object_id
        trajectory._triples = triples
        trajectory._samples = None
        return trajectory

    @classmethod
    def from_coordinates(
        cls, object_id: int, coords: Iterable[Tuple[float, float, float]]
    ) -> "Trajectory":
        """Build a trajectory from ``(t, x, y)`` triples."""
        return cls.from_array(object_id, _by_time(list(coords)))

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
        return self.object_id == other.object_id and np.array_equal(
            self._triples, other._triples
        )

    def __repr__(self) -> str:
        return f"Trajectory(object_id={self.object_id!r}, samples={self.samples!r})"

    # -- basic properties ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Tuple[float, Point]]:
        return iter(self.samples)

    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def start_time(self) -> float:
        if self.is_empty():
            raise ValueError("empty trajectory has no start time")
        return float(self._triples[0, 0])

    @property
    def end_time(self) -> float:
        if self.is_empty():
            raise ValueError("empty trajectory has no end time")
        return float(self._triples[-1, 0])

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def timestamps(self) -> List[float]:
        return self._triples[:, 0].tolist()

    def points(self) -> List[Point]:
        return [p for _, p in self.samples]

    def sample_triples(self) -> np.ndarray:
        """The samples as one read-only ``(n, 3)`` float64 ``(t, x, y)`` array."""
        return self._triples

    # -- queries ------------------------------------------------------------
    def position_at(self, t: float, max_gap: Optional[float] = None) -> Optional[Point]:
        """Location at time ``t`` using linear interpolation (virtual points)."""
        return interpolate_position(self.samples, t, max_gap=max_gap)

    def slice_time(self, t_start: float, t_end: float) -> "Trajectory":
        """Return the sub-trajectory with samples in ``[t_start, t_end]``."""
        if t_start > t_end:
            raise ValueError("t_start must not exceed t_end")
        times = self._triples[:, 0]
        first = np.searchsorted(times, t_start, side="left")
        stop = np.searchsorted(times, t_end, side="right")
        return Trajectory.from_array(self.object_id, self._triples[first:stop])


@dataclass(frozen=True)
class _SampleColumns:
    """Every sample of a database as flat columns, grouped by object.

    Object ``object_ids[i]`` owns rows ``first[i]:stop[i]`` of
    :attr:`triples`, sorted by time (an object without samples owns an
    empty range); ``object_ids`` ascends.  ``appearance`` lists the indices
    of the objects in the order they were first seen, the order a database
    iterates in.
    """

    object_ids: np.ndarray
    first: np.ndarray
    stop: np.ndarray
    triples: np.ndarray
    appearance: np.ndarray

    @classmethod
    def build(
        cls,
        row_ids: np.ndarray,
        columns: Sequence[np.ndarray],
        ids: Optional[np.ndarray] = None,
    ) -> "_SampleColumns":
        """Group one sample per row by object, each stably sorted by time.

        ``columns`` holds the ``t``, ``x`` and ``y`` arrays of the rows.
        ``ids`` lists the object id of every trajectory the rows came from,
        in order, those without rows included; the objects appear in order
        of their first entry there, or of their first row without it.
        """
        order = np.lexsort((columns[0], row_ids))
        sorted_ids = row_ids[order]
        triples = np.empty((len(order), 3), dtype=float)
        for index, column in enumerate(columns):
            triples[:, index] = column[order]
        triples.flags.writeable = False
        if ids is None:
            new_object = np.ones(len(order), dtype=bool)
            new_object[1:] = sorted_ids[1:] != sorted_ids[:-1]
            starts = np.flatnonzero(new_object)
            object_ids = sorted_ids[starts]
            first_seen = np.minimum.reduceat(order, starts)
        else:
            object_ids, first_seen = np.unique(ids, return_index=True)
        return cls(
            object_ids,
            np.searchsorted(sorted_ids, object_ids, side="left"),
            np.searchsorted(sorted_ids, object_ids, side="right"),
            triples,
            np.argsort(first_seen, kind="stable"),
        )


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

    Every sample is held once, as the columns of :class:`_SampleColumns`:
    the object ids, each object's row range and one ``(n, 3)`` ``(t, x, y)``
    array.  Both constructors build those columns in one pass, and every
    view reads them: :meth:`positions_matrix` and :meth:`snapshot`
    interpolate straight from the columns, and iteration and lookup hand
    out :class:`Trajectory` views of an object's rows (iteration in order
    of the objects' first appearance).  A database is never modified after
    it is built.
    """

    def __init__(self, trajectories: Iterable[Trajectory] = ()) -> None:
        """Build a database from trajectories, concatenated once.

        A repeated object id merges its trajectories' samples (stably
        sorted by time), and an empty trajectory is kept as an object
        without samples.
        """
        trajectories = list(trajectories)
        ids = object_id_column([trajectory.object_id for trajectory in trajectories])
        triples = np.concatenate(
            [trajectory.sample_triples() for trajectory in trajectories]
            + [np.empty((0, 3))]
        )
        row_ids = np.repeat(ids, [len(trajectory) for trajectory in trajectories])
        self._columns = _SampleColumns.build(row_ids, triples.T, ids)

    @classmethod
    def from_columns(
        cls, object_ids: np.ndarray, t: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> "TrajectoryDatabase":
        """Build a database from one sample per row, without creating points.

        Equivalent to the constructor over one single-sample trajectory per
        row: objects appear in order of their first row, and each object's
        samples are sorted by time, stably (equal times keep row order).
        """
        database = cls.__new__(cls)
        database._columns = _SampleColumns.build(np.asarray(object_ids), (t, x, y))
        return database

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns.object_ids)

    def __iter__(self) -> Iterator[Trajectory]:
        columns = self._columns
        ids = columns.object_ids.tolist()
        first = columns.first.tolist()
        stop = columns.stop.tolist()
        for i in columns.appearance.tolist():
            yield Trajectory.from_array(ids[i], columns.triples[first[i] : stop[i]])

    def _index(self, object_id: int) -> Optional[int]:
        """The column index of ``object_id``, ``None`` when absent."""
        ids = self._columns.object_ids
        index = int(np.searchsorted(ids, object_id))
        return index if index < len(ids) and ids[index] == object_id else None

    def __contains__(self, object_id: int) -> bool:
        return self._index(object_id) is not None

    def __getitem__(self, object_id: int) -> Trajectory:
        index = self._index(object_id)
        if index is None:
            raise KeyError(object_id)
        columns = self._columns
        return Trajectory.from_array(
            object_id, columns.triples[columns.first[index] : columns.stop[index]]
        )

    # -- views ----------------------------------------------------------------
    def object_ids(self) -> List[int]:
        return self._columns.object_ids.tolist()

    def time_domain(self) -> Tuple[float, float]:
        """The overall ``[min_t, max_t]`` across all trajectories."""
        columns = self._columns
        sampled = columns.stop > columns.first
        if not sampled.any():
            raise ValueError("time domain of an empty database is undefined")
        times = columns.triples[:, 0]
        return (
            float(times[columns.first[sampled]].min()),
            float(times[columns.stop[sampled] - 1].max()),
        )

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
        """Positions of every object observed (or interpolated) at time ``t``.

        The scalar reference of :meth:`positions_matrix`.  The (at most
        two) samples of each object that bracket ``t`` are found for all
        objects at once, and
        :func:`~repro.geometry.interpolation.interpolate_position` answers
        from them exactly as it would from the object's whole sample list.
        """
        columns = self._columns
        triples = columns.triples
        if not len(triples):
            return {}
        after = _segment_searchsorted(
            triples[:, 0], columns.first, columns.stop, t, "left"
        )
        lo = np.maximum(after - 1, columns.first)
        counts = (np.minimum(after + 1, columns.stop) - lo).tolist()
        last = len(triples) - 1
        before = triples[np.minimum(lo, last)].tolist()
        at_or_after = triples[np.minimum(lo + 1, last)].tolist()
        ids = columns.object_ids.tolist()
        positions: Dict[int, Point] = {}
        for i in columns.appearance.tolist():
            bracket = (before[i], at_or_after[i])[: counts[i]]
            p = interpolate_position(
                [(s, Point(x, y)) for s, x, y in bracket], t, max_gap=max_gap
            )
            if p is not None:
                positions[ids[i]] = p
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
        columns = self._columns
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
        """Database restricted to samples within ``[t_start, t_end]``.

        Objects left without a sample are dropped.
        """
        if t_start > t_end:
            raise ValueError("t_start must not exceed t_end")
        columns = self._columns
        times = columns.triples[:, 0]
        keep = (times >= t_start) & (times <= t_end)
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        first = kept_before[columns.first]
        stop = kept_before[columns.stop]
        sampled = stop > first
        rank = np.cumsum(sampled) - 1
        sliced = TrajectoryDatabase.__new__(TrajectoryDatabase)
        sliced._columns = _SampleColumns(
            columns.object_ids[sampled],
            first[sampled],
            stop[sampled],
            columns.triples[keep],
            rank[columns.appearance[sampled[columns.appearance]]],
        )
        return sliced

    def total_samples(self) -> int:
        return len(self._columns.triples)
