"""Reference builders for the stream's window close.

:func:`oracle_window_close` is the per-object window-database builder the
service used before its close went columnar: one sorted
:class:`~repro.trajectory.trajectory.Trajectory` of ``(time, Point)``
anchors per object with pending fixes, the carried fix first.  It works on
copies, so it can run next to the service on the same state.
:func:`oracle_arena` interpolates a database snapshot by snapshot through
the scalar :meth:`~repro.trajectory.trajectory.TrajectoryDatabase.snapshot`,
independently of ``positions_matrix``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.point import Point
from repro.trajectory.trajectory import PositionArena, Trajectory, TrajectoryDatabase


def oracle_window_close(pending, carry, window_end):
    """The window database plus the buffer state the close leaves behind.

    Returns ``(database, pending, carry, taken_count)``; the inputs are not
    modified.
    """
    pending = {object_id: dict(samples) for object_id, samples in pending.items()}
    carry = dict(carry)
    trajectories = []
    taken_count = 0
    for object_id, samples in pending.items():
        anchors = sorted((t, Point(fix.x, fix.y)) for t, fix in samples.items())
        carried = carry.get(object_id)
        if carried is not None:
            t, fix = carried
            anchors = [(t, Point(fix.x, fix.y))] + anchors
        trajectories.append(Trajectory(object_id, anchors))
        taken = [t for t in samples if t < window_end]
        if taken:
            last = max(taken)
            carry[object_id] = (last, samples[last])
            for t in taken:
                del samples[t]
            taken_count += len(taken)
    pending = {object_id: samples for object_id, samples in pending.items() if samples}
    return TrajectoryDatabase(trajectories), pending, carry, taken_count


def oracle_arena(database, timestamps, max_gap=None):
    """The positions arena of ``database``, built from scalar snapshots."""
    ts_index, object_ids, coords = [], [], []
    offsets = [0]
    for index, t in enumerate(timestamps):
        snapshot = database.snapshot(t, max_gap=max_gap)
        for object_id in sorted(snapshot):
            point = snapshot[object_id]
            ts_index.append(index)
            object_ids.append(object_id)
            coords.append((point.x, point.y))
        offsets.append(len(ts_index))
    return PositionArena(
        timestamps=tuple(float(t) for t in timestamps),
        ts_index=np.asarray(ts_index, dtype=np.int64),
        object_ids=np.asarray(object_ids, dtype=np.int64),
        coords=np.asarray(coords, dtype=float).reshape(-1, 2),
        offsets=np.asarray(offsets, dtype=np.int64),
    )


def assert_arenas_identical(got, expected):
    """Same rows in the same order, coordinates equal bit for bit."""
    assert got.timestamps == expected.timestamps
    assert got.ts_index.tolist() == expected.ts_index.tolist()
    assert got.object_ids.tolist() == expected.object_ids.tolist()
    assert got.offsets.tolist() == expected.offsets.tolist()
    assert got.coords.shape == expected.coords.shape
    assert got.coords.tobytes() == expected.coords.tobytes()
