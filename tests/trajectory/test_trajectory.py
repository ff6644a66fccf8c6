"""Tests for the trajectory and trajectory-database models."""

import pytest

from repro.geometry.point import Point
from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase


def straight_line_trajectory(object_id=0, n=5, dx=10.0):
    return Trajectory.from_coordinates(
        object_id, [(float(t), t * dx, 0.0) for t in range(n)]
    )


class TestTrajectory:
    def test_from_coordinates_sorts_by_time(self):
        traj = Trajectory.from_coordinates(1, [(2.0, 2.0, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 0.0)])
        assert traj.timestamps() == [0.0, 1.0, 2.0]

    def test_basic_properties(self):
        traj = straight_line_trajectory(n=5)
        assert len(traj) == 5
        assert traj.start_time == 0.0
        assert traj.end_time == 4.0
        assert traj.duration == 4.0

    def test_empty_trajectory_properties_raise(self):
        empty = Trajectory(object_id=3)
        assert empty.is_empty()
        with pytest.raises(ValueError):
            _ = empty.start_time
        with pytest.raises(ValueError):
            _ = empty.end_time

    def test_position_at_interpolates(self):
        traj = straight_line_trajectory(n=3, dx=10.0)
        assert traj.position_at(0.5) == Point(5.0, 0.0)
        assert traj.position_at(10.0) is None

    def test_slice_time(self):
        traj = straight_line_trajectory(n=10)
        sliced = traj.slice_time(2.0, 5.0)
        assert sliced.timestamps() == [2.0, 3.0, 4.0, 5.0]
        with pytest.raises(ValueError):
            traj.slice_time(5.0, 2.0)


class TestTrajectoryDatabase:
    def test_add_and_lookup(self):
        db = TrajectoryDatabase([straight_line_trajectory(object_id=1)])
        assert len(db) == 1
        assert 1 in db
        assert db[1].object_id == 1

    def test_add_merges_same_object(self):
        db = TrajectoryDatabase(
            [
                Trajectory.from_coordinates(1, [(1.0, 1.0, 0.0)]),
                Trajectory.from_coordinates(2, [(0.0, 5.0, 5.0)]),
                Trajectory.from_coordinates(1, [(0.0, 0.0, 0.0), (1.0, 2.0, 0.0)]),
            ]
        )
        assert len(db) == 2
        assert [traj.object_id for traj in db] == [1, 2]
        # Merged samples are sorted by time, stably: the first trajectory's
        # fix at t=1 stays ahead of the later one at the same time.
        assert db[1].samples == [
            (0.0, Point(0.0, 0.0)), (1.0, Point(1.0, 0.0)), (1.0, Point(2.0, 0.0))
        ]

    def test_empty_trajectory_is_kept(self):
        db = TrajectoryDatabase([Trajectory(4), straight_line_trajectory(object_id=2)])
        assert len(db) == 2
        assert db.object_ids() == [2, 4]
        assert [traj.object_id for traj in db] == [4, 2]
        assert db[4].is_empty()
        assert db.total_samples() == 5
        assert db.time_domain() == (0.0, 4.0)

    def test_missing_object_raises_key_error(self):
        db = TrajectoryDatabase([straight_line_trajectory(object_id=1)])
        assert 3 not in db
        with pytest.raises(KeyError):
            db[3]

    def test_samples_are_read_only(self):
        db = TrajectoryDatabase([straight_line_trajectory(object_id=1)])
        for traj in (db[1], straight_line_trajectory(), Trajectory(1, [(0.0, Point(0, 0))])):
            with pytest.raises(ValueError):
                traj.sample_triples()[0, 1] = 99.0

    def test_time_domain_and_timestamps(self):
        db = TrajectoryDatabase(
            [
                Trajectory.from_coordinates(0, [(0.0, 0.0, 0.0), (4.0, 4.0, 0.0)]),
                Trajectory.from_coordinates(1, [(2.0, 0.0, 0.0), (9.0, 4.0, 0.0)]),
            ]
        )
        assert db.time_domain() == (0.0, 9.0)
        assert db.timestamps(step=3.0) == [0.0, 3.0, 6.0, 9.0]

    def test_time_domain_empty_raises(self):
        with pytest.raises(ValueError):
            TrajectoryDatabase().time_domain()

    def test_timestamps_invalid_step(self):
        db = TrajectoryDatabase([straight_line_trajectory()])
        with pytest.raises(ValueError):
            db.timestamps(step=0.0)

    def test_snapshot_interpolates_all_objects(self):
        db = TrajectoryDatabase(
            [
                straight_line_trajectory(object_id=0, n=5, dx=10.0),
                straight_line_trajectory(object_id=1, n=3, dx=20.0),
            ]
        )
        snap = db.snapshot(1.5)
        assert snap[0] == Point(15.0, 0.0)
        assert snap[1] == Point(30.0, 0.0)
        late = db.snapshot(3.5)
        assert 1 not in late  # object 1 ends at t=2
        assert 0 in late

    def test_slice_time(self):
        db = TrajectoryDatabase(
            [straight_line_trajectory(object_id=i, n=6) for i in (2, 0, 1)]
            + [Trajectory.from_coordinates(5, [(4.0, 0.0, 0.0)])]
        )
        sliced = db.slice_time(1.0, 2.0)
        # Objects without a sample in the window are dropped; the others
        # keep their order of first appearance.
        assert [traj.object_id for traj in sliced] == [2, 0, 1]
        assert all(traj.timestamps() == [1.0, 2.0] for traj in sliced)
        assert sliced[1].points() == [Point(10.0, 0.0), Point(20.0, 0.0)]
        assert sliced.total_samples() == 6
        with pytest.raises(ValueError):
            db.slice_time(2.0, 1.0)

    def test_total_samples(self):
        db = TrajectoryDatabase(
            [straight_line_trajectory(object_id=0, n=4), straight_line_trajectory(object_id=1, n=6)]
        )
        assert db.total_samples() == 10
