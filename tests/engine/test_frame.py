"""Tests for the columnar snapshot frames built by batched phase 1."""

import pytest

from repro.clustering.snapshot import build_cluster_database
from repro.engine.phase1 import build_cluster_database_batched
from repro.geometry.point import Point
from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase

#: Member positions of one snapshot: three clusters at eps=12, min_points=1.
POSITIONS = {4: (0, 0), 1: (10, 5), 9: (3, 3), 7: (100, 100), 2: (50, 60), 8: (52, 61)}


def stationary_database(positions):
    database = TrajectoryDatabase()
    for oid, (x, y) in positions.items():
        point = Point(float(x), float(y))
        database.add(Trajectory(oid, [(3.0, point), (4.0, point)]))
    return database


@pytest.fixture
def clusters():
    cdb = build_cluster_database_batched(
        stationary_database(POSITIONS), eps=12.0, min_points=1
    )
    return cdb.clusters_at(3.0)


@pytest.fixture
def scalar_clusters():
    cdb = build_cluster_database(
        stationary_database(POSITIONS), eps=12.0, min_points=1, method="grid"
    )
    return cdb.clusters_at(3.0)


class TestSnapshotFrame:
    def test_shape_and_offsets(self, clusters):
        frame = clusters[0]._frame
        assert all(cluster._frame is frame for cluster in clusters)
        assert frame.clusters == tuple(clusters)
        assert len(frame.clusters) == 3
        assert len(frame.coords) == len(frame.object_ids) == 6
        assert frame.offsets.tolist() == [0, 3, 5, 6]
        assert frame.cluster_ids.tolist() == [0, 1, 2]

    def test_rows_sorted_by_object_id_within_cluster(self, clusters):
        frame = clusters[0]._frame
        start, end = frame.segment(0)
        assert frame.object_ids[start:end].tolist() == [1, 4, 9]
        assert frame.cluster_coords(0)[0].tolist() == [10.0, 5.0]

    def test_codec_round_trip(self, clusters, scalar_clusters):
        # Every frame row maps back to the scalar cluster's member point.
        frame = clusters[0]._frame
        for index, scalar in enumerate(scalar_clusters):
            start, end = frame.segment(index)
            rows = {
                int(oid): Point(float(x), float(y))
                for oid, (x, y) in zip(frame.object_ids[start:end], frame.coords[start:end])
            }
            assert rows == scalar.members

    def test_to_clusters_round_trip(self, clusters, scalar_clusters):
        # The frame's cluster views materialise the scalar members exactly.
        assert [c.key() for c in clusters] == [c.key() for c in scalar_clusters]
        for view, scalar in zip(clusters, scalar_clusters):
            assert view._members is None  # lazy until first read
            assert view.members == scalar.members
            assert list(view.members) == sorted(scalar.members)

    def test_mbrs_match_cluster_mbrs(self, clusters, scalar_clusters):
        frame = clusters[0]._frame
        for index, cluster in enumerate(scalar_clusters):
            mbr = cluster.mbr
            assert frame.mbrs()[index].tolist() == [
                mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y,
            ]

    def test_empty_snapshot(self):
        # An all-noise snapshot yields no frame, and its database snapshot
        # stays present but empty.
        database = stationary_database({1: (0, 0), 2: (500, 500)})
        cdb = build_cluster_database_batched(database, eps=12.0, min_points=2)
        assert cdb.snapshot_count() == 2
        assert cdb.clusters_at(3.0) == []
