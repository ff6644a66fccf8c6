"""Tests for snapshot clusters and the cluster database."""

import pytest

from repro.clustering.snapshot import (
    ClusterDatabase,
    SnapshotCluster,
    build_cluster_database,
    cluster_snapshot,
)
from repro.geometry.point import Point
from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase


def positions_two_groups():
    group_a = {i: Point(float(i), 0.0) for i in range(5)}
    group_b = {10 + i: Point(1000.0 + i, 0.0) for i in range(5)}
    return {**group_a, **group_b}


class TestSnapshotCluster:
    def test_requires_members(self):
        with pytest.raises(ValueError):
            SnapshotCluster(timestamp=0.0, members={}, cluster_id=0)

    def test_membership_queries(self, cluster_factory):
        cluster = cluster_factory(0.0, {1: (0, 0), 2: (5, 5)})
        assert len(cluster) == 2
        assert 1 in cluster and 3 not in cluster
        assert cluster.object_ids() == frozenset({1, 2})

    def test_geometry(self, cluster_factory):
        cluster = cluster_factory(0.0, {1: (0, 0), 2: (10, 0), 3: (5, 10)})
        assert cluster.mbr.min_x == 0.0 and cluster.mbr.max_y == 10.0
        assert cluster.center == Point(5.0, 10.0 / 3.0)

    def test_hausdorff_between_clusters(self, cluster_factory):
        a = cluster_factory(0.0, {1: (0, 0), 2: (1, 0)})
        b = cluster_factory(1.0, {3: (0, 3), 4: (1, 3)})
        assert a.hausdorff_to(b) == pytest.approx(3.0)
        assert a.within_hausdorff(b, 3.0)
        assert not a.within_hausdorff(b, 2.0)

    def test_key_and_hash(self, cluster_factory):
        a = cluster_factory(2.0, {1: (0, 0)}, cluster_id=3)
        assert a.key() == (2.0, 3)
        assert hash(a) == hash(cluster_factory(2.0, {1: (0, 0)}, cluster_id=3))


class TestClusterSnapshot:
    def test_two_groups_found(self):
        clusters = cluster_snapshot(positions_two_groups(), timestamp=5.0, eps=10.0, min_points=3)
        assert len(clusters) == 2
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [5, 5]
        assert all(c.timestamp == 5.0 for c in clusters)

    def test_noise_objects_excluded(self):
        positions = positions_two_groups()
        positions[99] = Point(5000.0, 5000.0)
        clusters = cluster_snapshot(positions, timestamp=0.0, eps=10.0, min_points=3)
        assert all(99 not in c for c in clusters)

    def test_empty_positions(self):
        assert cluster_snapshot({}, timestamp=0.0, eps=10.0, min_points=3) == []

    def test_clusters_are_disjoint(self):
        clusters = cluster_snapshot(positions_two_groups(), timestamp=0.0, eps=10.0, min_points=3)
        ids = [c.object_ids() for c in clusters]
        assert ids[0] & ids[1] == frozenset()


class TestClusterDatabase:
    def test_add_and_query(self, cluster_factory):
        cdb = ClusterDatabase()
        cdb.add(cluster_factory(0.0, {1: (0, 0)}))
        cdb.add(cluster_factory(1.0, {2: (0, 0)}))
        cdb.add(cluster_factory(1.0, {3: (9, 9)}, cluster_id=1))
        assert len(cdb) == 3
        assert cdb.timestamps() == [0.0, 1.0]
        assert len(cdb.clusters_at(1.0)) == 2
        assert cdb.clusters_at(99.0) == []
        assert cdb.snapshot_count() == 2

    def test_slice_time(self, cluster_factory):
        cdb = ClusterDatabase()
        for t in range(5):
            cdb.add(cluster_factory(float(t), {1: (0, 0)}))
        sliced = cdb.slice_time(1.0, 3.0)
        assert sliced.timestamps() == [1.0, 2.0, 3.0]

    def test_merge(self, cluster_factory):
        a = ClusterDatabase()
        a.add(cluster_factory(0.0, {1: (0, 0)}))
        b = ClusterDatabase()
        b.add(cluster_factory(1.0, {2: (0, 0)}))
        a.merge(b)
        assert a.timestamps() == [0.0, 1.0]

    def test_iteration_is_time_ordered(self, cluster_factory):
        cdb = ClusterDatabase()
        cdb.add(cluster_factory(3.0, {1: (0, 0)}))
        cdb.add(cluster_factory(1.0, {2: (0, 0)}))
        assert [c.timestamp for c in cdb] == [1.0, 3.0]


class TestBuildClusterDatabase:
    def test_stationary_groups_cluster_at_every_timestamp(self):
        # Two groups of 4 objects each, stationary, far apart.
        db = TrajectoryDatabase(
            [
                Trajectory.from_coordinates(oid, [(t, oid * 10.0, 0.0) for t in range(5)])
                for oid in range(4)
            ]
            + [
                Trajectory.from_coordinates(
                    oid, [(t, 5000.0 + (oid - 10) * 10.0, 0.0) for t in range(5)]
                )
                for oid in range(10, 14)
            ]
        )
        cdb = build_cluster_database(db, eps=50.0, min_points=3, time_step=1.0)
        assert cdb.snapshot_count() == 5
        assert all(len(cdb.clusters_at(float(t))) == 2 for t in range(5))

    def test_explicit_timestamps(self):
        db = TrajectoryDatabase(
            Trajectory.from_coordinates(oid, [(t, oid * 5.0, 0.0) for t in range(10)])
            for oid in range(4)
        )
        cdb = build_cluster_database(db, timestamps=[2.0, 4.0], eps=50.0, min_points=3)
        assert cdb.timestamps() == [2.0, 4.0]
