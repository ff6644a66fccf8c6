"""Tests for the shared baseline helpers."""

import pytest

from repro.baselines.common import SnapshotGroups, groups_from_clusters
from repro.clustering.snapshot import ClusterDatabase


class TestSnapshotGroups:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SnapshotGroups(timestamps=[0.0, 1.0], groups=[[frozenset({1})]])

    def test_at_returns_groups(self):
        groups = SnapshotGroups(
            timestamps=[0.0, 1.0],
            groups=[[frozenset({1, 2})], [frozenset({2, 3}), frozenset({5})]],
        )
        assert len(groups) == 2
        assert groups.at(1) == [frozenset({2, 3}), frozenset({5})]


class TestGroupsFromClusters:
    def test_extraction(self, cluster_factory):
        cdb = ClusterDatabase()
        cdb.add(cluster_factory(0.0, {1: (0, 0), 2: (1, 0)}))
        cdb.add(cluster_factory(1.0, {3: (0, 0)}, cluster_id=0))
        cdb.add(cluster_factory(1.0, {4: (9, 9), 5: (9, 8)}, cluster_id=1))
        groups = groups_from_clusters(cdb)
        assert groups.timestamps == [0.0, 1.0]
        assert groups.at(0) == [frozenset({1, 2})]
        assert sorted(groups.at(1), key=len) == [frozenset({3}), frozenset({4, 5})]

