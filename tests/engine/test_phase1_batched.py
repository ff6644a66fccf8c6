"""Unit tests for the batched phase-1 path (arena, kernels, lazy frames)."""

import pickle

import numpy as np
import pytest

from repro.clustering.dbscan import dbscan
from repro.clustering.snapshot import SnapshotCluster, build_cluster_database
from repro.engine.dbscan import dbscan_numpy_batched
from repro.engine.frame import FrameBackedCluster
from repro.engine.kernels import neighbor_pairs, neighbor_pairs_batched
from repro.engine.phase1 import build_cluster_database_batched
from repro.geometry.point import Point
from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase


def _random_database(seed=7, objects=25, duration=12):
    rng = np.random.default_rng(seed)
    database = TrajectoryDatabase()
    for object_id in range(objects):
        n = int(rng.integers(2, 2 * duration))
        times = np.sort(rng.uniform(0.0, float(duration), size=n))
        coords = rng.uniform(0.0, 500.0, size=(1, 2)) + np.cumsum(
            rng.normal(0.0, 40.0, size=(n, 2)), axis=0
        )
        database.add(
            Trajectory(
                object_id,
                [
                    (float(t), Point(float(x), float(y)))
                    for t, (x, y) in zip(times, coords)
                ],
            )
        )
    return database


class TestNeighborPairsBatched:
    def test_matches_per_group_kernel(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(0.0, 300.0, size=(120, 2))
        groups = np.repeat(np.arange(4), 30)
        src, dst = neighbor_pairs_batched(coords, groups, eps=60.0)
        got = set(zip(src.tolist(), dst.tolist()))
        expected = set()
        for group in range(4):
            rows = np.flatnonzero(groups == group)
            gsrc, gdst = neighbor_pairs(coords[rows], eps=60.0)
            expected.update(zip(rows[gsrc].tolist(), rows[gdst].tolist()))
        assert got == expected

    def test_pairs_never_cross_groups(self):
        # Identical coordinates in every group: without the per-group key
        # offsetting all points would be mutual neighbours.
        coords = np.tile(np.array([[0.0, 0.0], [1.0, 1.0]]), (3, 1))
        groups = np.repeat(np.arange(3), 2)
        src, dst = neighbor_pairs_batched(coords, groups, eps=10.0)
        assert len(src) == 12  # 4 ordered pairs (incl. self) per group
        assert np.array_equal(groups[src], groups[dst])

    def test_empty_and_self_exclusion(self):
        empty_src, empty_dst = neighbor_pairs_batched(
            np.empty((0, 2)), np.empty(0, dtype=np.int64), eps=1.0
        )
        assert len(empty_src) == 0 and len(empty_dst) == 0
        src, dst = neighbor_pairs_batched(
            np.zeros((2, 2)), np.zeros(2, dtype=np.int64), eps=1.0, include_self=False
        )
        assert np.all(src != dst)


class TestDbscanNumpyBatched:
    def test_per_snapshot_label_parity(self):
        rng = np.random.default_rng(11)
        blocks = [rng.uniform(0.0, 400.0, size=(int(n), 2)) for n in (40, 1, 17, 60)]
        coords = np.concatenate(blocks)
        offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum([len(b) for b in blocks], out=offsets[1:])
        labels = dbscan_numpy_batched(coords, offsets, eps=80.0, min_points=3)
        for index, block in enumerate(blocks):
            expected = dbscan(block, eps=80.0, min_points=3, method="grid")
            got = labels[offsets[index] : offsets[index + 1]].tolist()
            assert got == expected

    def test_empty_snapshots_in_the_middle(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0]])
        offsets = np.array([0, 0, 2, 2], dtype=np.int64)
        labels = dbscan_numpy_batched(coords, offsets, eps=5.0, min_points=2)
        assert labels.tolist() == [0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            dbscan_numpy_batched(np.zeros((1, 2)), np.array([0, 1]), eps=0.0, min_points=1)
        with pytest.raises(ValueError):
            dbscan_numpy_batched(np.zeros((1, 2)), np.array([0, 1]), eps=1.0, min_points=0)


class TestPositionsMatrix:
    @pytest.mark.parametrize("max_gap", [None, 1.5])
    def test_matches_scalar_snapshots(self, max_gap):
        database = _random_database(seed=5)
        timestamps = database.timestamps(step=1.0)
        arena = database.positions_matrix(timestamps, max_gap=max_gap)
        assert len(arena.offsets) == len(timestamps) + 1
        for index, t in enumerate(timestamps):
            start, end = arena.snapshot_rows(index)
            expected = database.snapshot(t, max_gap=max_gap)
            got_ids = arena.object_ids[start:end].tolist()
            assert got_ids == sorted(expected)
            for row, object_id in zip(range(start, end), got_ids):
                point = expected[object_id]
                # Bit-identical virtual points, not merely close ones.
                assert arena.coords[row, 0] == point.x
                assert arena.coords[row, 1] == point.y

    def test_empty_database(self):
        arena = TrajectoryDatabase().positions_matrix([0.0, 1.0])
        assert arena.point_count == 0
        assert arena.offsets.tolist() == [0, 0, 0]


def _both_layouts(tracks):
    """The same samples as a trajectory-built and a column-built database.

    ``tracks`` maps object id -> list of ``(t, x, y)``; the column-built
    database holds its samples only as columns until asked for trajectories.
    """
    built = TrajectoryDatabase(
        Trajectory.from_coordinates(object_id, rows) for object_id, rows in tracks.items()
    )
    rows = [(object_id, *row) for object_id, samples in tracks.items() for row in samples]
    columns = np.asarray([row[0] for row in rows], dtype=np.int64)
    values = np.asarray([row[1:] for row in rows], dtype=float).reshape(-1, 3)
    from_columns = TrajectoryDatabase.from_columns(
        columns, values[:, 0], values[:, 1], values[:, 2]
    )
    return built, from_columns


def _assert_matches_snapshots(database, timestamps, max_gap=None):
    arena = database.positions_matrix(timestamps, max_gap=max_gap)
    assert arena.offsets.tolist()[0] == 0
    assert len(arena.offsets) == len(timestamps) + 1
    for index, t in enumerate(timestamps):
        start, end = arena.snapshot_rows(index)
        expected = database.snapshot(t, max_gap=max_gap)
        assert arena.ts_index[start:end].tolist() == [index] * (end - start)
        assert arena.object_ids[start:end].tolist() == sorted(expected)
        for row, object_id in zip(range(start, end), sorted(expected)):
            # Bit-identical virtual points, not merely close ones.
            assert arena.coords[row].tobytes() == np.asarray(
                [expected[object_id].x, expected[object_id].y]
            ).tobytes()
    return arena


class TestPositionsMatrixEdges:
    """``positions_matrix`` ≡ ``snapshot()`` on the shapes a block can see."""

    TIMESTAMPS = [2.0, 2.5, 3.0, 4.0, 5.0]

    @pytest.mark.parametrize("layout", [0, 1])
    def test_empty_trajectories(self, layout):
        tracks = {1: [], 2: [(1.0, 0.0, 0.0), (6.0, 50.0, 10.0)], 3: []}
        database = _both_layouts(tracks)[layout]
        if layout == 0:
            database.add(Trajectory(4, []))
        arena = _assert_matches_snapshots(database, self.TIMESTAMPS)
        assert set(arena.object_ids.tolist()) == {2}

    @pytest.mark.parametrize("layout", [0, 1])
    def test_single_sample_trajectories(self, layout):
        tracks = {1: [(3.0, 7.0, 8.0)], 2: [(2.75, 1.0, 1.0)], 3: [(9.0, 0.0, 0.0)]}
        database = _both_layouts(tracks)[layout]
        arena = _assert_matches_snapshots(database, self.TIMESTAMPS)
        # Only the sample that falls exactly on a queried instant shows.
        assert arena.object_ids.tolist() == [1]

    @pytest.mark.parametrize("layout", [0, 1])
    def test_objects_wholly_before_or_after(self, layout):
        tracks = {
            1: [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.5, 2.0, 2.0)],
            2: [(5.5, 0.0, 0.0), (8.0, 3.0, 3.0)],
            3: [(0.0, 0.0, 0.0), (10.0, 100.0, -50.0)],
            4: [(1.9, 0.0, 0.0), (5.1, 9.0, 9.0)],
        }
        database = _both_layouts(tracks)[layout]
        arena = _assert_matches_snapshots(database, self.TIMESTAMPS)
        assert set(arena.object_ids.tolist()) == {3, 4}

    @pytest.mark.parametrize("layout", [0, 1])
    def test_duplicate_times_across_and_within_objects(self, layout):
        shared = [(2.0, 0.0, 0.0), (3.0, 10.0, 0.0), (4.5, 10.0, 10.0)]
        tracks = {
            1: shared,
            2: [(t, x + 1.0, y) for t, x, y in shared],
            3: [(2.0, 5.0, 5.0), (3.0, 6.0, 6.0), (3.0, 7.0, 7.0), (5.0, 0.0, 0.0)],
        }
        database = _both_layouts(tracks)[layout]
        arena = _assert_matches_snapshots(database, self.TIMESTAMPS)
        start, end = arena.snapshot_rows(self.TIMESTAMPS.index(3.0))
        assert arena.object_ids[start:end].tolist() == [1, 2, 3]

    @pytest.mark.parametrize("layout", [0, 1])
    @pytest.mark.parametrize("max_gap", [0.5, 1.0, 2.0])
    def test_max_gap(self, layout, max_gap):
        tracks = {
            1: [(1.0, 0.0, 0.0), (2.5, 3.0, 0.0), (4.5, 3.0, 8.0)],
            2: [(2.0, 0.0, 0.0), (3.0, 1.0, 1.0), (6.0, 4.0, 4.0)],
        }
        database = _both_layouts(tracks)[layout]
        _assert_matches_snapshots(database, self.TIMESTAMPS, max_gap=max_gap)

    @pytest.mark.parametrize("layout", [0, 1])
    def test_long_history_walked_block_by_block(self, layout):
        database = _both_layouts(
            {
                object_id: [
                    (float(t), float(t * object_id), float(-t))
                    for t in range(object_id, 60, object_id + 1)
                ]
                for object_id in range(1, 6)
            }
        )[layout]
        timestamps = [t + 0.5 for t in range(-2, 62)]
        for start in range(0, len(timestamps), 7):
            block = timestamps[start : start + 7]
            _assert_matches_snapshots(database, block)
            _assert_matches_snapshots(database.subset_objects([4, 2, 99]), block)


class TestFrameBackedCluster:
    def _batched(self):
        database = _random_database(seed=9)
        return build_cluster_database_batched(database, eps=120.0, min_points=2)

    def test_lazy_members(self):
        cdb = self._batched()
        cluster = next(iter(cdb))
        assert isinstance(cluster, FrameBackedCluster)
        # Columnar accessors answer without materialising the dict.
        assert len(cluster) >= 2
        assert cluster.object_ids()
        assert cluster.mbr.min_x <= cluster.mbr.max_x
        assert cluster._members is None
        members = cluster.members
        assert cluster._members is not None
        assert list(members) == sorted(members)

    def test_equality_and_hash_with_eager_cluster(self):
        cdb = self._batched()
        cluster = next(iter(cdb))
        eager = SnapshotCluster(
            timestamp=cluster.timestamp,
            members=dict(cluster.members),
            cluster_id=cluster.cluster_id,
        )
        assert cluster == eager and eager == cluster
        assert hash(cluster) == hash(eager)

    @staticmethod
    def _first_populated(cdb):
        for t in cdb.timestamps():
            clusters = cdb.clusters_at(t)
            if clusters:
                return t, clusters
        raise AssertionError("database has no clusters at all")

    def test_pickle_round_trip(self):
        cdb = self._batched()
        _, clusters = self._first_populated(cdb)
        restored = pickle.loads(pickle.dumps(clusters))
        assert restored == clusters


class TestBatchedBuilder:
    def test_each_snapshot_is_one_frame(self):
        cdb = self._build()
        for t in cdb.timestamps():
            clusters = cdb.clusters_at(t)
            if clusters:
                frame = clusters[0]._frame
                assert frame.timestamp == t
                assert frame.clusters == tuple(clusters)
                assert [c._index for c in clusters] == list(range(len(frame.clusters)))

    def _build(self):
        database = _random_database(seed=21)
        return build_cluster_database_batched(database, eps=120.0, min_points=2)

    def test_empty_snapshots_are_preserved(self):
        database = TrajectoryDatabase()
        # Two far-apart singletons: every snapshot exists, all points noise.
        database.add(Trajectory(1, [(0.0, Point(0.0, 0.0)), (3.0, Point(0.0, 0.0))]))
        database.add(
            Trajectory(2, [(0.0, Point(9e5, 9e5)), (3.0, Point(9e5, 9e5))])
        )
        cdb = build_cluster_database_batched(database, eps=10.0, min_points=2)
        scalar = build_cluster_database(database, eps=10.0, min_points=2, method="grid")
        assert cdb.timestamps() == scalar.timestamps()
        assert cdb.snapshot_count() == scalar.snapshot_count() == 4
        assert len(cdb) == len(scalar) == 0

    def test_parallel_numpy_blocks_match_serial(self):
        database = _random_database(seed=33)
        serial = build_cluster_database(database, eps=120.0, min_points=2, method="numpy")
        parallel = build_cluster_database(
            database, eps=120.0, min_points=2, method="numpy", workers=2
        )
        assert parallel.timestamps() == serial.timestamps()
        for t in serial.timestamps():
            assert [
                (c.cluster_id, c.members) for c in parallel.clusters_at(t)
            ] == [(c.cluster_id, c.members) for c in serial.clusters_at(t)]
