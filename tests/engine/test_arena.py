"""Unit tests for the disk-backed arena machinery (``engine.arena``).

Covers the spool's append/finalize contract and its error paths, the
object-id partitioner, the partial-arena merge, block sizing, and the
layout invariants of the clustered spill that the batched phase-1
executor writes (the property suite in
``tests/properties/test_property_outofcore.py`` covers the bit-parity
claims on random databases).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine.arena import (
    DEFAULT_SPILL_BLOCK_ROWS,
    SPILL_MANIFEST,
    ArenaSpool,
    build_arena_block,
    effective_snapshot_block,
    merge_arenas,
    partition_object_ids,
    verify_arena_dir,
)
from repro.engine.phase1 import build_cluster_database_batched
from repro.geometry.point import Point
from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase


def small_database(objects: int = 6, duration: int = 8) -> TrajectoryDatabase:
    database = TrajectoryDatabase()
    rng = np.random.default_rng(7)
    for object_id in range(objects):
        base = rng.uniform(0.0, 300.0, size=2)
        samples = [
            (float(t), Point(float(base[0] + 5.0 * t), float(base[1] - 3.0 * t)))
            for t in range(duration)
        ]
        database.add(Trajectory(object_id, samples))
    return database


class TestArenaSpool:
    def test_append_finalize_round_trip(self, tmp_path):
        spool = ArenaSpool(str(tmp_path))
        ts = np.array([0, 0, 1], dtype=np.int64)
        oids = np.array([4, 7, 4], dtype=np.int64)
        coords = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        spool.append(ts, oids, coords)
        spool.append(ts + 2, oids, coords * 10.0)
        assert spool.rows == 6
        out_ts, out_oids, out_coords = spool.finalize()
        assert isinstance(out_ts, np.memmap)
        assert isinstance(out_coords, np.memmap)
        assert np.array_equal(out_ts, np.concatenate([ts, ts + 2]))
        assert np.array_equal(out_oids, np.concatenate([oids, oids]))
        assert np.array_equal(out_coords, np.concatenate([coords, coords * 10.0]))

    def test_unique_subdirectories_per_spool(self, tmp_path):
        first = ArenaSpool(str(tmp_path))
        second = ArenaSpool(str(tmp_path))
        assert first.directory != second.directory
        assert os.path.dirname(first.directory) == str(tmp_path)

    def test_empty_spool_finalizes_to_plain_empty_arrays(self, tmp_path):
        ts, oids, coords = ArenaSpool(str(tmp_path)).finalize()
        # np.memmap refuses zero-length files, so empties stay in RAM.
        assert not isinstance(ts, np.memmap)
        assert ts.shape == (0,) and oids.shape == (0,) and coords.shape == (0, 2)

    def test_labels_column_is_spooled_when_requested(self, tmp_path):
        spool = ArenaSpool(str(tmp_path), with_labels=True)
        labels = np.array([0, 0, 1], dtype=np.int64)
        spool.append(
            np.zeros(3, dtype=np.int64),
            np.arange(3, dtype=np.int64),
            np.zeros((3, 2)),
            labels=labels,
        )
        columns = spool.finalize()
        assert len(columns) == 4
        assert np.array_equal(columns[3], labels)

    def test_mismatched_row_counts_rejected(self, tmp_path):
        spool = ArenaSpool(str(tmp_path))
        with pytest.raises(ValueError, match="disagree"):
            spool.append(
                np.zeros(3, dtype=np.int64),
                np.zeros(2, dtype=np.int64),
                np.zeros((3, 2)),
            )

    def test_labels_required_iff_with_labels(self, tmp_path):
        labelled = ArenaSpool(str(tmp_path), with_labels=True)
        with pytest.raises(ValueError, match="labels column required"):
            labelled.append(
                np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.zeros((1, 2))
            )
        plain = ArenaSpool(str(tmp_path))
        with pytest.raises(ValueError, match="without a labels column"):
            plain.append(
                np.zeros(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.zeros((1, 2)),
                labels=np.zeros(1, dtype=np.int64),
            )


class TestPartitionObjectIds:
    def test_contiguous_near_equal_groups(self):
        groups = partition_object_ids([5, 1, 9, 3, 7, 2, 8], 3)
        assert groups == [[1, 2, 3], [5, 7], [8, 9]]
        assert sum(len(g) for g in groups) == 7

    def test_more_shards_than_objects_drops_empties(self):
        assert partition_object_ids([2, 1], 5) == [[1], [2]]

    def test_invalid_shards_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            partition_object_ids([1, 2], 0)


class TestMergeArenas:
    def test_merge_restores_unsharded_row_order(self):
        database = small_database()
        timestamps = [float(t) for t in range(8)]
        reference = database.positions_matrix(timestamps)
        groups = partition_object_ids(database.object_ids(), 3)
        partials = [
            database.subset_objects(group).positions_matrix(timestamps)
            for group in groups
        ]
        merged = merge_arenas(timestamps, partials)
        assert merged.timestamps == reference.timestamps
        assert np.array_equal(merged.ts_index, reference.ts_index)
        assert np.array_equal(merged.object_ids, reference.object_ids)
        assert np.array_equal(merged.coords, reference.coords)
        assert np.array_equal(merged.offsets, reference.offsets)

    def test_merge_of_nothing_is_a_valid_empty_arena(self):
        merged = merge_arenas([0.0, 1.0, 2.0], [])
        assert merged.point_count == 0
        assert np.array_equal(merged.offsets, np.zeros(4, dtype=np.int64))


class TestBuildArenaBlock:
    def test_single_shard_delegates_to_positions_matrix(self):
        database = small_database()
        timestamps = [0.0, 1.0, 2.0]
        plain = database.positions_matrix(timestamps)
        block = build_arena_block(database, timestamps, object_shards=1)
        assert np.array_equal(block.coords, plain.coords)

    def test_invalid_object_shards_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_arena_block(small_database(), [0.0], object_shards=0)


class TestEffectiveSnapshotBlock:
    def test_budget_clamps_block_to_row_budget(self):
        database = small_database(objects=6)
        # 6 objects, budget 20 rows -> 3 snapshots per block.
        assert effective_snapshot_block(database, None, row_budget=20) == 3

    def test_explicit_block_caps_but_never_raises_the_budget(self):
        database = small_database(objects=6)
        assert effective_snapshot_block(database, 2, row_budget=20) == 2
        assert effective_snapshot_block(database, 100, row_budget=20) == 3

    def test_defaults(self):
        database = small_database(objects=6)
        expected = DEFAULT_SPILL_BLOCK_ROWS // 6
        assert effective_snapshot_block(database, None) == expected

    def test_invalid_block_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            effective_snapshot_block(small_database(), 0)

    def test_empty_database_still_yields_a_block(self):
        assert effective_snapshot_block(TrajectoryDatabase(), None, row_budget=10) == 10


def spilled(database, spill_dir, **kwargs):
    return build_cluster_database_batched(
        database, eps=150.0, min_points=2, spill_dir=str(spill_dir), **kwargs
    )


def frames_of(cluster_db):
    return [
        cluster_db.clusters_at(t)[0].segment()[0]
        for t in cluster_db.timestamps()
        if cluster_db.clusters_at(t)
    ]


def arena_dirs(spill_dir):
    return sorted(
        os.path.join(spill_dir, entry)
        for entry in os.listdir(spill_dir)
        if entry.startswith("arena-")
    )


class TestClusteredSpill:
    def test_spilled_arena_matches_in_ram_across_block_sizes(self, tmp_path):
        database = small_database()
        reference = build_cluster_database_batched(database, eps=150.0, min_points=2)
        ram_frames = frames_of(reference)
        assert ram_frames
        for block in (1, 3, 100):
            spill_dir = tmp_path / f"block-{block}"
            frames = frames_of(spilled(database, spill_dir, snapshot_block=block))
            # One finalised arena per run: the clustered columns plus labels,
            # checksummed, with the clustered rows only (noise dropped).
            (directory,) = arena_dirs(spill_dir)
            manifest = verify_arena_dir(directory)
            assert sorted(manifest["columns"]) == [
                "coords",
                "labels",
                "object_ids",
                "ts_index",
            ]
            assert manifest["rows"] == sum(len(f.object_ids) for f in ram_frames)
            assert len(frames) == len(ram_frames)
            for ram, disk in zip(ram_frames, frames):
                assert disk.timestamp == ram.timestamp
                assert np.array_equal(disk.coords, ram.coords)
                assert np.array_equal(disk.object_ids, ram.object_ids)
                assert np.array_equal(disk.offsets, ram.offsets)
                assert np.array_equal(disk.cluster_ids, ram.cluster_ids)

    def test_snapshot_slices_are_zero_copy_file_views(self, tmp_path):
        frames = frames_of(spilled(small_database(), tmp_path, snapshot_block=2))
        window = frames[len(frames) // 2].coords
        # A contiguous slice of a memmap is itself a memmap view (no copy).
        assert isinstance(window, np.memmap)
        assert window.base is not None

    def test_spilled_columns_are_read_only(self, tmp_path):
        frames = frames_of(spilled(small_database(), tmp_path))
        with pytest.raises(ValueError):
            frames[0].coords[0, 0] = 42.0

    def test_empty_database_spills_cleanly(self, tmp_path):
        cluster_db = spilled(TrajectoryDatabase(), tmp_path, timestamps=[0.0, 1.0])
        assert cluster_db.timestamps() == [0.0, 1.0]
        assert len(cluster_db) == 0
        (directory,) = arena_dirs(tmp_path)
        assert os.path.exists(os.path.join(directory, SPILL_MANIFEST))
        assert verify_arena_dir(directory)["rows"] == 0
