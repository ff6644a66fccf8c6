"""Crash-safe spill machinery: manifests, verification, cleanup, rebuilds."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.engine.arena import (
    SPILL_MANIFEST,
    ArenaSpool,
    SpillCorruptionError,
    reap_orphaned_spills,
    verify_arena_dir,
)
from repro.engine.phase1 import build_cluster_database_batched
from repro.geometry.point import Point
from repro.resilience.faults import FaultPlan, FaultSpec, clear_plan, install_plan
from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase


@pytest.fixture(autouse=True)
def _clean_fault_state():
    clear_plan()
    yield
    clear_plan()


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


def _fill(spool: ArenaSpool, rows: int = 8) -> None:
    spool.append(
        np.arange(rows, dtype=np.int64),
        np.arange(rows, dtype=np.int64),
        np.ones((rows, 2), dtype=np.float64),
    )


class TestContextManager:
    def test_error_before_finalize_removes_partial_spill(self, tmp_path):
        with pytest.raises(RuntimeError, match="mid-build"):
            with ArenaSpool(str(tmp_path)) as spool:
                _fill(spool)
                assert os.path.isdir(spool.directory)
                raise RuntimeError("mid-build failure")
        assert not os.path.exists(spool.directory)
        assert os.listdir(tmp_path) == []

    def test_clean_exit_without_finalize_also_removes(self, tmp_path):
        with ArenaSpool(str(tmp_path)) as spool:
            _fill(spool)
        assert not os.path.exists(spool.directory)

    def test_finalized_spill_is_kept(self, tmp_path):
        with ArenaSpool(str(tmp_path)) as spool:
            _fill(spool)
            spool.finalize()
        assert os.path.isdir(spool.directory)
        assert os.path.exists(os.path.join(spool.directory, SPILL_MANIFEST))


class TestVerification:
    def test_finalized_spill_passes(self, tmp_path):
        spool = ArenaSpool(str(tmp_path))
        _fill(spool)
        spool.finalize()
        document = verify_arena_dir(spool.directory)
        assert document["rows"] == 8
        assert set(document["columns"]) == {"ts_index", "object_ids", "coords"}

    def test_flipped_bytes_fail_the_checksum(self, tmp_path):
        spool = ArenaSpool(str(tmp_path))
        _fill(spool)
        spool.finalize()
        coords = os.path.join(spool.directory, "coords.bin")
        with open(coords, "r+b") as handle:
            handle.seek(16)
            handle.write(b"\xff\xff\xff\xff")
        with pytest.raises(SpillCorruptionError, match="checksum"):
            verify_arena_dir(spool.directory)

    def test_truncated_column_fails_on_size(self, tmp_path):
        spool = ArenaSpool(str(tmp_path))
        _fill(spool)
        spool.finalize()
        coords = os.path.join(spool.directory, "coords.bin")
        os.truncate(coords, os.path.getsize(coords) // 2)
        with pytest.raises(SpillCorruptionError, match="bytes"):
            verify_arena_dir(spool.directory)

    def test_missing_manifest_fails(self, tmp_path):
        target = tmp_path / "arena-zzz"
        target.mkdir()
        with pytest.raises(SpillCorruptionError, match="manifest"):
            verify_arena_dir(str(target))

    def test_garbage_manifest_fails(self, tmp_path):
        spool = ArenaSpool(str(tmp_path))
        _fill(spool)
        spool.finalize()
        manifest = os.path.join(spool.directory, SPILL_MANIFEST)
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump({"format": "something-else"}, handle)
        with pytest.raises(SpillCorruptionError, match="format"):
            verify_arena_dir(spool.directory)


class TestOrphanReaping:
    def test_reaps_only_old_manifestless_arena_dirs(self, tmp_path):
        # A finalised spill, an old orphan, a fresh partial, and a bystander.
        done = ArenaSpool(str(tmp_path))
        _fill(done)
        done.finalize()
        orphan = tmp_path / "arena-orphan"
        orphan.mkdir()
        old = 1_000_000_000.0
        os.utime(orphan, (old, old))
        fresh = tmp_path / "arena-fresh"
        fresh.mkdir()
        bystander = tmp_path / "not-an-arena"
        bystander.mkdir()
        os.utime(bystander, (old, old))

        removed = reap_orphaned_spills(str(tmp_path), min_age_seconds=3600.0)
        assert removed == [str(orphan)]
        assert not orphan.exists()
        assert os.path.isdir(done.directory)
        assert fresh.exists()
        assert bystander.exists()

    def test_missing_spill_dir_is_a_noop(self, tmp_path):
        assert reap_orphaned_spills(str(tmp_path / "nowhere")) == []


def _spilled_cluster_db(database, spill_dir, **kwargs):
    return build_cluster_database_batched(
        database, eps=150.0, min_points=2, spill_dir=str(spill_dir), **kwargs
    )


def _clusters(cluster_db):
    return [
        (c.timestamp, c.cluster_id, sorted(c.members.items())) for c in cluster_db
    ]


class TestCorruptionRebuild:
    def test_spill_corrupt_fault_triggers_bit_identical_rebuild(self, tmp_path):
        database = small_database()
        reference = _spilled_cluster_db(database, tmp_path / "clean", snapshot_block=3)
        assert len(reference)
        # In-process and pooled: the parent owns the spool either way.
        for workers in (1, 2):
            chaos_dir = tmp_path / f"chaos-{workers}"
            plan = FaultPlan([FaultSpec("spill.corrupt", times=1)])
            install_plan(plan)
            rebuilt = _spilled_cluster_db(
                database, chaos_dir, snapshot_block=3, workers=workers
            )
            assert plan.fired_counts() == {"spill.corrupt": 1}
            assert rebuilt.timestamps() == reference.timestamps()
            assert _clusters(rebuilt) == _clusters(reference)
            # The corrupted first attempt must not linger on disk.
            arena_dirs = [
                entry for entry in os.listdir(chaos_dir) if entry.startswith("arena-")
            ]
            assert len(arena_dirs) == 1

    def test_persistent_corruption_raises_after_retry(self, tmp_path):
        install_plan(FaultPlan([FaultSpec("spill.corrupt", times=10)]))
        with pytest.raises(SpillCorruptionError, match="twice"):
            _spilled_cluster_db(small_database(), tmp_path)
        assert [e for e in os.listdir(tmp_path) if e.startswith("arena-")] == []
