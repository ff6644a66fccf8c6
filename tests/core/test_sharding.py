"""Phase-1 parallelism over the time axis: block plan, pooled parity, store sink.

Phase 1 clusters every snapshot independently, so a contiguous block of
timestamps is its one unit of parallelism.  These tests pin the block plan
of the numpy executor (two blocks per worker, each snapshot exactly once,
in time order) and check that a pooled ``GatheringMiner`` mines exactly
what a single-process run mines, on both backends and through the store.
"""

from __future__ import annotations

import pytest

from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner
from repro.datagen.scenarios import city_scenario
from repro.engine import phase1
from repro.engine.phase1 import build_cluster_database_batched
from repro.engine.registry import ExecutionConfig
from repro.geometry.point import Point
from repro.store import PatternStore
from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase

PARAMS = GatheringParameters(
    eps=200.0, min_points=4, mc=5, delta=300.0, kc=10, kp=6, mp=3, time_step=1.0
)


def crowd_keys(result):
    return {crowd.keys() for crowd in result.closed_crowds}


def gathering_keys(result):
    return {(g.keys(), g.participator_ids) for g in result.gatherings}


def pooled(workers, backend="python", **overrides):
    return GatheringMiner(
        PARAMS, config=ExecutionConfig(backend=backend, workers=workers, **overrides)
    )


@pytest.fixture(scope="module")
def city():
    return city_scenario(fleet_size=320, duration=48, districts=4, seed=97).database


@pytest.fixture(scope="module")
def reference(city):
    return GatheringMiner(PARAMS).mine(city)


def block_plan(monkeypatch, database, workers, timestamps=None):
    """The timestamp blocks the numpy executor interpolates, in order."""
    seen = []
    real = phase1.build_arena_block

    def spy(db, block, **kwargs):
        seen.append(tuple(block))
        return real(db, block, **kwargs)

    monkeypatch.setattr(phase1, "build_arena_block", spy)
    build_cluster_database_batched(
        database, timestamps=timestamps, eps=50.0, min_points=2, workers=workers
    )
    return seen


def tiny_database():
    database = TrajectoryDatabase()
    for object_id in range(3):
        database.add(
            Trajectory(object_id, [(0.0, Point(0.0, 0.0)), (9.0, Point(9.0, 0.0))])
        )
    return database


class TestPartition:
    def test_near_equal_contiguous_chunks(self, monkeypatch):
        # 7 snapshots over 3 workers: ceil(7 / 6) = 2 snapshots per block.
        timestamps = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        plan = block_plan(monkeypatch, tiny_database(), 3, timestamps)
        assert plan == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0), (6.0,)]

    def test_more_shards_than_timestamps_drops_empties(self, monkeypatch):
        assert block_plan(monkeypatch, tiny_database(), 5, [0.0, 1.0]) == [
            (0.0,),
            (1.0,),
        ]

    def test_single_shard_is_identity(self, monkeypatch):
        assert block_plan(monkeypatch, tiny_database(), 1, [0.0, 1.0, 2.0]) == [
            (0.0, 1.0, 2.0)
        ]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError, match="snapshot_block"):
            build_cluster_database_batched(tiny_database(), snapshot_block=0)


class TestPlanning:
    def test_plan_covers_every_snapshot_once(self, city, monkeypatch):
        timestamps = city.timestamps(step=PARAMS.time_step)
        plan = block_plan(monkeypatch, city, 4)
        assert [t for block in plan for t in block] == timestamps
        # Two blocks per worker, capped at the in-RAM block size.
        assert max(len(block) for block in plan) == min(
            -(-len(timestamps) // 8), phase1.DEFAULT_SNAPSHOT_BLOCK
        )

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(workers=0)
        with pytest.raises(ValueError):
            ExecutionConfig(object_shards=0)


class TestStitchedParity:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_sharded_equals_unsharded(self, city, reference, workers):
        result = pooled(workers).mine(city)
        assert crowd_keys(result) == crowd_keys(reference)
        assert gathering_keys(result) == gathering_keys(reference)

    def test_merged_cluster_db_matches(self, city, reference):
        result = pooled(4, backend="numpy").mine(city)
        assert result.cluster_db.timestamps() == reference.cluster_db.timestamps()
        assert len(result.cluster_db) == len(reference.cluster_db)

    def test_numpy_backend_parity(self, city, reference):
        result = pooled(3, backend="numpy").mine(city)
        assert crowd_keys(result) == crowd_keys(reference)
        assert gathering_keys(result) == gathering_keys(reference)


class TestStoreSink:
    def test_mine_writes_store(self, city, reference, tmp_path):
        store = PatternStore(tmp_path / "city.db")
        result = pooled(3, backend="numpy").mine(city)
        assert result.write_to(store) == {
            "crowds": len(result.closed_crowds),
            "gatherings": len(result.gatherings),
        }
        assert {c.keys() for c in store.crowds()} == crowd_keys(reference)
        assert store.params() == PARAMS

    def test_reruns_append_idempotently(self, city, tmp_path):
        store = PatternStore(tmp_path / "city.db")
        miner = pooled(2, backend="numpy")
        miner.mine(city).write_to(store)
        first = (store.crowd_count(), store.gathering_count())
        assert miner.mine(city).write_to(store) == {"crowds": 0, "gatherings": 0}
        assert (store.crowd_count(), store.gathering_count()) == first
