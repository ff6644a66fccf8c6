"""Property: out-of-core (mmap-arena) mining ≡ in-RAM mining, bit for bit.

The spilled phase-1 path (``engine.arena`` + ``spill_dir``) claims *exact*
answer parity with the in-RAM batched builder: same cluster databases
(ids, member maps with bit-identical interpolated coordinates), same
crowds, same gatherings, same store round-trips — while its frames are
read-only ``np.memmap`` slices of on-disk columns.  These properties drive
random irregular databases through every combination surface: spill block
sizes, ``snapshot_block × workers`` grids, and the pattern store.

Spill directories are created with ``tempfile.TemporaryDirectory`` inside
the test bodies (hypothesis forbids function-scoped fixtures such as
``tmp_path``).
"""

from __future__ import annotations

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner
from repro.engine.phase1 import build_cluster_database_batched
from repro.engine.registry import ExecutionConfig
from repro.geometry.point import Point
from repro.store import PatternStore
from repro.trajectory.trajectory import Trajectory, TrajectoryDatabase

NUMPY = ExecutionConfig(backend="numpy")

LOOSE_PARAMS = GatheringParameters(
    eps=150.0, min_points=2, mc=2, delta=400.0, kc=3, kp=2, mp=2
)


@st.composite
def trajectory_databases(draw):
    """Small random fleets with irregular per-object sampling."""
    n_objects = draw(st.integers(min_value=3, max_value=12))
    duration = draw(st.integers(min_value=4, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = np.random.default_rng(seed)
    trajectories = []
    centres = rng.uniform(0.0, 600.0, size=(3, 2))
    for object_id in range(n_objects):
        n_samples = int(rng.integers(2, 2 * duration))
        times = np.sort(rng.uniform(0.0, float(duration), size=n_samples))
        centre = centres[int(rng.integers(0, len(centres)))]
        walk = np.cumsum(rng.normal(0.0, 60.0, size=(n_samples, 2)), axis=0)
        coords = centre + walk
        trajectories.append(
            Trajectory(
                object_id,
                [
                    (float(t), Point(float(x), float(y)))
                    for t, (x, y) in zip(times, coords)
                ],
            )
        )
    return TrajectoryDatabase(trajectories)


def _assert_cluster_dbs_identical(reference, other):
    assert other.timestamps() == reference.timestamps()
    assert other.snapshot_count() == reference.snapshot_count()
    for timestamp in reference.timestamps():
        ref_clusters = reference.clusters_at(timestamp)
        oth_clusters = other.clusters_at(timestamp)
        assert len(oth_clusters) == len(ref_clusters)
        for ref, oth in zip(ref_clusters, oth_clusters):
            assert oth.cluster_id == ref.cluster_id
            assert oth.object_ids() == ref.object_ids()
            # Bit-identical interpolated coordinates (dict equality on
            # Point floats) — the spilled columns round-trip through disk.
            assert oth.members == ref.members


def _frames(cluster_db):
    """The frame behind each non-empty snapshot, in time order."""
    frames = []
    for timestamp in cluster_db.timestamps():
        clusters = cluster_db.clusters_at(timestamp)
        if clusters:
            frames.append(clusters[0].segment()[0])
    return frames


def crowd_keys(crowds):
    return sorted(crowd.keys() for crowd in crowds)


def gathering_keys(gatherings):
    return sorted((g.keys(), tuple(sorted(g.participator_ids))) for g in gatherings)


def mining_answer(result):
    return crowd_keys(result.closed_crowds), gathering_keys(result.gatherings)


class TestSpilledArenaParity:
    @given(trajectory_databases(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_spilled_arena_columns_bit_identical(self, database, block):
        """The clustered spool's columns equal the in-RAM clustered columns."""
        in_ram = build_cluster_database_batched(database, eps=150.0, min_points=2)
        with tempfile.TemporaryDirectory() as spill_dir:
            spilled = build_cluster_database_batched(
                database,
                eps=150.0,
                min_points=2,
                snapshot_block=block,
                spill_dir=spill_dir,
            )
            ram_frames = _frames(in_ram)
            spilled_frames = _frames(spilled)
            assert [f.timestamp for f in spilled_frames] == [
                f.timestamp for f in ram_frames
            ]
            for ram, disk in zip(ram_frames, spilled_frames):
                # Frames are zero-copy slices of the memmapped spool files.
                assert isinstance(disk.coords, np.memmap)
                assert isinstance(disk.object_ids, np.memmap)
                for column in ("coords", "object_ids", "offsets", "cluster_ids"):
                    assert np.array_equal(
                        np.asarray(getattr(disk, column)),
                        np.asarray(getattr(ram, column)),
                    ), column

    @given(trajectory_databases(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_spilled_clustering_identical(self, database, block):
        in_ram = build_cluster_database_batched(database, eps=150.0, min_points=2)
        with tempfile.TemporaryDirectory() as spill_dir:
            spilled = build_cluster_database_batched(
                database,
                eps=150.0,
                min_points=2,
                snapshot_block=block,
                spill_dir=spill_dir,
            )
            _assert_cluster_dbs_identical(in_ram, spilled)


class TestOutOfCoreMiningParity:
    @given(trajectory_databases())
    @settings(max_examples=10, deadline=None)
    def test_mmap_mining_matches_in_ram(self, database):
        reference = GatheringMiner(LOOSE_PARAMS, config=NUMPY).mine(database)
        with tempfile.TemporaryDirectory() as spill_dir:
            config = ExecutionConfig(backend="numpy", spill_dir=spill_dir)
            out_of_core = GatheringMiner(LOOSE_PARAMS, config=config).mine(database)
            assert mining_answer(out_of_core) == mining_answer(reference)
            _assert_cluster_dbs_identical(
                reference.cluster_db, out_of_core.cluster_db
            )

    @given(
        trajectory_databases(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=10, deadline=None)
    def test_snapshot_block_by_worker_grid(self, database, block, workers):
        """The full grid: snapshot blocks on workers × spill."""
        reference = GatheringMiner(LOOSE_PARAMS, config=NUMPY).mine(database)
        with tempfile.TemporaryDirectory() as spill_dir:
            cluster_db = build_cluster_database_batched(
                database,
                eps=LOOSE_PARAMS.eps,
                min_points=LOOSE_PARAMS.min_points,
                snapshot_block=block,
                spill_dir=spill_dir,
                workers=workers,
            )
            gridded = GatheringMiner(LOOSE_PARAMS, config=NUMPY).mine_clusters(
                cluster_db
            )
            assert mining_answer(gridded) == mining_answer(reference)

    @given(trajectory_databases())
    @settings(max_examples=8, deadline=None)
    def test_store_round_trip_from_mmap_frames(self, database):
        """Spilled frame-backed patterns persist identically to in-RAM ones."""
        reference = GatheringMiner(LOOSE_PARAMS, config=NUMPY).mine(database)
        with tempfile.TemporaryDirectory() as spill_dir:
            config = ExecutionConfig(backend="numpy", spill_dir=spill_dir)
            out_of_core = GatheringMiner(LOOSE_PARAMS, config=config).mine(database)
            ref_store = PatternStore(":memory:")
            ooc_store = PatternStore(":memory:")
            try:
                reference.write_to(ref_store)
                out_of_core.write_to(ooc_store)
                assert ooc_store.crowd_count() == ref_store.crowd_count()
                assert ooc_store.gathering_count() == ref_store.gathering_count()
                assert crowd_keys(ooc_store.crowds()) == crowd_keys(ref_store.crowds())
                # Idempotence holds for memmap-backed patterns too.
                out_of_core.write_to(ooc_store)
                assert ooc_store.crowd_count() == ref_store.crowd_count()
            finally:
                ref_store.close()
                ooc_store.close()
