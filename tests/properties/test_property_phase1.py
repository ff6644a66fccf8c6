"""Property-based phase-1 parity: batched clustering vs the scalar loop.

The batched phase 1 (``engine.phase1``) claims *exact* parity with the
per-snapshot scalar path — same timestamps (including empty snapshots),
same cluster ids, bit-identical interpolated member positions — while its
clusters are lazy frame views instead of eager member dicts.  These
properties drive randomized trajectory databases (irregular sampling, so
virtual-point interpolation is exercised hard) through the batched builder
and every surface that consumes its output: direct clustering, the pooled
miner, streaming windows, and codec/store round-trips.  Gappy feeds, whose
sampling gaps span many blocks, go through every combination of workers,
spill and object shards.
"""

import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clustering.snapshot import build_cluster_database
from repro.core.codec import (
    crowd_fingerprint,
    decode_crowd,
    encode_crowd,
    gathering_fingerprint,
)
from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner
from repro.engine.frame import FrameBackedCluster
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
    database = TrajectoryDatabase()
    # A couple of attraction centres so DBSCAN actually forms clusters.
    centres = rng.uniform(0.0, 600.0, size=(3, 2))
    for object_id in range(n_objects):
        # Irregular sampling: each object is sampled at its own random
        # instants (often off the snapshot grid), so most snapshot
        # positions are interpolated virtual points, and lifespans differ
        # (objects absent from some snapshots entirely).
        n_samples = int(rng.integers(2, 2 * duration))
        times = np.sort(rng.uniform(0.0, float(duration), size=n_samples))
        centre = centres[int(rng.integers(0, len(centres)))]
        walk = np.cumsum(rng.normal(0.0, 60.0, size=(n_samples, 2)), axis=0)
        coords = centre + walk
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


def _assert_cluster_dbs_identical(reference, batched):
    assert batched.timestamps() == reference.timestamps()
    assert batched.snapshot_count() == reference.snapshot_count()
    for timestamp in reference.timestamps():
        ref_clusters = reference.clusters_at(timestamp)
        bat_clusters = batched.clusters_at(timestamp)
        assert len(bat_clusters) == len(ref_clusters)
        for ref, bat in zip(ref_clusters, bat_clusters):
            assert bat.cluster_id == ref.cluster_id
            assert bat.object_ids() == ref.object_ids()
            # Full value parity: the vectorized interpolation must produce
            # bit-identical virtual points (dict equality on Point floats).
            assert bat.members == ref.members
            assert bat == ref and hash(bat) == hash(ref)


class TestBatchedClusteringParity:
    @given(trajectory_databases())
    @settings(max_examples=30, deadline=None)
    def test_batched_matches_scalar(self, database):
        reference = build_cluster_database(
            database, eps=150.0, min_points=2, method="grid"
        )
        batched = build_cluster_database(
            database, eps=150.0, min_points=2, method="numpy"
        )
        _assert_cluster_dbs_identical(reference, batched)
        # The batched path's clusters are lazy views of its frames.
        for cluster in batched:
            assert isinstance(cluster, FrameBackedCluster)

    @given(trajectory_databases(), st.floats(min_value=0.5, max_value=3.0))
    @settings(max_examples=15, deadline=None)
    def test_batched_matches_scalar_with_max_gap(self, database, max_gap):
        reference = build_cluster_database(
            database, eps=150.0, min_points=2, method="grid", max_gap=max_gap
        )
        batched = build_cluster_database(
            database, eps=150.0, min_points=2, method="numpy", max_gap=max_gap
        )
        _assert_cluster_dbs_identical(reference, batched)

    @given(trajectory_databases(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_small_snapshot_blocks_change_nothing(self, database, block):
        whole = build_cluster_database_batched(database, eps=150.0, min_points=2)
        chunked = build_cluster_database_batched(
            database, eps=150.0, min_points=2, snapshot_block=block
        )
        _assert_cluster_dbs_identical(whole, chunked)


def crowd_keys(crowds):
    return sorted(crowd.keys() for crowd in crowds)


def gathering_keys(gatherings):
    return sorted(
        (g.keys(), tuple(sorted(g.participator_ids))) for g in gatherings
    )


class TestBatchedPhase1ThroughPipelines:
    @given(trajectory_databases(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_sharded_mining_parity(self, database, workers):
        # Scalar-vs-batched parity through the pooled one-shot miner: one
        # snapshot per job on the python backend, one block per job on numpy.
        results = {}
        for backend in ("python", "numpy"):
            config = ExecutionConfig(backend=backend, workers=workers)
            result = GatheringMiner(LOOSE_PARAMS, config=config).mine(database)
            results[backend] = (
                crowd_keys(result.closed_crowds),
                gathering_keys(result.gatherings),
            )
        assert results["numpy"] == results["python"]

    @given(trajectory_databases(), st.integers(min_value=2, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_streaming_windows_parity(self, database, window):
        from repro.stream import StreamingGatheringService

        feed = sorted(
            (trajectory.object_id, t, point.x, point.y)
            for trajectory in database
            for t, point in trajectory
        )
        results = {}
        for name, config in (("python", None), ("numpy", NUMPY)):
            service = StreamingGatheringService(
                LOOSE_PARAMS, window=window, config=config
            )
            service.ingest_many(
                (object_id, t, x, y) for object_id, t, x, y in feed
            )
            result = service.finish()
            results[name] = (
                crowd_keys(result.closed_crowds),
                gathering_keys(result.gatherings),
            )
        assert results["numpy"] == results["python"]

    @given(trajectory_databases())
    @settings(max_examples=10, deadline=None)
    def test_store_round_trip_of_frame_backed_patterns(self, database):
        mined = GatheringMiner(LOOSE_PARAMS, config=NUMPY).mine(database)
        # Codec round-trip: a frame-backed crowd decodes into an eager one
        # that compares equal and fingerprints identically.
        for crowd in mined.closed_crowds:
            decoded = decode_crowd(encode_crowd(crowd))
            assert decoded.keys() == crowd.keys()
            assert list(decoded.clusters) == list(crowd.clusters)
            assert crowd_fingerprint(decoded) == crowd_fingerprint(crowd)

        store = PatternStore(":memory:")
        try:
            mined.write_to(store)
            assert store.crowd_count() == len(mined.closed_crowds)
            assert store.gathering_count() == len(mined.gatherings)
            assert crowd_keys(store.crowds()) == crowd_keys(mined.closed_crowds)
            assert sorted(
                gathering_fingerprint(g) for g in store.gatherings()
            ) == sorted(gathering_fingerprint(g) for g in mined.gatherings)
            # Idempotence: re-writing frame-backed patterns dedupes by
            # content fingerprint exactly like eager ones.
            mined.write_to(store)
            assert store.crowd_count() == len(mined.closed_crowds)
        finally:
            store.close()


@st.composite
def gappy_feeds(draw):
    """Fleets whose sampling gaps run up to the whole duration.

    Every object is sampled at the ends of its own lifespan plus a few
    interior instants (often none), so most snapshot positions are
    interpolated across gaps that span several phase-1 blocks.
    """
    n_objects = draw(st.integers(min_value=3, max_value=10))
    duration = draw(st.integers(min_value=4, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = np.random.default_rng(seed)
    database = TrajectoryDatabase()
    centres = rng.uniform(0.0, 400.0, size=(2, 2))
    for object_id in range(n_objects):
        start = float(rng.integers(0, duration // 2 + 1))
        end = float(rng.integers(int(start) + 1, duration + 1))
        interior = rng.uniform(start, end, size=int(rng.integers(0, 3)))
        times = np.unique(np.concatenate(([start, end], interior)))
        centre = centres[int(rng.integers(0, len(centres)))]
        walk = np.cumsum(rng.normal(0.0, 40.0, size=(len(times), 2)), axis=0)
        database.add(
            Trajectory(
                object_id,
                [
                    (float(t), Point(float(x), float(y)))
                    for t, (x, y) in zip(times, centre + walk)
                ],
            )
        )
    return database


def endpoint_sampled_feed():
    """Three objects sampled every step plus one sampled only at both ends.

    All four idle together, so every snapshot holds one four-object
    cluster; the fourth object's position comes from a 19-step gap that
    spans every phase-1 block.  A time-sharded driver that sliced
    trajectories to its shard window dropped it from the interior shards.
    """
    database = TrajectoryDatabase()
    for object_id in range(3):
        samples = [(float(t), Point(500.0 + 10.0 * object_id, 500.0)) for t in range(20)]
        database.add(Trajectory(object_id, samples))
    database.add(Trajectory(3, [(0.0, Point(500.0, 510.0)), (19.0, Point(500.0, 510.0))]))
    return database


class TestGappyFeedParity:
    """One executor, every axis: gaps of any length mine exactly."""

    @given(gappy_feeds(), st.integers(min_value=1, max_value=3))
    @example(endpoint_sampled_feed(), 3)
    @settings(max_examples=10, deadline=None)
    def test_every_axis_matches_python(self, database, block):
        reference = GatheringMiner(LOOSE_PARAMS).mine(database)
        expected = (
            crowd_keys(reference.closed_crowds),
            gathering_keys(reference.gatherings),
        )
        for workers in (1, 2):
            for spill in (False, True):
                for object_shards in (1, 3):
                    with tempfile.TemporaryDirectory() as spill_dir:
                        cluster_db = build_cluster_database_batched(
                            database,
                            eps=LOOSE_PARAMS.eps,
                            min_points=LOOSE_PARAMS.min_points,
                            snapshot_block=block,
                            object_shards=object_shards,
                            spill_dir=spill_dir if spill else None,
                            workers=workers,
                        )
                        _assert_cluster_dbs_identical(reference.cluster_db, cluster_db)
                        result = GatheringMiner(
                            LOOSE_PARAMS, config=NUMPY
                        ).mine_clusters(cluster_db)
                        axes = (workers, spill, object_shards)
                        assert (
                            crowd_keys(result.closed_crowds),
                            gathering_keys(result.gatherings),
                        ) == expected, axes


def test_megacity_quick_mines_the_same_on_every_executor(tmp_path):
    """Megacity samples each object at 4 waypoints only: long gaps everywhere."""
    from repro.bench import SCENARIOS

    scenario = SCENARIOS["megacity"]
    database = scenario.build(quick=True)

    def answer(**config):
        miner = GatheringMiner(
            scenario.params, config=ExecutionConfig(backend="numpy", **config)
        )
        result = miner.mine(database)
        return crowd_keys(result.closed_crowds), gathering_keys(result.gatherings)

    in_ram = answer()
    assert (len(in_ram[0]), len(in_ram[1])) == (6, 6)
    assert answer(workers=2) == in_ram
    assert answer(spill_dir=str(tmp_path / "spill")) == in_ram
    assert answer(workers=2, spill_dir=str(tmp_path / "pooled-spill")) == in_ram
