"""Backend parity: the vectorized engine must reproduce the scalar reference.

Randomized scenarios from :mod:`repro.datagen` are mined with both the
``"python"`` reference backend and the ``"numpy"`` columnar backend; the
resulting snapshot clusters, closed crowds and closed gatherings must be
identical.  The numpy backend runs one phase-2 path (the proximity-graph
sweep), which must agree with every scalar range-search scheme.
"""

import numpy as np
import pytest

from repro.clustering.dbscan import dbscan
from repro.core.config import GatheringParameters
from repro.core.crowd_discovery import discover_closed_crowds
from repro.core.pipeline import GatheringMiner, IncrementalGatheringMiner
from repro.datagen.events import GatheringEvent
from repro.datagen.simulator import SimulationConfig, TaxiFleetSimulator
from repro.engine.registry import ExecutionConfig
from repro.geometry.point import Point

PARAMS = GatheringParameters(
    eps=200.0, min_points=3, mc=5, delta=300.0, kc=8, kp=6, mp=4
)


def scenario_for_seed(seed, fleet_size=70, duration=40):
    simulator = TaxiFleetSimulator(seed=seed)
    config = SimulationConfig(fleet_size=fleet_size, duration=duration, cruise_speed=600.0)
    event = GatheringEvent(
        center=Point(2500.0 + 100.0 * seed, 2500.0), start=4, end=duration - 5,
        participants=18,
    )
    return simulator.simulate(config, gathering_events=[event])


def crowd_keys(crowds):
    return sorted(c.keys() for c in crowds)


def gathering_keys(gatherings):
    return sorted((g.keys(), tuple(sorted(g.participator_ids))) for g in gatherings)


class TestDbscanParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_point_clouds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 500))
        points = rng.uniform(0, 2000, size=(n, 2))
        # A few duplicated points exercise zero-distance edge cases.
        if n > 10:
            points[-5:] = points[:5]
        eps = float(rng.uniform(20, 300))
        min_points = int(rng.integers(1, 8))
        reference = dbscan(points, eps, min_points, method="naive")
        assert dbscan(points, eps, min_points, method="grid") == reference
        assert dbscan(points, eps, min_points, method="numpy") == reference

    @pytest.mark.parametrize("seed", (11, 12))
    def test_simulated_snapshots(self, seed):
        scenario = scenario_for_seed(seed, fleet_size=50, duration=10)
        for t in scenario.database.timestamps(step=1.0):
            positions = scenario.database.snapshot(t)
            coords = [(p.x, p.y) for p in positions.values()]
            assert dbscan(coords, 200.0, 3, method="numpy") == dbscan(
                coords, 200.0, 3, method="grid"
            )


class TestRangeSearchParity:
    @pytest.mark.parametrize("strategy", ("BRUTE", "SR", "IR", "GRID"))
    @pytest.mark.parametrize("seed", (21, 22))
    def test_crowds_identical_across_backends(self, strategy, seed):
        scenario = scenario_for_seed(seed)
        cluster_db = GatheringMiner(PARAMS).cluster(scenario.database)
        reference = discover_closed_crowds(cluster_db, PARAMS, strategy=strategy)
        vectorized = discover_closed_crowds(
            cluster_db, PARAMS, config=ExecutionConfig(backend="numpy")
        )
        assert crowd_keys(vectorized.closed_crowds) == crowd_keys(reference.closed_crowds)
        assert crowd_keys(vectorized.open_candidates) == crowd_keys(reference.open_candidates)

    @pytest.mark.parametrize("seed", (23,))
    def test_chunk_size_does_not_change_crowds(self, seed):
        scenario = scenario_for_seed(seed)
        cluster_db = GatheringMiner(PARAMS).cluster(scenario.database)
        results = [
            discover_closed_crowds(
                cluster_db, PARAMS, strategy="GRID",
                config=ExecutionConfig(backend="numpy", chunk_size=chunk),
            )
            for chunk in (1, 3, 4096)
        ]
        keys = {tuple(map(tuple, crowd_keys(r.closed_crowds))) for r in results}
        assert len(keys) == 1


class TestEndToEndParity:
    @pytest.mark.parametrize("seed", (31, 32, 33))
    def test_full_pipeline(self, seed):
        scenario = scenario_for_seed(seed)
        reference = GatheringMiner(PARAMS).mine(scenario.database)
        vectorized = GatheringMiner(
            PARAMS, config=ExecutionConfig(backend="numpy")
        ).mine(scenario.database)
        assert len(vectorized.cluster_db) == len(reference.cluster_db)
        assert [c.key() for c in vectorized.cluster_db] == [
            c.key() for c in reference.cluster_db
        ]
        assert crowd_keys(vectorized.closed_crowds) == crowd_keys(reference.closed_crowds)
        assert gathering_keys(vectorized.gatherings) == gathering_keys(reference.gatherings)

    def test_incremental_parity_and_merged_cluster_db(self):
        scenario = scenario_for_seed(41)
        cluster_db = GatheringMiner(PARAMS).cluster(scenario.database)
        timestamps = cluster_db.timestamps()
        half = timestamps[len(timestamps) // 2]
        first = cluster_db.slice_time(timestamps[0], half)
        second = cluster_db.slice_time(half + 1e-9, timestamps[-1])

        miners = {
            "python": IncrementalGatheringMiner(PARAMS),
            "numpy": IncrementalGatheringMiner(
                PARAMS, config=ExecutionConfig(backend="numpy")
            ),
        }
        results = {}
        for name, miner in miners.items():
            miner.update(first)
            results[name] = miner.update(second)
        assert crowd_keys(miners["numpy"].closed_crowds) == crowd_keys(
            miners["python"].closed_crowds
        )
        assert gathering_keys(miners["numpy"].gatherings) == gathering_keys(
            miners["python"].gatherings
        )
        # The returned MiningResult reports the merged database, not just the
        # latest batch, so summary() shows global counts.
        for result in results.values():
            assert result.cluster_db.snapshot_count() == cluster_db.snapshot_count()
            assert result.summary()["snapshots"] == cluster_db.snapshot_count()
            assert result.summary()["clusters"] == len(cluster_db)

    def test_overlapping_batches_do_not_duplicate_clusters(self):
        # The crowd sweep tolerates a re-delivered boundary snapshot
        # (start_after skips it); the merged cluster database must too.
        scenario = scenario_for_seed(42, fleet_size=40, duration=12)
        cluster_db = GatheringMiner(PARAMS).cluster(scenario.database)
        timestamps = cluster_db.timestamps()
        boundary = timestamps[len(timestamps) // 2]
        first = cluster_db.slice_time(timestamps[0], boundary)
        second = cluster_db.slice_time(boundary, timestamps[-1])  # overlaps!

        miner = IncrementalGatheringMiner(PARAMS)
        miner.update(first)
        result = miner.update(second)
        assert len(result.cluster_db) == len(cluster_db)
        assert [c.key() for c in result.cluster_db.clusters_at(boundary)] == [
            c.key() for c in cluster_db.clusters_at(boundary)
        ]
