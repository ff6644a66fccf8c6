"""Tests for multiprocessing phase-1 clustering."""

from repro.clustering.snapshot import build_cluster_database
from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner
from repro.datagen.simulator import SimulationConfig, TaxiFleetSimulator
from repro.engine.registry import ExecutionConfig


def small_database(seed=9):
    simulator = TaxiFleetSimulator(seed=seed)
    return simulator.simulate(SimulationConfig(fleet_size=40, duration=12)).database


def cluster_keys(cdb):
    return [(c.key(), c.object_ids()) for c in cdb]


class TestParallelClustering:
    def test_matches_serial(self):
        database = small_database()
        serial = build_cluster_database(database, eps=200.0, min_points=3)
        parallel = build_cluster_database(
            database, eps=200.0, min_points=3, workers=2
        )
        assert cluster_keys(parallel) == cluster_keys(serial)

    def test_single_worker_degrades_to_serial(self):
        database = small_database()
        serial = build_cluster_database(database, eps=200.0, min_points=3)
        inline = build_cluster_database(
            database, eps=200.0, min_points=3, workers=1
        )
        assert cluster_keys(inline) == cluster_keys(serial)

    def test_miner_uses_workers_from_config(self):
        database = small_database()
        params = GatheringParameters(eps=200.0, min_points=3, mc=4, kc=4, kp=3, mp=3)
        reference = GatheringMiner(params).cluster(database)
        pooled = GatheringMiner(
            params, config=ExecutionConfig(backend="numpy", workers=2)
        ).cluster(database)
        assert cluster_keys(pooled) == cluster_keys(reference)
