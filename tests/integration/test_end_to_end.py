"""Integration tests: raw trajectories in, closed gatherings out."""

import math

import pytest

from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner, IncrementalGatheringMiner
from repro.datagen.events import GatheringEvent, TransientCrowdEvent
from repro.datagen.simulator import SimulationConfig, TaxiFleetSimulator
from repro.geometry.mbr import mbr_of_points
from repro.geometry.point import Point
from repro.trajectory.io import load_csv, save_csv


@pytest.fixture(scope="module")
def mixed_scenario():
    """One durable gathering plus one transient drop-off area."""
    simulator = TaxiFleetSimulator(seed=101)
    config = SimulationConfig(fleet_size=100, duration=50, cruise_speed=600.0)
    gathering = GatheringEvent(center=Point(2500, 2500), start=5, end=45, participants=20)
    transient = TransientCrowdEvent(center=Point(6000, 6000), start=5, end=45, concurrent=6, dwell=3)
    return simulator.simulate(
        config, gathering_events=[gathering], transient_events=[transient]
    )


@pytest.fixture(scope="module")
def params():
    return GatheringParameters(
        eps=200.0, min_points=3, mc=5, delta=300.0, kc=10, kp=8, mp=4
    )


class TestEndToEnd:
    def test_gathering_found_transient_rejected(self, mixed_scenario, params):
        result = GatheringMiner(params).mine(mixed_scenario.database)
        assert result.crowd_count() >= 2, "both dense areas should produce crowds"
        assert result.gathering_count() >= 1

        gathering_event = mixed_scenario.gathering_events[0]
        transient_event = mixed_scenario.transient_events[0]

        def crowd_center(crowd):
            points = [p for cluster in crowd for p in cluster.points()]
            return (
                sum(p.x for p in points) / len(points),
                sum(p.y for p in points) / len(points),
            )

        # Every reported gathering sits at the durable event, not the venue
        # with fast turnover.
        for gathering in result.gatherings:
            cx, cy = crowd_center(gathering.crowd)
            d_gathering = Point(cx, cy).distance_to(gathering_event.center)
            d_transient = Point(cx, cy).distance_to(transient_event.center)
            assert d_gathering < d_transient

    def test_round_trip_through_csv(self, mixed_scenario, params, tmp_path):
        path = tmp_path / "fleet.csv"
        save_csv(mixed_scenario.database, path)
        reloaded = load_csv(path)
        direct = GatheringMiner(params).mine(mixed_scenario.database)
        via_csv = GatheringMiner(params).mine(reloaded)
        assert sorted(c.keys() for c in direct.closed_crowds) == sorted(
            c.keys() for c in via_csv.closed_crowds
        )
        assert sorted(g.keys() for g in direct.gatherings) == sorted(
            g.keys() for g in via_csv.gatherings
        )

    def test_statistics_of_found_gatherings(self, mixed_scenario, params):
        result = GatheringMiner(params).mine(mixed_scenario.database)
        assert result.gatherings
        assert max(g.lifetime for g in result.gatherings) >= params.kc
        # The gatherings stay within a few hundred metres of their centres:
        # the mean diagonal of their member bounding boxes is small.
        extents = []
        for gathering in result.gatherings:
            box = mbr_of_points(p for cluster in gathering.crowd for p in cluster.points())
            extents.append(math.hypot(box.width, box.height))
        assert sum(extents) / len(extents) < 2000.0

    def test_incremental_pipeline_matches_batch(self, mixed_scenario, params):
        batch = GatheringMiner(params)
        cluster_db = batch.cluster(mixed_scenario.database)
        reference = batch.mine_clusters(cluster_db)

        timestamps = cluster_db.timestamps()
        thirds = [timestamps[len(timestamps) // 3], timestamps[2 * len(timestamps) // 3]]
        batches = [
            cluster_db.slice_time(timestamps[0], thirds[0]),
            cluster_db.slice_time(thirds[0] + 1e-9, thirds[1]),
            cluster_db.slice_time(thirds[1] + 1e-9, timestamps[-1]),
        ]
        incremental = IncrementalGatheringMiner(params)
        for piece in batches:
            incremental.update(piece)

        assert sorted(c.keys() for c in incremental.closed_crowds) == sorted(
            c.keys() for c in reference.closed_crowds
        )
        assert sorted(g.keys() for g in incremental.gatherings) == sorted(
            g.keys() for g in reference.gatherings
        )

    def test_dropped_samples_are_tolerated(self, params):
        simulator = TaxiFleetSimulator(seed=55)
        config = SimulationConfig(fleet_size=60, duration=40, drop_rate=0.2)
        event = GatheringEvent(center=Point(3000, 3000), start=4, end=36, participants=18)
        scenario = simulator.simulate(config, gathering_events=[event])
        result = GatheringMiner(params).mine(scenario.database)
        assert result.gathering_count() >= 1
