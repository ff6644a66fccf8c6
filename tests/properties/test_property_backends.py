"""Property-based backend parity: the fast path must match the reference.

The vectorized phase-2 sweep (batched arena) and phase-3 detector (packed
membership matrix) claim *exact label parity* with the scalar python path.
These properties drive randomized workloads through every entry point —
direct phase calls, the one-shot miner (in-process and pooled) and the
streaming service — and assert the outputs are identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GatheringParameters
from repro.core.crowd_discovery import discover_closed_crowds
from repro.core.gathering import (
    detect_gatherings_tad_star,
    detect_gatherings_tad_star_packed,
)
from repro.core.pipeline import GatheringMiner
from repro.datagen.synthetic import synthetic_cluster_database, synthetic_crowd
from repro.engine.bitmatrix import MembershipMatrix
from repro.engine.registry import ExecutionConfig

NUMPY = ExecutionConfig(backend="numpy")


def crowd_keys(crowds):
    return [crowd.keys() for crowd in crowds]


def gathering_keys(gatherings):
    return [(g.keys(), tuple(sorted(g.participator_ids))) for g in gatherings]


class TestPhase2Parity:
    @given(
        st.integers(min_value=5, max_value=14),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_sweeps_are_label_identical(self, timestamps, clusters_per_t, members, seed):
        cdb = synthetic_cluster_database(
            timestamps=timestamps,
            clusters_per_timestamp=clusters_per_t,
            members_per_cluster=members,
            seed=seed,
        )
        params = GatheringParameters(
            mc=max(2, members - 1), delta=400.0, kc=4, kp=2, mp=1
        )
        reference = discover_closed_crowds(cdb, params, strategy="GRID")
        vectorized = discover_closed_crowds(cdb, params, strategy="GRID", config=NUMPY)
        # Exact parity including order — the arena sweep is a re-ordering of
        # the reference loop's work, not an approximation of it.
        assert crowd_keys(vectorized.closed_crowds) == crowd_keys(
            reference.closed_crowds
        )
        assert crowd_keys(vectorized.open_candidates) == crowd_keys(
            reference.open_candidates
        )
        assert vectorized.last_timestamp == reference.last_timestamp

    @given(
        st.integers(min_value=8, max_value=14),
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_incremental_resume_matches(self, timestamps, clusters_per_t, seed):
        # Split the database in two batches; the resumed sweep hands the
        # vectorized backend *foreign* query clusters (carried candidates
        # whose home frame belongs to the previous batch).
        cdb = synthetic_cluster_database(
            timestamps=timestamps,
            clusters_per_timestamp=clusters_per_t,
            members_per_cluster=4,
            seed=seed,
        )
        params = GatheringParameters(mc=3, delta=400.0, kc=4, kp=2, mp=1)
        split = cdb.timestamps()[timestamps // 2]
        part1 = _restrict(cdb, lambda t: t <= split)
        part2 = _restrict(cdb, lambda t: t > split)
        results = {}
        for name, config in (("python", None), ("numpy", NUMPY)):
            batch1 = discover_closed_crowds(part1, params, strategy="GRID", config=config)
            batch2 = discover_closed_crowds(
                part2,
                params,
                strategy="GRID",
                config=config,
                initial_candidates=batch1.open_candidates,
                start_after=batch1.last_timestamp,
            )
            results[name] = (
                crowd_keys(batch1.closed_crowds) + crowd_keys(batch2.closed_crowds),
                crowd_keys(batch2.open_candidates),
            )
        assert results["numpy"] == results["python"]


def _restrict(cdb, predicate):
    from repro.clustering.snapshot import ClusterDatabase

    restricted = ClusterDatabase()
    for timestamp in cdb.timestamps():
        if predicate(timestamp):
            restricted.add_snapshot(timestamp, cdb.clusters_at(timestamp))
    return restricted


crowd_strategy = st.builds(
    synthetic_crowd,
    length=st.integers(min_value=6, max_value=20),
    committed=st.integers(min_value=3, max_value=8),
    casual=st.integers(min_value=0, max_value=6),
    presence_probability=st.floats(min_value=0.6, max_value=1.0),
    casual_presence=st.floats(min_value=0.1, max_value=0.5),
    seed=st.integers(min_value=0, max_value=10_000),
)

params_strategy = st.builds(
    GatheringParameters,
    mc=st.just(1),
    delta=st.just(5000.0),
    kc=st.integers(min_value=3, max_value=6),
    kp=st.integers(min_value=2, max_value=8),
    mp=st.integers(min_value=1, max_value=5),
)


class TestPhase3Parity:
    @given(crowd_strategy, params_strategy)
    @settings(max_examples=40, deadline=None)
    def test_packed_tad_star_matches_scalar(self, crowd, params):
        scalar = detect_gatherings_tad_star(crowd, params)
        # Supplying the matrix forces the packed kernel even below the
        # small-crowd dispatch threshold.
        packed = detect_gatherings_tad_star_packed(
            crowd, params, matrix=MembershipMatrix.from_crowd(crowd)
        )
        dispatched = detect_gatherings_tad_star_packed(crowd, params)
        assert gathering_keys(packed) == gathering_keys(scalar)
        assert gathering_keys(dispatched) == gathering_keys(scalar)


def _scenario(seed, fleet_size=90, duration=36):
    from repro.datagen.events import GatheringEvent
    from repro.datagen.simulator import SimulationConfig, TaxiFleetSimulator
    from repro.geometry.point import Point

    simulator = TaxiFleetSimulator(seed=seed)
    config = SimulationConfig(fleet_size=fleet_size, duration=duration)
    events = [
        GatheringEvent(
            center=Point(2000.0 + 150.0 * seed, 2500.0),
            start=3,
            end=duration - 4,
            participants=16,
        )
    ]
    return simulator.simulate(config, gathering_events=events).database


END_TO_END_PARAMS = GatheringParameters(
    eps=200.0, min_points=3, mc=5, delta=300.0, kc=8, kp=6, mp=4
)


class TestEndToEndParity:
    """python vs numpy through the mine / mine --workers / stream entry points."""

    def _reference(self, database):
        return GatheringMiner(END_TO_END_PARAMS).mine(database)

    def _assert_matches(self, reference, crowds, gatherings):
        assert sorted(crowd_keys(crowds)) == sorted(
            crowd_keys(reference.closed_crowds)
        )
        assert sorted(gathering_keys(gatherings)) == sorted(
            gathering_keys(reference.gatherings)
        )

    def test_one_shot_miner(self):
        database = _scenario(seed=31)
        reference = self._reference(database)
        fast = GatheringMiner(END_TO_END_PARAMS, config=NUMPY).mine(database)
        self._assert_matches(reference, fast.closed_crowds, fast.gatherings)

    def test_sharded_driver(self):
        database = _scenario(seed=32)
        reference = self._reference(database)
        for workers in (2, 3):
            config = ExecutionConfig(backend="numpy", workers=workers)
            result = GatheringMiner(END_TO_END_PARAMS, config=config).mine(database)
            self._assert_matches(reference, result.closed_crowds, result.gatherings)

    def test_streaming_service(self):
        from repro.stream import StreamingGatheringService

        database = _scenario(seed=33)
        reference = self._reference(database)
        feed = [
            (trajectory.object_id, t, point.x, point.y)
            for t in database.timestamps(step=1.0)
            for trajectory in database
            for point in [trajectory.position_at(t)]
            if point is not None
        ]
        service = StreamingGatheringService(
            END_TO_END_PARAMS, window=8, config=NUMPY
        )
        service.ingest_many(feed)
        result = service.finish()
        self._assert_matches(reference, result.closed_crowds, result.gatherings)
