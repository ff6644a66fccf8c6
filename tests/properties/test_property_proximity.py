"""Property-based checks of the proximity graph and the frontier sweep.

Two claims back the phase-2 fast path:

* the CSR proximity graph holds *exactly* the consecutive-snapshot cluster
  pairs within Hausdorff distance δ — compared against a brute-force scalar
  ``within_hausdorff`` sweep on randomized arenas, including empty
  snapshots (``max_gap``-style feed outages) and single-cluster snapshots;
* propagating candidates over that graph yields label-identical crowds to
  the scalar reference loop — through the direct entry point, the pooled
  one-shot miner (2..4 workers) and the streaming service (varying
  windows).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.snapshot import ClusterDatabase
from repro.core.config import GatheringParameters
from repro.core.crowd_discovery import discover_closed_crowds
from repro.core.pipeline import GatheringMiner
from repro.datagen.synthetic import (
    random_snapshot_cluster,
    synthetic_cluster_database,
)
from repro.engine.proximity import build_proximity_graph
from repro.engine.registry import ExecutionConfig

NUMPY = ExecutionConfig(backend="numpy")


def crowd_keys(crowds):
    return [crowd.keys() for crowd in crowds]


def gathering_keys(gatherings):
    return [(g.keys(), tuple(sorted(g.participator_ids))) for g in gatherings]


def arena_database(timestamps, clusters_per_t, members, seed, gap_every=0):
    """Random cluster arena; every ``gap_every``-th snapshot is emptied.

    Emptied snapshots model feed outages (a ``max_gap`` interpolation limit
    yields snapshots with no positions at all); a run of ``clusters_per_t=1``
    exercises single-cluster snapshots.
    """
    base = synthetic_cluster_database(
        timestamps=timestamps,
        clusters_per_timestamp=clusters_per_t,
        members_per_cluster=members,
        seed=seed,
    )
    if not gap_every:
        return base
    arena = ClusterDatabase()
    for index, t in enumerate(base.timestamps()):
        if (index + 1) % gap_every == 0:
            arena.add_snapshot(t, [])
        else:
            arena.add_snapshot(t, base.clusters_at(t))
    return arena


class TestGraphMatchesBruteForce:
    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=3, max_value=6),
        st.integers(min_value=0, max_value=5_000),
        st.sampled_from([0, 2, 3]),
        st.sampled_from([250.0, 400.0, 800.0]),
    )
    @settings(max_examples=30, deadline=None)
    def test_edges_equal_pairwise_hausdorff(
        self, timestamps, clusters_per_t, members, seed, gap_every, delta
    ):
        arena = arena_database(
            timestamps, clusters_per_t, members, seed, gap_every=gap_every
        )
        params = GatheringParameters(
            mc=max(2, members - 1), delta=delta, kc=3, kp=2, mp=1
        )
        graph = build_proximity_graph(arena, params)
        got = {
            (u, int(v)) for u in range(graph.node_count) for v in graph.successors(u)
        }
        expected = set()
        for position in range(len(graph.timestamps) - 1):
            a0, a1 = graph.nodes_at(position)
            b0, b1 = graph.nodes_at(position + 1)
            for u in range(a0, a1):
                for v in range(b0, b1):
                    if graph.clusters[u].within_hausdorff(
                        graph.clusters[v], params.delta
                    ):
                        expected.add((u, v))
        assert got == expected

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_single_cluster_snapshots(self, seed):
        # A chain of one-cluster snapshots: edges exist exactly where the
        # drifting cluster stays within delta of its previous position.
        rng = np.random.default_rng(seed)
        arena = ClusterDatabase()
        x = 0.0
        for t in range(6):
            x += float(rng.uniform(0.0, 500.0))
            arena.add_snapshot(
                float(t),
                [
                    random_snapshot_cluster(
                        float(t), [1, 2, 3], (x, 0.0), spread=20.0, rng=rng
                    )
                ],
            )
        params = GatheringParameters(mc=3, delta=300.0, kc=3, kp=2, mp=1)
        graph = build_proximity_graph(arena, params)
        for u in range(graph.node_count - 1):
            expected = graph.clusters[u].within_hausdorff(
                graph.clusters[u + 1], params.delta
            )
            assert (len(graph.successors(u)) == 1) == expected


class TestFrontierSweepParity:
    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=5_000),
        st.sampled_from([0, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_frontier_matches_scalar_reference(
        self, timestamps, clusters_per_t, seed, gap_every
    ):
        arena = arena_database(timestamps, clusters_per_t, 4, seed, gap_every)
        params = GatheringParameters(mc=3, delta=400.0, kc=3, kp=2, mp=1)
        reference = discover_closed_crowds(arena, params, strategy="GRID")
        frontier = discover_closed_crowds(arena, params, strategy="GRID", config=NUMPY)
        assert crowd_keys(frontier.closed_crowds) == crowd_keys(
            reference.closed_crowds
        )
        assert crowd_keys(frontier.open_candidates) == crowd_keys(
            reference.open_candidates
        )
        assert frontier.last_timestamp == reference.last_timestamp


END_TO_END_PARAMS = GatheringParameters(
    eps=200.0, min_points=3, mc=5, delta=300.0, kc=8, kp=6, mp=4
)


def _scenario(seed, fleet_size=70, duration=30):
    from repro.datagen.events import GatheringEvent
    from repro.datagen.simulator import SimulationConfig, TaxiFleetSimulator
    from repro.geometry.point import Point

    simulator = TaxiFleetSimulator(seed=seed)
    config = SimulationConfig(fleet_size=fleet_size, duration=duration)
    events = [
        GatheringEvent(
            center=Point(2000.0 + 120.0 * seed, 2500.0),
            start=3,
            end=duration - 4,
            participants=14,
        )
    ]
    return simulator.simulate(config, gathering_events=events).database


class TestShardedAndStreamingParity:
    """The frontier sweep behind the pooled miner and the stream service."""

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=40, max_value=48),
    )
    @settings(max_examples=6, deadline=None)
    def test_sharded_driver_matches_unsharded_scalar(self, workers, seed):
        database = _scenario(seed=seed)
        reference = GatheringMiner(END_TO_END_PARAMS).mine(database)
        miner = GatheringMiner(
            END_TO_END_PARAMS, config=ExecutionConfig(backend="numpy", workers=workers)
        )
        crowds = miner.discover_crowds(miner.cluster(database))
        assert sorted(crowd_keys(crowds.closed_crowds)) == sorted(
            crowd_keys(reference.closed_crowds)
        )
        assert sorted(gathering_keys(miner.detect(crowds.closed_crowds))) == sorted(
            gathering_keys(reference.gatherings)
        )
        # The pooled phase 1 fed the graph path.
        assert crowds.proximity_seconds > 0.0

    @given(
        st.sampled_from([4, 6, 9]),
        st.integers(min_value=50, max_value=56),
    )
    @settings(max_examples=6, deadline=None)
    def test_streaming_service_matches_scalar(self, window, seed):
        from repro.stream import StreamingGatheringService

        database = _scenario(seed=seed)
        reference = GatheringMiner(END_TO_END_PARAMS).mine(database)
        feed = [
            (trajectory.object_id, t, point.x, point.y)
            for t in database.timestamps(step=1.0)
            for trajectory in database
            for point in [trajectory.position_at(t)]
            if point is not None
        ]
        service = StreamingGatheringService(END_TO_END_PARAMS, window=window, config=NUMPY)
        service.ingest_many(feed)
        result = service.finish()
        assert sorted(crowd_keys(result.closed_crowds)) == sorted(
            crowd_keys(reference.closed_crowds)
        )
        assert sorted(gathering_keys(result.gatherings)) == sorted(
            gathering_keys(reference.gatherings)
        )
        assert result.stats.proximity_seconds > 0.0
