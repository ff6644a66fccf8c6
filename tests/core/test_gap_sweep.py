"""Regression: the crowd sweep must skip range-search on empty snapshots.

A timestamp whose snapshot holds no cluster meeting the support threshold
cannot extend or start any candidate, so the sweep closes the long
candidates, drops the rest, and moves on — without constructing a single
strategy query.  Gap-filled scenarios (sensor outages, empty night windows)
previously still issued one range search per live candidate there.
"""

import pytest

from repro.clustering.snapshot import ClusterDatabase
from repro.core.config import GatheringParameters
from repro.core.crowd_discovery import discover_closed_crowds
from repro.core.range_search import RangeSearchStrategy
from repro.datagen.synthetic import random_snapshot_cluster
from repro.engine import proximity
from repro.engine.registry import ExecutionConfig

import numpy as np

PARAMS = GatheringParameters(mc=3, delta=400.0, kc=3, kp=2, mp=1)


class SpyScalarSearch(RangeSearchStrategy):
    """Reference search that records the timestamp of every query."""

    name = "SPY"

    def __init__(self, delta):
        super().__init__(delta)
        self.queried_timestamps = []

    def search(self, query, timestamp, clusters):
        self.queried_timestamps.append(timestamp)
        return [c for c in clusters if query.within_hausdorff(c, self.delta)]

    def discover(self, cdb, monkeypatch):
        return discover_closed_crowds(cdb, PARAMS, strategy=self)


class SpyVectorSearch:
    """Numpy proximity-graph sweep that records where the graph does work.

    The graph build is the numpy path's whole range search: every node is a
    cluster a candidate may be extended from or into.  The spy records the
    timestamp of each node, so a gap timestamp showing up means the build
    considered a cluster there.
    """

    def __init__(self, delta):
        self.delta = delta
        self.queried_timestamps = []

    def discover(self, cdb, monkeypatch):
        build = proximity.build_proximity_graph

        def spy_build(*args, **kwargs):
            graph = build(*args, **kwargs)
            assert graph.delta == self.delta
            for position, t in enumerate(graph.timestamps):
                nodes = graph.node_bounds[position + 1] - graph.node_bounds[position]
                self.queried_timestamps.extend([t] * int(nodes))
            return graph

        monkeypatch.setattr(proximity, "build_proximity_graph", spy_build)
        result = discover_closed_crowds(cdb, PARAMS, config=ExecutionConfig())
        assert self.queried_timestamps, "the numpy sweep did not build the graph"
        return result


def gap_filled_database():
    """Chain of clusters with an empty snapshot and an under-support one.

    Timestamps 0-3 host a drifting cluster chain, 4 is completely empty,
    5 holds only a cluster below the ``mc`` support threshold, and 6-9 host
    a second chain.  The two chains can never join across the gap.
    """
    rng = np.random.default_rng(7)
    cdb = ClusterDatabase()
    for t in range(4):
        cdb.add_snapshot(
            float(t),
            [
                random_snapshot_cluster(
                    float(t), range(10), (1000.0 + 40.0 * t, 1000.0), 30.0, rng
                )
            ],
        )
    cdb.add_snapshot(4.0, [])
    cdb.add_snapshot(
        5.0,
        [random_snapshot_cluster(5.0, range(2), (1200.0, 1000.0), 30.0, rng)],
    )
    for t in range(6, 10):
        cdb.add_snapshot(
            float(t),
            [
                random_snapshot_cluster(
                    float(t), range(10, 22), (2000.0 + 40.0 * t, 2000.0), 30.0, rng
                )
            ],
        )
    return cdb


@pytest.mark.parametrize("spy_class", (SpyScalarSearch, SpyVectorSearch))
def test_no_query_is_issued_at_gap_timestamps(spy_class, monkeypatch):
    cdb = gap_filled_database()
    spy = spy_class(PARAMS.delta)
    result = spy.discover(cdb, monkeypatch)

    # Timestamp 4 has no clusters and timestamp 5 none above mc: neither may
    # reach the strategy.  (Timestamp 6 issues no queries either — the gap
    # killed every candidate, so there is nothing to extend.)
    assert 4.0 not in spy.queried_timestamps
    assert 5.0 not in spy.queried_timestamps

    # The two chains close as separate crowds; nothing bridges the gap.
    spans = sorted((c.start_time, c.end_time) for c in result.closed_crowds)
    assert spans == [(0.0, 3.0), (6.0, 9.0)]

    # Numpy and the scalar reference agree exactly on the same database.
    reference = discover_closed_crowds(cdb, PARAMS, strategy=SpyScalarSearch(PARAMS.delta))
    vectorized = discover_closed_crowds(cdb, PARAMS, config=ExecutionConfig())
    assert [c.keys() for c in vectorized.closed_crowds] == [
        c.keys() for c in reference.closed_crowds
    ]


def test_gap_databases_have_backend_parity():
    cdb = gap_filled_database()
    reference = discover_closed_crowds(cdb, PARAMS, strategy="GRID")
    vectorized = discover_closed_crowds(
        cdb, PARAMS, strategy="GRID", config=ExecutionConfig(backend="numpy")
    )
    assert [c.keys() for c in vectorized.closed_crowds] == [
        c.keys() for c in reference.closed_crowds
    ]
    assert [c.keys() for c in vectorized.open_candidates] == [
        c.keys() for c in reference.open_candidates
    ]
