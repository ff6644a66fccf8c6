"""Tests for the BRUTE / SR / IR / GRID range-search strategies."""

import pytest

from repro.clustering.snapshot import SnapshotCluster
from repro.core.range_search import (
    STRATEGY_NAMES,
    BruteForceRangeSearch,
    GridRangeSearch,
    ImprovedRTreeRangeSearch,
    SimpleRTreeRangeSearch,
    make_range_search,
)
from repro.geometry.hausdorff import hausdorff
from repro.geometry.point import Point


def random_cluster(rng, center, cluster_id, n=6, spread=40.0, timestamp=1.0, id_offset=0):
    members = {
        id_offset + i: Point(center[0] + rng.normal(0, spread), center[1] + rng.normal(0, spread))
        for i in range(n)
    }
    return SnapshotCluster(timestamp=timestamp, members=members, cluster_id=cluster_id)


@pytest.fixture
def workload(rng):
    query = random_cluster(rng, (1000, 1000), cluster_id=999, timestamp=0.0, id_offset=9000)
    clusters = [
        random_cluster(
            rng,
            (rng.uniform(0, 2000), rng.uniform(0, 2000)),
            cluster_id=i,
            n=int(rng.integers(4, 9)),
            spread=float(rng.uniform(20, 80)),
            id_offset=i * 10,
        )
        for i in range(40)
    ]
    return query, clusters


class TestFactory:
    def test_all_names_construct(self):
        for name in STRATEGY_NAMES:
            strategy = make_range_search(name, delta=300.0)
            assert strategy.delta == 300.0

    def test_case_insensitive(self):
        assert isinstance(make_range_search("grid", 100.0), GridRangeSearch)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_range_search("quadtree", 100.0)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            BruteForceRangeSearch(0.0)


class TestCorrectness:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_matches_exact_hausdorff(self, name, workload):
        query, clusters = workload
        delta = 300.0
        strategy = make_range_search(name, delta)
        found = {c.cluster_id for c in strategy.search(query, 1.0, clusters)}
        expected = {
            c.cluster_id for c in clusters if hausdorff(query.points(), c.points()) <= delta
        }
        assert found == expected

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_empty_cluster_set(self, name):
        strategy = make_range_search(name, 300.0)
        query = SnapshotCluster(timestamp=0.0, members={1: Point(0, 0)}, cluster_id=0)
        assert strategy.search(query, 1.0, []) == []

    def test_all_strategies_agree(self, workload):
        query, clusters = workload
        results = []
        for name in STRATEGY_NAMES:
            strategy = make_range_search(name, 250.0)
            results.append({c.cluster_id for c in strategy.search(query, 1.0, clusters)})
        assert all(r == results[0] for r in results)


class TestPruningPower:
    def test_indexed_strategies_refine_fewer_candidates(self, workload):
        query, clusters = workload
        delta = 200.0
        brute = BruteForceRangeSearch(delta)
        sr = SimpleRTreeRangeSearch(delta)
        ir = ImprovedRTreeRangeSearch(delta)
        brute.search(query, 1.0, clusters)
        sr.search(query, 1.0, clusters)
        ir.search(query, 1.0, clusters)
        assert sr.refinement_count <= brute.refinement_count
        assert ir.refinement_count <= sr.refinement_count

    def test_reset_statistics(self, workload):
        query, clusters = workload
        strategy = SimpleRTreeRangeSearch(200.0)
        strategy.search(query, 1.0, clusters)
        assert strategy.refinement_count > 0
        strategy.reset_statistics()
        assert strategy.refinement_count == 0

    def test_index_reused_across_queries_at_same_timestamp(self, workload, rng):
        query, clusters = workload
        strategy = GridRangeSearch(300.0)
        strategy.search(query, 1.0, clusters)
        first_index = strategy._indexes[1.0]
        other_query = random_cluster(rng, (500, 500), cluster_id=77, timestamp=0.0, id_offset=8000)
        strategy.search(other_query, 1.0, clusters)
        assert strategy._indexes[1.0] is first_index
