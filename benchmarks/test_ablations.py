"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not figures from the paper; they quantify the implementation
choices this reproduction makes:

* exact Hausdorff (naive double loop vs numpy) vs the thresholded
  early-abandon check used by Algorithm 1;
* the mask-based binary-tree popcount vs Python's built-in ``int.bit_count``;
* naive vs grid-accelerated DBSCAN neighbour search;
* pruning power of the four range-search schemes (how many candidates reach
  the exact-distance refinement).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.dbscan import dbscan
from repro.core.bitvector import popcount_tree
from repro.core.crowd_discovery import discover_closed_crowds
from repro.core.range_search import make_range_search
from repro.geometry.hausdorff import hausdorff, hausdorff_naive, hausdorff_within
from repro.geometry.point import Point

from .conftest import BENCH_PARAMS, cluster_db_for_fleet


def _point_sets(n=60, seed=3):
    rng = np.random.default_rng(seed)
    a = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1000, (n, 2))]
    b = [Point(float(x) + 150.0, float(y)) for x, y in rng.uniform(0, 1000, (n, 2))]
    return a, b


class TestHausdorffAblation:
    def test_naive_double_loop(self, benchmark):
        a, b = _point_sets()
        benchmark(hausdorff_naive, a, b)

    def test_vectorised_exact(self, benchmark):
        a, b = _point_sets()
        benchmark(hausdorff, a, b)

    def test_thresholded_early_abandon(self, benchmark):
        a, b = _point_sets()
        benchmark(hausdorff_within, a, b, 300.0)


class TestPopcountAblation:
    WIDTH = 256

    def _vectors(self, count=200, seed=5):
        rng = np.random.default_rng(seed)
        return [
            int.from_bytes(rng.bytes(self.WIDTH // 8), "little") for _ in range(count)
        ]

    def test_mask_based_popcount(self, benchmark):
        values = self._vectors()

        def run():
            return sum(popcount_tree(v, self.WIDTH) for v in values)

        benchmark(run)

    def test_builtin_bit_count(self, benchmark):
        values = self._vectors()

        def run():
            return sum(v.bit_count() for v in values)

        total_mask = benchmark(run)
        assert total_mask == sum(popcount_tree(v, self.WIDTH) for v in values)


class TestDBSCANAblation:
    def _points(self, n=800, seed=9):
        rng = np.random.default_rng(seed)
        return rng.uniform(0, 5000, (n, 2))

    def test_naive_neighbour_search(self, benchmark):
        points = self._points()
        benchmark.pedantic(dbscan, args=(points, 120.0, 4), kwargs={"method": "naive"}, rounds=2, iterations=1)

    def test_grid_neighbour_search(self, benchmark):
        points = self._points()
        benchmark.pedantic(dbscan, args=(points, 120.0, 4), kwargs={"method": "grid"}, rounds=2, iterations=1)

    def test_backends_agree(self, benchmark):
        points = self._points(n=300)

        def run():
            return (
                dbscan(points, 120.0, 4, method="naive"),
                dbscan(points, 120.0, 4, method="grid"),
            )

        naive, grid = benchmark.pedantic(run, rounds=1, iterations=1)

        def partition(labels):
            groups = {}
            for idx, label in enumerate(labels):
                groups.setdefault(label, set()).add(idx)
            groups.pop(-1, None)
            return {frozenset(g) for g in groups.values()}

        assert partition(naive) == partition(grid)


class TestPruningPowerAblation:
    @pytest.mark.parametrize("strategy", ("BRUTE", "SR", "IR", "GRID"))
    def test_candidates_reaching_refinement(self, benchmark, strategy):
        cdb = cluster_db_for_fleet(200)
        searcher = make_range_search(strategy, BENCH_PARAMS.delta)

        def run():
            searcher.reset_statistics()
            discover_closed_crowds(cdb, BENCH_PARAMS, strategy=searcher)
            return searcher.refinement_count

        refinements = benchmark.pedantic(run, rounds=1, iterations=1)
        benchmark.extra_info.update({"strategy": strategy, "refinements": refinements})
