"""Phase-2 proximity-graph frontier sweep shoot-out on the metro scenario.

Clusters the metro workload once (shared by construction), then runs crowd
discovery with the scalar GRID reference (one grid-index range search per
candidate and snapshot) and the numpy proximity-graph frontier sweep (one
precomputed CSR adjacency, one gather per timestamp).  Asserts identical
crowd labels and the frontier speedup.

The hard assertion bound (2.5x) is deliberately far below the typical
measured speedup (about 10x on a 2-vCPU VM, reported via ``extra_info`` /
stdout) so that a noisy shared worker cannot flake the suite; the tracked
``BENCH_<n>.json`` trajectory records the real numbers per commit.
"""

from __future__ import annotations

import os
import time

from repro.bench import SCENARIOS
from repro.core.crowd_discovery import discover_closed_crowds
from repro.core.pipeline import GatheringMiner
from repro.engine.registry import ExecutionConfig

ROUNDS = 3
MIN_SPEEDUP = 2.5

#: The canonical ``metro`` workload of ``repro bench`` — this gate and the
#: tracked ``BENCH_<n>.json`` trajectory must measure the same scenario,
#: so both read the one definition in :data:`repro.bench.SCENARIOS`.
METRO = SCENARIOS["metro"]
PARAMS = METRO.params
NUMPY = ExecutionConfig(backend="numpy")


def _metro_cluster_db():
    database = METRO.build(quick=False)
    cluster_db = GatheringMiner(PARAMS, config=NUMPY).cluster(database)
    for cluster in cluster_db:
        cluster.members
    return cluster_db


def test_frontier_sweep_beats_scalar_grid(benchmark):
    cluster_db = _metro_cluster_db()

    # One scalar run: it is an order of magnitude slower, so its timing
    # noise cannot decide the gate.
    start = time.perf_counter()
    scalar_result = discover_closed_crowds(cluster_db, PARAMS, strategy="GRID")
    scalar_seconds = time.perf_counter() - start

    best_frontier = float("inf")
    graph_seconds = 0.0
    frontier_result = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        frontier_result = discover_closed_crowds(
            cluster_db, PARAMS, strategy="GRID", config=NUMPY
        )
        elapsed = time.perf_counter() - start
        if elapsed < best_frontier:
            best_frontier = elapsed
            graph_seconds = frontier_result.proximity_seconds

    # Exact label parity, including order: the frontier sweep is a
    # re-ordering of the scalar loop's work, not an approximation of it.
    assert [c.keys() for c in frontier_result.closed_crowds] == [
        c.keys() for c in scalar_result.closed_crowds
    ]
    assert [c.keys() for c in frontier_result.open_candidates] == [
        c.keys() for c in scalar_result.open_candidates
    ]

    speedup = scalar_seconds / best_frontier
    benchmark.extra_info.update(
        {
            "fleet": METRO.fleet_size,
            "clusters": len(cluster_db),
            "crowds": len(frontier_result.closed_crowds),
            "scalar_s": round(scalar_seconds, 3),
            "frontier_s": round(best_frontier, 3),
            "graph_build_s": round(graph_seconds, 3),
            "speedup": round(speedup, 2),
        }
    )
    print(
        f"\nphase-2 proximity graph (metro: fleet={METRO.fleet_size}, "
        f"duration={METRO.duration}): scalar GRID {scalar_seconds:.2f}s vs frontier "
        f"{best_frontier:.2f}s (graph build {graph_seconds:.2f}s) "
        f"-> {speedup:.1f}x"
    )

    # One representative frontier run for the benchmark table.
    benchmark.pedantic(
        discover_closed_crowds,
        args=(cluster_db, PARAMS),
        kwargs={"strategy": "GRID", "config": NUMPY},
        rounds=2,
        iterations=1,
    )

    # Wall-clock gate only on dedicated machines (parity always gates).
    if not os.environ.get("CI"):
        assert speedup >= MIN_SPEEDUP, (
            f"proximity-graph frontier sweep only {speedup:.2f}x faster than "
            f"the scalar GRID sweep (expected >= {MIN_SPEEDUP}x)"
        )
