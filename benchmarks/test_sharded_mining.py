"""Pooled phase-1 mining: speedup vs worker count on the city workload.

Mines the multi-district ``city_scenario`` with ``workers=1`` and
``workers=4`` (scalar backend, where phase-1 clustering dominates),
asserts exact crowd/gathering parity between the two, and reports the
per-phase timings plus the observed speedup via ``extra_info`` / stdout.

The target (>= 2x at 4 workers over 1) is a *parallel* speedup: it needs
cores to run on.  On boxes with fewer than 4 usable CPUs the measurement
is still taken and reported, but the speedup assertion is skipped — pool
workers cannot beat serial execution without hardware parallelism, and a
1-core CI runner must not flake the suite.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.pipeline import GatheringMiner
from repro.datagen.scenarios import city_scenario
from repro.engine.registry import ExecutionConfig

from .conftest import BENCH_PARAMS

FLEET_SIZE = 560
DURATION = 96
DISTRICTS = 4
WORKERS = 4
ROUNDS = 2
MIN_SPEEDUP = 2.0
_PARAMS = BENCH_PARAMS.with_overrides(kc=12, kp=8, mp=4)


def _miner(workers):
    return GatheringMiner(
        _PARAMS, config=ExecutionConfig(backend="python", workers=workers)
    )


def _best_run(miner, database):
    """Best-of-rounds ``(result, total seconds, phase-1 seconds)``."""
    best = best_cluster = float("inf")
    result = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        cluster_db = miner.cluster(database)
        clustered = time.perf_counter()
        result = miner.mine_clusters(cluster_db)
        best = min(best, time.perf_counter() - start)
        best_cluster = min(best_cluster, clustered - start)
    return result, best, best_cluster


def test_sharded_mining_speedup_and_parity(benchmark):
    database = city_scenario(
        fleet_size=FLEET_SIZE, duration=DURATION, districts=DISTRICTS, seed=97
    ).database

    single_result, single_best, _ = _best_run(_miner(1), database)
    pooled_result, pooled_best, pooled_cluster = _best_run(_miner(WORKERS), database)

    # Exact parity: the pool must never change the answer.
    assert {c.keys() for c in pooled_result.closed_crowds} == {
        c.keys() for c in single_result.closed_crowds
    }
    assert {(g.keys(), g.participator_ids) for g in pooled_result.gatherings} == {
        (g.keys(), g.participator_ids) for g in single_result.gatherings
    }
    # And against the plain one-shot miner, for good measure.
    reference = GatheringMiner(_PARAMS).mine(database)
    assert {c.keys() for c in pooled_result.closed_crowds} == {
        c.keys() for c in reference.closed_crowds
    }

    speedup = single_best / pooled_best if pooled_best > 0 else float("inf")
    snapshots = pooled_result.cluster_db.snapshot_count()
    benchmark.extra_info["snapshots"] = snapshots
    benchmark.extra_info["single_worker_seconds"] = round(single_best, 3)
    benchmark.extra_info["four_worker_seconds"] = round(pooled_best, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cluster_seconds"] = round(pooled_cluster, 3)
    benchmark.extra_info["cpus"] = os.cpu_count()
    print(
        f"\npooled mining ({snapshots} snapshots, fleet {FLEET_SIZE}): "
        f"1 worker {single_best:.2f}s, {WORKERS} workers {pooled_best:.2f}s "
        f"-> {speedup:.2f}x on {os.cpu_count()} cpus"
    )

    # One representative timed run for the pytest-benchmark table.
    benchmark.pedantic(
        lambda: _miner(WORKERS).mine(database),
        rounds=1,
        warmup_rounds=0,
    )

    cpus = os.cpu_count() or 1
    if cpus < WORKERS:
        pytest.skip(
            f"{cpus} cpu(s) < {WORKERS} workers: parallel speedup not measurable "
            f"on this machine (measured {speedup:.2f}x; assertion needs >= {MIN_SPEEDUP}x)"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x speedup at {WORKERS} workers, got {speedup:.2f}x"
    )
