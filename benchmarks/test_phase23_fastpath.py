"""Phase-2/3 fast-path shoot-out on the multi-district city scenario.

Clusters the city workload once (phase 1 is shared by construction), then
runs crowd discovery (Algorithm 1) and gathering detection (TAD*) with both
execution backends: the scalar reference and the vectorized fast path
(proximity-graph frontier sweep + packed-bit TAD*).  Asserts identical mining output
and the combined phase-2+3 speedup.

The hard assertion bound (2.5x) is deliberately below the typical measured
speedup (>= 3x on an idle machine, reported via ``extra_info`` / stdout) so
that a noisy shared worker cannot flake the suite; the tracked
``BENCH_<n>.json`` trajectory records the real numbers per commit.
"""

from __future__ import annotations

import os
import time

from repro.bench import SCENARIOS
from repro.core.crowd_discovery import discover_closed_crowds
from repro.core.gathering import dedupe_gatherings, make_detector
from repro.core.pipeline import GatheringMiner
from repro.engine.registry import ExecutionConfig

ROUNDS = 3
MIN_SPEEDUP = 2.5

#: The canonical ``city`` workload of ``repro bench`` — this gate and the
#: tracked ``BENCH_<n>.json`` trajectory must measure the same scenario,
#: so both read the one definition in :data:`repro.bench.SCENARIOS`.
CITY = SCENARIOS["city"]
PARAMS = CITY.params


def _city_cluster_db():
    database = CITY.build(quick=False)
    return GatheringMiner(PARAMS, config=ExecutionConfig(backend="numpy")).cluster(
        database
    )


def _run_phases(cluster_db, backend: str):
    """Best-of-rounds phase-2 and phase-3 timings of one backend."""
    config = ExecutionConfig(backend=backend) if backend == "numpy" else None
    detector = make_detector("TAD*", backend)
    best_phase2 = best_phase3 = float("inf")
    crowd_result = gatherings = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        crowd_result = discover_closed_crowds(
            cluster_db, PARAMS, strategy="GRID", config=config
        )
        best_phase2 = min(best_phase2, time.perf_counter() - start)

        start = time.perf_counter()
        gatherings = dedupe_gatherings(
            [
                gathering
                for crowd in crowd_result.closed_crowds
                for gathering in detector(crowd, PARAMS)
            ]
        )
        best_phase3 = min(best_phase3, time.perf_counter() - start)
    return crowd_result, gatherings, best_phase2, best_phase3


def test_numpy_phase23_beats_python_reference(benchmark):
    cluster_db = _city_cluster_db()

    py_crowds, py_gatherings, py_p2, py_p3 = _run_phases(cluster_db, "python")
    np_crowds, np_gatherings, np_p2, np_p3 = _run_phases(cluster_db, "numpy")

    # Exact label parity: closed crowds (including order), open candidates,
    # and gatherings with their participator sets.
    assert [c.keys() for c in np_crowds.closed_crowds] == [
        c.keys() for c in py_crowds.closed_crowds
    ]
    assert [c.keys() for c in np_crowds.open_candidates] == [
        c.keys() for c in py_crowds.open_candidates
    ]
    assert [(g.keys(), g.participator_ids) for g in np_gatherings] == [
        (g.keys(), g.participator_ids) for g in py_gatherings
    ]

    python_total = py_p2 + py_p3
    numpy_total = np_p2 + np_p3
    speedup = python_total / numpy_total

    benchmark.extra_info.update(
        {
            "fleet": CITY.fleet_size,
            "clusters": len(cluster_db),
            "crowds": len(py_crowds.closed_crowds),
            "gatherings": len(py_gatherings),
            "python_phase2_s": round(py_p2, 3),
            "python_phase3_s": round(py_p3, 3),
            "numpy_phase2_s": round(np_p2, 3),
            "numpy_phase3_s": round(np_p3, 3),
            "speedup": round(speedup, 2),
        }
    )
    print(
        f"\nphase-2/3 fast path (city: fleet={CITY.fleet_size}, duration={CITY.duration}): "
        f"python {python_total:.2f}s (p2 {py_p2:.2f} + p3 {py_p3:.3f}) vs "
        f"numpy {numpy_total:.2f}s (p2 {np_p2:.2f} + p3 {np_p3:.3f}) "
        f"-> {speedup:.1f}x"
    )

    # One representative numpy phase-2 run for the benchmark table.
    benchmark.pedantic(
        discover_closed_crowds,
        args=(cluster_db, PARAMS),
        kwargs={"strategy": "GRID", "config": ExecutionConfig(backend="numpy")},
        rounds=2,
        iterations=1,
    )

    # Wall-clock gate only on dedicated machines (parity always gates).
    if not os.environ.get("CI"):
        assert speedup >= MIN_SPEEDUP, (
            f"vectorized phase-2+3 path only {speedup:.2f}x faster than the "
            f"python reference (expected >= {MIN_SPEEDUP}x, typically >= 3x)"
        )
