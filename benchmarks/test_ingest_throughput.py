"""Ingest firewall throughput: records/s of the CSV loader on a dirty trace.

Loads a seeded 200k-row ``object_id,t,x,y`` trace with about 1% corrupt
rows (every reason code present) through :func:`load_csv_report` under
``lenient`` and ``repair``, and reports records per second in
``extra_info``.  For scale: the record-at-a-time firewall this loader
replaced measured about 90k records/s on a clean 200k-point file.

There is no wall-clock gate.  The assertions are correctness ones: every
report sums (``accepted + dropped + repaired == total``), and the loader's
report, database and quarantine file equal the scalar oracle's
(``tests/quality/scalar_oracle.py``) on the same file.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.quality import QualityConfig
from repro.trajectory.io import load_csv_report

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "quality"))
from scalar_oracle import (  # noqa: E402
    csv_records,
    database_from_records,
    oracle_pipeline,
)

OBJECTS = 1000
SNAPSHOTS = 200
CORRUPT_SHARE = 0.01
BOUNDS = (0.0, 0.0, 10000.0, 10000.0)
MAX_SPEED = 60.0
ROUNDS = 3


def write_trace(path: Path, seed: int = 13) -> int:
    """A seeded random-walk fleet with ~1% corrupt rows; returns the row count."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(0.0, 12.0, size=(OBJECTS, SNAPSHOTS, 2))
    start = rng.uniform(1000.0, 9000.0, size=(OBJECTS, 1, 2))
    walk = np.clip(start + np.cumsum(steps, axis=1), 10.0, 9990.0)
    rows = [
        f"{oid},{t},{walk[oid, t, 0]:.3f},{walk[oid, t, 1]:.3f}"
        for t in range(SNAPSHOTS)
        for oid in range(OBJECTS)
    ]
    corrupt = int(len(rows) * CORRUPT_SHARE)
    kinds = ["schema", "parse", "non_finite", "out_of_bounds", "duplicate", "backwards",
             "teleport"]
    for k, at in enumerate(sorted(rng.choice(len(rows), size=corrupt, replace=False))[::-1]):
        oid, t = int(at % OBJECTS), int(at // OBJECTS)
        x, y = walk[oid, t]
        row = {
            "schema": "garbage",
            "parse": f"{oid},{t},abc,{y:.3f}",
            "non_finite": f"{oid},{t}.5,nan,{y:.3f}",
            "out_of_bounds": f"{oid},{t}.5,-50.0,{y:.3f}",
            "duplicate": f"{oid},{t},{x + 1:.3f},{y:.3f}",
            "backwards": f"{oid},{t - 0.5},{x:.3f},{y:.3f}",
            "teleport": f"{oid},{t}.5,{(x + 5000.0) % 10000.0:.3f},{y:.3f}",
        }[kinds[k % len(kinds)]]
        rows.insert(int(at) + 1, row)
    # Objects with a single fix trip the minimum-samples floor.
    rows += [f"{OBJECTS + k},0,5.0,5.0" for k in range(20)]
    path.write_text("object_id,t,x,y\n" + "\n".join(rows) + "\n")
    return len(rows)


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("ingest") / "trace.csv"
    return path, write_trace(path)


@pytest.mark.parametrize("policy", ["lenient", "repair"])
def test_ingest_throughput(benchmark, trace, tmp_path, policy):
    path, rows = trace
    config = QualityConfig(policy=policy, max_speed=MAX_SPEED, min_samples=2, bounds=BOUNDS)

    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        database, report = load_csv_report(path, config)
        best = min(best, time.perf_counter() - start)
    assert report.total == rows
    assert report.accepted + report.dropped + report.repaired == report.total
    assert report.dropped > 0.005 * rows
    benchmark.extra_info.update(
        {"policy": policy, "rows": rows, "load_s": round(best, 3),
         "records_per_s": round(rows / best)}
    )
    print(f"\ningest {policy}: {rows} rows in {best:.3f}s -> {rows / best:,.0f} records/s")

    # Columnar == oracle on the same file, quarantine included.
    sinks = [tmp_path / "columnar.jsonl", tmp_path / "oracle.jsonl"]
    with_sink = [QualityConfig(**{**config.__dict__, "quarantine_path": s}) for s in sinks]
    database, report = load_csv_report(path, with_sink[0])
    oracle = oracle_pipeline(csv_records(path), with_sink[1], str(path))
    assert report.as_dict() == oracle.report.as_dict()
    assert list(database) == list(database_from_records(oracle.records))
    assert sinks[0].read_text() == sinks[1].read_text()

    benchmark.pedantic(load_csv_report, args=(path, config), rounds=1, iterations=1)
