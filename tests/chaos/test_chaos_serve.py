"""Chaos: serving under locked-db faults and load shedding degrades cleanly."""

from __future__ import annotations

import pytest

from repro.clustering.snapshot import SnapshotCluster
from repro.core.crowd import Crowd
from repro.geometry.point import Point
from repro.loadtest import WorkloadConfig, run_loadtest
from repro.store import PatternStore


def _crowd(t0, oids, x=0.0):
    clusters = tuple(
        SnapshotCluster(
            timestamp=float(t0 + k),
            cluster_id=0,
            members={o: Point(x + 0.25 * o, 0.5 * o) for o in oids},
        )
        for k in range(2)
    )
    return Crowd(clusters)


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "patterns.db"
    store = PatternStore(path)
    store.add_crowds(
        [_crowd(2 * i, [1 + i, 2 + i, 3 + i], x=500.0 * i) for i in range(12)]
    )
    store.close()
    return str(path)


class TestChaosServe:
    def test_locked_faults_and_shedding_yield_no_unexpected_errors(
        self, arm, store_path
    ):
        arm("store.locked:3,seed:9")
        report = run_loadtest(
            store_path,
            WorkloadConfig(requests=160, clients=8, seed=7),
            pool_size=2,
            request_timeout=5.0,
            max_in_flight=2,
        )
        statuses = report.statuses
        # Bounded degradation: every request is answered 200/304 or shed
        # with 503 — never another 5xx, never a transport failure.
        assert set(statuses) <= {200, 304, 503}
        assert statuses.get(200, 0) > 0
        assert sum(statuses.values()) == 160
        # The per-request bound also caps observed tail latency.
        assert report.latency.max_seconds < 5.5

    def test_dropped_connections_are_contained(self, arm, store_path):
        arm("serve.drop:2,seed:9")
        report = run_loadtest(
            store_path,
            WorkloadConfig(requests=120, clients=6, seed=3),
            pool_size=2,
            request_timeout=5.0,
        )
        statuses = report.statuses
        # The two injected drops surface as client transport errors
        # (status 0); everything else completes normally.
        assert statuses.get(0, 0) == 2
        assert set(statuses) <= {0, 200, 304, 503}
        assert sum(statuses.values()) == 120
