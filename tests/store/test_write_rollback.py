"""A write call that fails part-way leaves no row behind.

Each write call of :class:`PatternStore` is one transaction.  An error on
the Nth pattern — from the caller's iterable or from inserting the row —
must roll back the rows of patterns 1..N-1 (and the parameters row of
``write_result``), leave the connection outside a transaction, and keep a
later write from committing them.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.clustering.snapshot import SnapshotCluster
from repro.core.config import GatheringParameters
from repro.core.crowd import Crowd
from repro.core.gathering import Gathering
from repro.core.pipeline import MiningResult
from repro.geometry.point import Point
from repro.store import PatternStore

PARAMS = GatheringParameters(eps=200.0, min_points=3, mc=3, kc=2, kp=2, mp=2)


def crowd(index):
    oids = [3 * index, 3 * index + 1, 3 * index + 2]
    return Crowd(
        tuple(
            SnapshotCluster(
                timestamp=float(index + k),
                cluster_id=0,
                members={o: Point(10.0 * o + k, 5.0 * o) for o in oids},
            )
            for k in range(2)
        )
    )


CROWDS = [crowd(i) for i in range(4)]
GATHERINGS = [Gathering(crowd=c, participator_ids=c.object_ids()) for c in CROWDS]


def failing(items, n):
    """Yield ``items`` but raise instead of producing the Nth (1-based)."""
    for index, item in enumerate(items, 1):
        if index == n:
            raise OSError(f"simulated failure on pattern {n}")
        yield item


def write_result(store, wrap):
    # The crowds go in first, so a failure among the gatherings comes after
    # four inserted crowds and the parameters row.
    store.write_result(MiningResult(None, CROWDS, wrap(GATHERINGS), PARAMS))


def add_crowds(store, wrap):
    store.add_crowds(wrap(CROWDS))


def add_gatherings(store, wrap):
    store.add_gatherings(wrap(GATHERINGS))


def reader_counts(path):
    conn = sqlite3.connect(str(path))
    try:
        return tuple(
            conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("crowds", "crowd_members", "gatherings",
                          "gathering_participators")
        ) + (conn.execute("SELECT COUNT(*) FROM meta WHERE key = 'params'").fetchone()[0],)
    finally:
        conn.close()


def assert_rolled_back(store, path):
    assert not store._conn.in_transaction
    assert reader_counts(path) == (0, 0, 0, 0, 0)
    # An empty write must not commit anything a failed call left behind.
    store.add_gatherings([])
    store.add_crowds([])
    assert reader_counts(path) == (0, 0, 0, 0, 0)
    assert (store.crowd_count(), store.gathering_count(), store.params()) == (0, 0, None)


@pytest.mark.parametrize("call", [write_result, add_crowds, add_gatherings])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_failing_iterable_rolls_the_call_back(tmp_path, call, n):
    path = tmp_path / "store.db"
    store = PatternStore(path)
    with pytest.raises(OSError, match="simulated"):
        call(store, lambda items: failing(items, n))
    assert_rolled_back(store, path)


@pytest.mark.parametrize("call", [write_result, add_crowds, add_gatherings])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_failing_insert_rolls_the_call_back(tmp_path, monkeypatch, call, n):
    path = tmp_path / "store.db"
    store = PatternStore(path)
    inserted = []
    original = PatternStore._insert_pattern

    def insert_pattern(self, *args):
        inserted.append(args)
        if len(inserted) == n:
            raise OSError(f"simulated failure on pattern {n}")
        return original(self, *args)

    monkeypatch.setattr(PatternStore, "_insert_pattern", insert_pattern)
    with pytest.raises(OSError, match="simulated"):
        call(store, list)
    assert len(inserted) == n
    monkeypatch.undo()
    assert_rolled_back(store, path)


def test_a_failed_call_does_not_poison_the_next_one(tmp_path):
    path = tmp_path / "store.db"
    store = PatternStore(path)
    with pytest.raises(OSError):
        add_crowds(store, lambda items: failing(items, 3))
    assert store.add_crowds(CROWDS) == 4
    assert store.add_gatherings(GATHERINGS) == 4
    assert reader_counts(path)[0:3:2] == (4, 4)
