"""The one-shot query path: PatternApp over a read-only store file.

``repro query`` without ``--serve`` opens the store read-only, wraps it in a
:class:`~repro.serve.SingleStorePool` and sends its flags through
:meth:`~repro.serve.PatternApp.handle_request`.  These tests drive that
exact configuration: document shape, cluster payloads, LRU caching (and
``--cache-size 0``) and invalidation by another connection's appends.
"""

from __future__ import annotations

import json

import pytest

from repro.clustering.snapshot import SnapshotCluster
from repro.core.crowd import Crowd
from repro.core.gathering import Gathering
from repro.geometry.point import Point
from repro.serve import PatternApp, SingleStorePool
from repro.store import PatternStore


def cluster(t, cid, oids, x=0.0, y=0.0):
    return SnapshotCluster(
        timestamp=float(t),
        cluster_id=cid,
        members={o: Point(x + 0.25 * o, y + 0.5 * o) for o in oids},
    )


@pytest.fixture
def path(tmp_path):
    path = tmp_path / "patterns.db"
    with PatternStore(path) as store:
        near = Crowd((cluster(0, 0, [1, 2, 3]), cluster(1, 0, [1, 2, 3])))
        far = Crowd(
            (cluster(10, 0, [7, 8, 9], x=5000.0), cluster(11, 0, [7, 8, 9], x=5000.0))
        )
        store.add_crowds([near, far])
        store.add_gatherings([Gathering(crowd=near, participator_ids=frozenset({1, 2, 3}))])
    return path


@pytest.fixture
def one_shot(path):
    """A factory for apps over read-only handles (closed after the test)."""
    stores = []

    def make(cache_size=256):
        stores.append(PatternStore(path, readonly=True))
        return PatternApp(SingleStorePool(stores[-1]), cache_size=cache_size)

    yield make
    for store in stores:
        store.close()


def get(app, target):
    response = app.handle_request("GET", target)
    return response.status, json.loads(response.body)


def test_query_document_shape(one_shot):
    status, answer = get(one_shot(), "/gatherings?bbox=0,0,10,10")
    assert status == 200
    assert answer["kind"] == "gatherings"
    assert answer["count"] == 1
    assert answer["filters"]["bbox"] == [0.0, 0.0, 10.0, 10.0]
    assert answer["filters"]["cursor"] is None
    assert answer["next_cursor"] is None
    (row,) = answer["results"]
    assert row["object_ids"] == [1, 2, 3]
    assert "clusters" not in row


def test_include_clusters_inlines_payload(one_shot):
    _, answer = get(one_shot(), "/crowds?object_id=8&clusters=1")
    (row,) = answer["results"]
    assert len(row["clusters"]) == 2
    assert row["clusters"][0]["members"][0][0] == 7


def test_unknown_kind_rejected(one_shot):
    status, answer = get(one_shot(), "/swarms")
    assert status == 404
    assert "unknown path" in answer["error"]


def test_lru_cache_hits_and_eviction(one_shot):
    app = one_shot(cache_size=2)
    get(app, "/crowds")
    get(app, "/crowds")
    stats = app.cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    # Two more distinct queries evict the oldest entry (capacity 2).
    get(app, "/crowds?min_lifetime=1")
    get(app, "/crowds?min_lifetime=2")
    assert app.cache_stats()["size"] == 2
    get(app, "/crowds")  # evicted -> miss again
    assert app.cache_stats()["misses"] == 4


def test_cache_disabled(one_shot):
    # repro query --cache-size 0
    app = one_shot(cache_size=0)
    get(app, "/crowds")
    get(app, "/crowds")
    assert app.cache_stats() == {
        "size": 0, "capacity": 0, "hits": 0, "misses": 2, "not_modified": 0,
    }


def test_appends_invalidate_cached_results(one_shot, path):
    app = one_shot()
    assert get(app, "/crowds")[1]["count"] == 2
    with PatternStore(path) as writer:
        writer.add_crowds(
            [Crowd((cluster(20, 0, [4, 5, 6], y=900.0), cluster(21, 0, [4, 5, 6], y=900.0)))]
        )
    assert get(app, "/crowds")[1]["count"] == 3


def test_manual_invalidate(one_shot):
    app = one_shot()
    get(app, "/crowds")
    app.invalidate()
    assert app.cache_stats()["size"] == 0


def test_stats_includes_store_summary(one_shot):
    _, stats = get(one_shot(), "/stats")
    assert stats["store"]["crowds"] == 2
    assert stats["store"]["gatherings"] == 1
