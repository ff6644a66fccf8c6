"""The HTTP endpoint: routes, filters, error handling, concurrency."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.clustering.snapshot import SnapshotCluster
from repro.core.crowd import Crowd
from repro.core.gathering import Gathering
from repro.geometry.point import Point
from repro.serve import PatternApp, SingleStorePool, running_server
from repro.store import PatternStore


def cluster(t, cid, oids, x=0.0, y=0.0):
    return SnapshotCluster(
        timestamp=float(t),
        cluster_id=cid,
        members={o: Point(x + 0.25 * o, y + 0.5 * o) for o in oids},
    )


@pytest.fixture
def server():
    store = PatternStore(":memory:")
    near = Crowd((cluster(0, 0, [1, 2, 3]), cluster(1, 0, [1, 2, 3])))
    far = Crowd(
        (cluster(10, 0, [7, 8, 9], x=5000.0), cluster(11, 0, [7, 8, 9], x=5000.0))
    )
    store.add_crowds([near, far])
    store.add_gatherings([Gathering(crowd=near, participator_ids=frozenset({1, 2, 3}))])
    try:
        with running_server(PatternApp(SingleStorePool(store))) as address:
            yield address
    finally:
        store.close()


def get(server, path):
    host, port = server
    with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10) as response:
        return response.status, json.loads(response.read())


def get_error(server, path):
    host, port = server
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=10)
    return excinfo.value.code, json.loads(excinfo.value.read())


def test_healthz(server):
    status, document = get(server, "/healthz")
    assert status == 200
    assert document["status"] == "ok"
    assert isinstance(document["generation"], list) and len(document["generation"]) == 2


def test_gatherings_with_filters(server):
    status, document = get(
        server, "/gatherings?min_x=0&min_y=0&max_x=10&max_y=10&from=0&to=5"
    )
    assert status == 200
    assert document["count"] == 1
    assert document["results"][0]["object_ids"] == [1, 2, 3]


def test_bbox_shorthand_and_object_filter(server):
    assert get(server, "/crowds?bbox=4000,0,6000,10")[1]["count"] == 1
    assert get(server, "/crowds?object_id=8")[1]["count"] == 1
    assert get(server, "/crowds?object_id=12345")[1]["count"] == 0


def test_limit_and_clusters(server):
    status, document = get(server, "/crowds?limit=1&clusters=1")
    assert document["count"] == 1
    assert len(document["results"][0]["clusters"]) == 2


def test_stats_route(server):
    status, document = get(server, "/stats")
    assert status == 200
    assert document["store"]["crowds"] == 2
    assert {"hits", "misses", "not_modified"} <= set(document["cache"])
    assert document["pool"]["impl"] == "single"
    assert isinstance(document["generation"], list)


def test_malformed_parameters_get_400(server):
    code, document = get_error(server, "/gatherings?from=abc")
    assert code == 400 and "from" in document["error"]
    code, document = get_error(server, "/gatherings?bbox=1,2,3")
    assert code == 400 and "bbox" in document["error"]
    code, document = get_error(server, "/gatherings?min_x=1")
    assert code == 400 and "min_x" in document["error"]
    code, document = get_error(server, "/crowds?bbox=9,9,0,0")
    assert code == 400 and "degenerate" in document["error"]


@pytest.mark.parametrize(
    "path",
    [
        "/gatherings?from=nan",
        "/gatherings?to=inf",
        "/crowds?from=-inf",
        "/crowds?bbox=nan,0,1,1",
        "/crowds?bbox=0,0,inf,1",
    ],
)
def test_non_finite_parameters_get_400_not_500(server, path):
    # Regression: these used to surface as 500s from deep inside the query.
    code, document = get_error(server, path)
    assert code == 400
    assert "finite" in document["error"]


def test_unknown_route_gets_404(server):
    code, document = get_error(server, "/swarms")
    assert code == 404
    assert "/gatherings" in document["routes"]


def test_concurrent_requests(server):
    paths = ["/crowds", "/gatherings", "/stats", "/healthz"] * 5
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda path: get(server, path)[0], paths))
    assert results == [200] * len(paths)
