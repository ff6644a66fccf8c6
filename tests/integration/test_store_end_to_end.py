"""Acceptance: pooled mine -> store -> query equals an in-memory run.

Drives the public surfaces end to end, the way a user would:
``repro mine --workers 4 --store out.db`` followed by
``repro query --store out.db --bbox ... --from ... --to ...`` must return
exactly the gatherings an in-memory single-process ``GatheringMiner`` run
finds, and the HTTP endpoint must agree with the CLI answer.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.core.config import GatheringParameters
from repro.core.pipeline import GatheringMiner
from repro.datagen.scenarios import city_scenario
from repro.serve import PatternApp, SingleStorePool, make_server
from repro.store import PatternStore
from repro.trajectory.io import save_csv

PARAMS = GatheringParameters(
    eps=200.0, min_points=4, mc=5, delta=300.0, kc=10, kp=6, mp=3, time_step=1.0
)

PARAM_FLAGS = [
    "--eps", "200", "--min-points", "4", "--mc", "5", "--delta", "300",
    "--kc", "10", "--kp", "6", "--mp", "3",
]


@pytest.fixture(scope="module")
def city_database():
    return city_scenario(fleet_size=320, duration=48, districts=4, seed=97).database


@pytest.fixture(scope="module")
def reference(city_database):
    """The in-memory, single-process answer the store must reproduce."""
    return GatheringMiner(PARAMS).mine(city_database)


@pytest.fixture(scope="module")
def mined_store(city_database, tmp_path_factory):
    """Run ``repro mine --workers 4 --store out.db`` once for the module."""
    tmp_path = tmp_path_factory.mktemp("store-e2e")
    csv_path = tmp_path / "city.csv"
    store_path = tmp_path / "out.db"
    save_csv(city_database, csv_path)
    exit_code = main(
        ["mine", "--input", str(csv_path), "--workers", "4", "--store", str(store_path)]
        + PARAM_FLAGS
    )
    assert exit_code == 0
    return store_path


def gathering_identity(g):
    return (g.keys(), g.participator_ids)


def test_store_holds_exactly_the_in_memory_answer(mined_store, reference):
    with PatternStore(mined_store, readonly=True) as store:
        stored = {gathering_identity(g) for g in store.gatherings()}
        stored_crowds = {c.keys() for c in store.crowds()}
    assert stored == {gathering_identity(g) for g in reference.gatherings}
    assert stored_crowds == {c.keys() for c in reference.closed_crowds}


def test_cli_query_returns_the_same_gatherings(mined_store, reference, tmp_path):
    # A bbox/time window covering the whole scenario must return everything.
    answer_path = tmp_path / "answer.json"
    exit_code = main(
        [
            "query", "--store", str(mined_store),
            "--bbox=-100000,-100000,100000,100000",
            "--from=-1000", "--to", "100000",
            "--json", str(answer_path),
        ]
    )
    assert exit_code == 0
    answer = json.loads(answer_path.read_text())
    expected = sorted(
        (g.start_time, g.end_time, tuple(sorted(g.participator_ids)))
        for g in reference.gatherings
    )
    got = sorted(
        (row["start_time"], row["end_time"], tuple(row["object_ids"]))
        for row in answer["results"]
    )
    assert got == expected


def test_narrow_window_filters_consistently(mined_store, reference):
    t_mid = sorted(g.start_time for g in reference.gatherings)[0] + 1.0
    with PatternStore(mined_store, readonly=True) as store:
        rows = store.query_gatherings(time_from=t_mid, time_to=t_mid)
    expected = {
        gathering_identity(g)
        for g in reference.gatherings
        if g.start_time <= t_mid <= g.end_time
    }
    assert {gathering_identity(r.decode()) for r in rows} == expected
    assert rows  # the window was chosen to hit at least one gathering


def test_serve_rejects_one_shot_filter_flags(mined_store, capsys):
    exit_code = main(
        ["query", "--store", str(mined_store), "--serve", "--min-lifetime", "5"]
    )
    assert exit_code == 1
    assert "--min-lifetime" in capsys.readouterr().err


def test_http_endpoint_agrees_with_the_store(mined_store, reference):
    with PatternStore(mined_store, readonly=True) as store:
        server = make_server(PatternApp(SingleStorePool(store)))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address
            with urllib.request.urlopen(
                f"http://{host}:{port}/gatherings?from=-1000&to=100000", timeout=10
            ) as response:
                document = json.loads(response.read())
        finally:
            server.shutdown()
            server.server_close()
    assert document["count"] == len(reference.gatherings)
