"""Concurrency parity: the async server answers byte-identically to the app.

A single-threaded oracle (a fresh ``PatternApp`` driven directly, no HTTP)
computes the expected ``(status, body)`` for every endpoint/filter
combination; then N concurrent clients fire the same requests at the live
server and every response must match the oracle exactly — same status
codes, byte-identical JSON bodies — under real concurrency.
"""

from __future__ import annotations

import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import (
    PatternApp,
    ReadConnectionPool,
    SingleStorePool,
    running_server,
)
from repro.store import PatternStore

CONCURRENT_CLIENTS = 16


def endpoint_matrix(oracle: PatternApp):
    """Every endpoint/filter combination the suite replays.

    Built against the oracle so cursor tokens in the list are real page-2
    continuations, not hand-rolled guesses.
    """
    targets = [
        "/healthz",
        "/gatherings",
        "/crowds",
        "/gatherings?bbox=0,0,2000,2000",
        "/crowds?bbox=0,0,2000,2000",
        "/gatherings?min_x=0&min_y=0&max_x=5000&max_y=5000",
        "/crowds?from=0&to=6",
        "/gatherings?from=2&to=10",
        "/crowds?object_id=3",
        "/gatherings?object_id=3",
        "/crowds?object_id=424242",
        "/crowds?min_lifetime=1",
        "/gatherings?min_lifetime=99",
        "/crowds?limit=2",
        "/crowds?limit=3&clusters=1",
        "/gatherings?limit=1",
        "/crowds?bbox=0,0,9000,9000&from=0&to=50&min_lifetime=1&limit=4",
        # Error paths must be identical too.
        "/nope",
        "/crowds?from=abc",
        "/crowds?bbox=1,2,3",
        "/crowds?from=nan",
        "/crowds?cursor=bogus",
    ]
    # Follow every paginated listing one hop so cursors are exercised.
    for base in ("/crowds?limit=2", "/gatherings?limit=1"):
        document = json.loads(oracle.handle_request("GET", base, {}).body)
        if document["next_cursor"]:
            targets.append(f"{base}&cursor={document['next_cursor']}")
    return targets


@pytest.fixture
def corpus(file_store):
    """Oracle expectations for the full endpoint matrix."""
    path, _store = file_store
    oracle_store = PatternStore(path, readonly=True)
    oracle = PatternApp(SingleStorePool(oracle_store), cache_size=0)
    targets = endpoint_matrix(oracle)
    expected = {}
    for target in targets:
        response = oracle.handle_request("GET", target, {})
        expected[target] = (response.status, response.body)
    try:
        yield path, targets, expected
    finally:
        oracle_store.close()


def fetch(host, port, target):
    """One raw request; returns (status, body bytes)."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def fire_concurrently(host, port, targets, expected):
    """Replay the matrix from CONCURRENT_CLIENTS threads; return mismatches."""
    jobs = []
    for client in range(CONCURRENT_CLIENTS):
        # Each client walks the matrix from a different offset so distinct
        # targets genuinely overlap in flight.
        jobs.append(targets[client % len(targets):] + targets[: client % len(targets)])
    mismatches = []
    lock = threading.Lock()

    def run_client(sequence):
        for target in sequence:
            status, body = fetch(host, port, target)
            if (status, body) != expected[target]:
                with lock:
                    mismatches.append((target, status, body))

    with ThreadPoolExecutor(max_workers=CONCURRENT_CLIENTS) as pool:
        list(pool.map(run_client, jobs))
    return mismatches


def test_async_server_matches_oracle_under_concurrency(corpus):
    path, targets, expected = corpus
    pool = ReadConnectionPool(path, size=4)
    app = PatternApp(pool, cache_size=64)
    try:
        with running_server(app) as (host, port):
            assert fire_concurrently(host, port, targets, expected) == []
    finally:
        pool.close()

