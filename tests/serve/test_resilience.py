"""Serving-tier resilience: timeouts, shedding, faults, lifecycle hygiene."""

from __future__ import annotations

import http.client
import threading
import time

import pytest

from repro.resilience.faults import FaultPlan, FaultSpec, clear_plan, install_plan
from repro.serve import ReadConnectionPool
from repro.serve.app import PatternApp
from repro.serve.async_http import running_server
from repro.store import PatternStore


@pytest.fixture(autouse=True)
def _clean_fault_state():
    clear_plan()
    yield
    clear_plan()


@pytest.fixture
def pooled(file_store):
    path, _store = file_store
    pool = ReadConnectionPool(path, size=2)
    yield pool
    pool.close()


class SlowApp(PatternApp):
    """App whose query endpoints stall — drives timeout/shedding paths."""

    def __init__(self, pool, delay, **kwargs):
        super().__init__(pool, **kwargs)
        self.delay = delay

    def handle_request(self, method, target, headers):
        if not target.startswith("/healthz"):
            time.sleep(self.delay)
        return super().handle_request(method, target, headers)


def _get(host, port, target):
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", target)
        response = connection.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        connection.close()


class TestRequestTimeout:
    def test_slow_request_answers_503_and_counts(self, pooled):
        app = SlowApp(pooled, delay=1.0)
        with running_server(app, request_timeout=0.2) as (host, port):
            status, body, headers = _get(host, port, "/crowds?limit=3")
            assert status == 503
            assert b"timed out" in body
            assert headers.get("Retry-After") == "1"
            # Health stays fast and unaffected.
            assert _get(host, port, "/healthz")[0] == 200
        assert app.counters.value("request_timeouts") == 1

    def test_fast_requests_unaffected_by_the_bound(self, pooled):
        app = PatternApp(pooled)
        with running_server(app, request_timeout=5.0) as (host, port):
            assert _get(host, port, "/crowds?limit=3")[0] == 200
        assert app.counters.value("request_timeouts") == 0


class TestLoadShedding:
    def test_overload_sheds_with_503_and_retry_after(self, pooled):
        app = SlowApp(pooled, delay=0.5)
        results = []
        with running_server(app, max_in_flight=1, request_timeout=10.0) as (host, port):
            def client():
                results.append(_get(host, port, "/crowds?limit=1"))

            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        statuses = sorted(status for status, _, _ in results)
        assert set(statuses) <= {200, 503}
        assert 200 in statuses and 503 in statuses
        shed = [h for status, _, h in results if status == 503]
        assert all(h.get("Retry-After") == "1" for h in shed)
        assert app.counters.value("shed") == statuses.count(503)

    def test_shed_responses_keep_the_connection_usable(self, pooled):
        app = SlowApp(pooled, delay=0.4)
        with running_server(app, max_in_flight=1) as (host, port):
            blocker = threading.Thread(
                target=lambda: _get(host, port, "/crowds?limit=1")
            )
            blocker.start()
            time.sleep(0.1)
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                # Two requests on one keep-alive connection: the first is
                # shed, the second (after the blocker drains) succeeds.
                connection.request("GET", "/crowds?limit=1")
                first = connection.getresponse()
                first.read()
                blocker.join()
                connection.request("GET", "/healthz")
                second = connection.getresponse()
                second.read()
                assert first.status == 503
                assert second.status == 200
            finally:
                connection.close()


class TestInjectedFaults:
    def test_dropped_connection_fault_counts_and_recovers(self, pooled):
        app = PatternApp(pooled)
        install_plan(FaultPlan([FaultSpec("serve.drop", times=1)]))
        with running_server(app) as (host, port):
            with pytest.raises((http.client.HTTPException, OSError)):
                _get(host, port, "/healthz")
            assert _get(host, port, "/healthz")[0] == 200
        assert app.counters.value("dropped_connections") == 1

    def test_locked_store_fault_is_retried_transparently(self, pooled):
        app = PatternApp(pooled)
        install_plan(FaultPlan([FaultSpec("store.locked", times=2)]))
        with running_server(app) as (host, port):
            status, _, _ = _get(host, port, "/crowds?limit=2")
        assert status == 200
        assert pooled.stats()["locked_retries"] == 2

    def test_stats_exposes_resilience_counters(self, pooled):
        import json

        app = PatternApp(pooled)
        with running_server(app, request_timeout=5.0) as (host, port):
            _status, body, _ = _get(host, port, "/stats")
        document = json.loads(body)
        assert document["resilience"] == {
            "dropped_connections": 0,
            "locked_retries": 0,
            "request_timeouts": 0,
            "shed": 0,
        }
        assert document["pool"]["waits"] == 0


class TestRunningServerLifecycle:
    def test_startup_timeout_raises_clearly(self, pooled, monkeypatch):
        import asyncio

        from repro.serve.async_http import AsyncPatternServer

        async def never_starts(self):
            await asyncio.sleep(60)

        monkeypatch.setattr(AsyncPatternServer, "start", never_starts)
        app = PatternApp(pooled)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="failed to start"):
            with running_server(app, startup_timeout=0.2):
                pass  # pragma: no cover - never reached
        deadline = time.monotonic() + 5
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= before

    def test_repeated_cycles_leak_no_threads(self, pooled):
        before = threading.active_count()
        for _ in range(3):
            with running_server(PatternApp(pooled)) as (host, port):
                assert _get(host, port, "/healthz")[0] == 200
        deadline = time.monotonic() + 5
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert threading.active_count() <= before

    def test_shutdown_with_in_flight_keep_alive_request(self, pooled):
        app = SlowApp(pooled, delay=0.8)
        outcome = {}

        def slow_client(host, port):
            try:
                outcome["result"] = _get(host, port, "/crowds?limit=1")
            except (http.client.HTTPException, OSError) as error:
                outcome["error"] = type(error).__name__

        started = time.monotonic()
        with running_server(app, request_timeout=10.0) as (host, port):
            client = threading.Thread(target=slow_client, args=(host, port))
            client.start()
            time.sleep(0.2)  # let the request reach the executor
        # Exiting the context with the request in flight must neither hang
        # nor leak: the server either answered or dropped the connection.
        assert time.monotonic() - started < 8.0
        client.join(timeout=10)
        assert not client.is_alive()
        assert "result" in outcome or "error" in outcome


class TestPoolOversubscription:
    def test_more_clients_than_connections_completes_and_counts_waits(self, file_store):
        path, _store = file_store
        pool = ReadConnectionPool(path, size=2)
        results = []

        def reader():
            def query(store: PatternStore):
                time.sleep(0.05)
                return store.crowd_count()

            results.append(pool.read(query))

        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert all(not thread.is_alive() for thread in threads)
            assert results == [9] * 8
            stats = pool.stats()
            assert stats["waits"] > 0
            assert stats["acquired"] == 8
        finally:
            pool.close()
