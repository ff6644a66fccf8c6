"""Asyncio HTTP front end over the shared serving application.

The production transport of the serving tier: a stdlib-only
``asyncio.start_server`` HTTP/1.1 server.  The event loop owns connection
handling (thousands of keep-alive connections cost one task each, not one
thread each); the actual request work — SQLite reads through the
connection pool, JSON rendering, cache bookkeeping — runs on a small
thread-pool executor sized to the connection pool, so one slow query never
stalls the accept loop and concurrent queries really do run on distinct
read connections.

The transport is also where overload and stuck-query protection live:

* every executor-backed request is bounded by ``request_timeout`` — a
  query that outlives it is answered ``503`` (the worker thread finishes
  in the background; the client is not held hostage by it);
* ``max_in_flight`` caps concurrently executing requests — beyond it the
  server *sheds load*, answering ``503`` with ``Retry-After`` immediately
  instead of queueing unboundedly;
* both events, plus abruptly dropped client connections, are counted on
  the app's :class:`~repro.resilience.counters.ResilienceCounters` and
  surfaced on ``/stats``.

Every request is answered by a :class:`~repro.serve.app.PatternApp`, so
a response body is byte-identical to the app's in-process answer (see
``tests/serve/test_async_parity.py``).
"""

from __future__ import annotations

import asyncio
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from contextlib import contextmanager, suppress
from typing import Iterator, Optional, Tuple

from ..resilience.faults import maybe_fault
from .app import PatternApp, Response

__all__ = ["AsyncPatternServer", "run_async_server", "running_server"]

#: Reason phrases for the statuses the application emits.
_REASONS = {
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Upper bound on one request head (request line + headers), in bytes.
_MAX_REQUEST_HEAD = 32 * 1024

#: Default wall-clock bound on one executor-backed request, in seconds.
DEFAULT_REQUEST_TIMEOUT = 30.0


def _render(response: Response, keep_alive: bool) -> bytes:
    """Serialise one application response as an HTTP/1.1 message."""
    reason = _REASONS.get(response.status, "OK")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines).encode("ascii") + b"\r\n\r\n"
    return head + response.body


class AsyncPatternServer:
    """One asyncio HTTP server bound to a :class:`PatternApp`.

    Parameters
    ----------
    app:
        The shared serving application.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (tests).
    workers:
        Executor threads running the blocking store queries.  Defaults to
        the app's pool size, so there is one worker per read connection.
    request_timeout:
        Per-request wall-clock bound on the executor-backed work, in
        seconds; a request exceeding it is answered ``503`` and counted as
        a ``request_timeouts`` resilience event.  ``None`` disables the
        bound.
    max_in_flight:
        Load-shedding cap on concurrently executing requests.  A request
        arriving while this many are already running is answered ``503``
        with ``Retry-After`` without touching the executor (counted as
        ``shed``).  ``None`` disables shedding.
    """

    def __init__(
        self,
        app: PatternApp,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: Optional[int] = None,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        max_in_flight: Optional[int] = None,
    ) -> None:
        if request_timeout is not None and request_timeout <= 0:
            raise ValueError("request_timeout must be positive (or None)")
        if max_in_flight is not None and max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1 (or None)")
        self.app = app
        self.host = host
        self.port = port
        self.workers = int(workers or getattr(app.pool, "size", 4))
        self.request_timeout = request_timeout
        self.max_in_flight = max_in_flight
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        # Touched only from the event loop, so a plain int is race-free.
        self._in_flight = 0

    async def start(self) -> None:
        """Bind the listening socket and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.port,
            limit=_MAX_REQUEST_HEAD,
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ValueError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """Serve until cancelled (the asyncio idiom for 'run until stopped')."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drain open connections, and release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle keep-alive connections are parked in readuntil(); cancel them
        # so no task outlives the server.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._executor.shutdown(wait=False)

    # -- connection handling -----------------------------------------------------
    async def _dispatch(
        self, loop: asyncio.AbstractEventLoop, method: str, target: str, headers: dict
    ) -> Response:
        """Run one request on the executor with shedding and a timeout.

        Shedding is checked before the executor is touched, so an
        overloaded server answers in microseconds.  On timeout the worker
        thread finishes (and warms caches) in the background; only the
        *response* is abandoned.
        """
        if self.max_in_flight is not None and self._in_flight >= self.max_in_flight:
            self.app.counters.increment("shed")
            return Response(
                503,
                b'{"error": "server overloaded, request shed"}',
                {"Retry-After": "1"},
            )
        self._in_flight += 1
        try:
            work = loop.run_in_executor(
                self._executor, self.app.handle_request, method, target, headers
            )
            if self.request_timeout is None:
                return await work
            return await asyncio.wait_for(work, timeout=self.request_timeout)
        except (asyncio.TimeoutError, TimeoutError):
            self.app.counters.increment("request_timeouts")
            return Response(
                503,
                b'{"error": "request timed out"}',
                {"Retry-After": "1"},
            )
        finally:
            self._in_flight -= 1

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Process one client connection: a keep-alive loop of GET requests."""
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break  # client closed (between requests or mid-head)
                except asyncio.LimitOverrunError:
                    writer.write(
                        _render(Response(431, b'{"error": "request head too large"}'), False)
                    )
                    await writer.drain()
                    break

                parsed = self._parse_head(head)
                if parsed is None:
                    writer.write(
                        _render(Response(400, b'{"error": "malformed request"}'), False)
                    )
                    await writer.drain()
                    break
                method, target, version, headers = parsed

                if maybe_fault("serve.drop") is not None:
                    # Chaos harness: vanish mid-request, as a crashed proxy
                    # or yanked cable would — no response bytes at all.
                    self.app.counters.increment("dropped_connections")
                    break

                response = await self._dispatch(loop, method, target, headers)
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                writer.write(_render(response, keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client vanished
            pass
        except asyncio.CancelledError:
            # stop() cancels connections parked in readuntil(); finishing
            # normally here keeps the streams protocol callback quiet.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            with suppress(ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                await writer.wait_closed()

    @staticmethod
    def _parse_head(head: bytes) -> Optional[Tuple[str, str, str, dict]]:
        """Parse one request head; ``None`` means a 400-worthy malformation."""
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 decodes all bytes
            return None
        lines = text.split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return None
        method, target, version = parts
        headers = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                return None
            headers[name.strip().lower()] = value.strip()
        return method, target, version, headers


def run_async_server(
    app: PatternApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: Optional[int] = None,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
    max_in_flight: Optional[int] = None,
) -> None:
    """Blocking convenience wrapper: serve until interrupted (the CLI path)."""
    server = AsyncPatternServer(
        app,
        host=host,
        port=port,
        workers=workers,
        request_timeout=request_timeout,
        max_in_flight=max_in_flight,
    )

    async def _main() -> None:
        """Start the server and park on serve_forever."""
        await server.start()
        await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass


@contextmanager
def running_server(
    app: PatternApp,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: Optional[int] = None,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
    max_in_flight: Optional[int] = None,
    startup_timeout: float = 10.0,
    shutdown_timeout: float = 10.0,
) -> Iterator[Tuple[str, int]]:
    """Run an async server on a background event loop; yield its address.

    The loadtest harness and the test suites use this to stand a live
    server up around an app without blocking the calling thread.

    Lifecycle is strict: a server that fails to start within
    ``startup_timeout`` raises immediately, and on exit the event-loop
    thread is always stopped and joined — if it cannot be stopped within
    ``shutdown_timeout`` a ``RuntimeError`` is raised instead of silently
    leaking the thread (unless the body is already unwinding with its own
    exception, which is never masked).
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True, name="repro-serve-loop")
    thread.start()
    server = AsyncPatternServer(
        app,
        host=host,
        port=port,
        workers=workers,
        request_timeout=request_timeout,
        max_in_flight=max_in_flight,
    )
    try:
        start_future = asyncio.run_coroutine_threadsafe(server.start(), loop)
        try:
            start_future.result(timeout=startup_timeout)
        except FuturesTimeoutError:
            start_future.cancel()
            raise RuntimeError(
                f"async server failed to start within {startup_timeout:g}s"
            ) from None
        yield server.address
    finally:
        shutdown_problems = []
        try:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(
                timeout=shutdown_timeout
            )
        except FuturesTimeoutError:
            shutdown_problems.append(
                f"server.stop() did not finish within {shutdown_timeout:g}s"
            )
        except Exception as error:  # noqa: BLE001 - reported below, never masked
            shutdown_problems.append(f"server.stop() raised {error!r}")
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=shutdown_timeout)
        if thread.is_alive():
            shutdown_problems.append(
                f"event-loop thread still alive after {shutdown_timeout:g}s"
            )
        else:
            loop.close()
        if shutdown_problems and sys.exc_info()[0] is None:
            raise RuntimeError(
                "async server shutdown failed: " + "; ".join(shutdown_problems)
            )
