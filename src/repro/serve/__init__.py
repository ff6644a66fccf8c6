"""Queryable serving tier over the persistent pattern store.

The read path of the system, layered for concurrency:

* :class:`~repro.serve.pool.ReadConnectionPool` — per-worker read-only
  SQLite connections over the WAL-mode store
  (:class:`~repro.serve.pool.SingleStorePool` wraps one in-process handle);
* :class:`~repro.serve.app.PatternApp` — the transport-agnostic request
  core: filtered queries, cursor pagination, ETag/If-None-Match, and a
  generation-keyed result cache; one-shot ``repro query`` answers through
  it too;
* :class:`~repro.serve.async_http.AsyncPatternServer` — the asyncio HTTP
  front end (``repro query --serve``);
* :func:`~repro.serve.http.make_server` — the threaded stdlib front end,
  kept as the parity oracle (``--server-impl threaded``).

Load-test the tier with ``repro loadtest`` (see :mod:`repro.loadtest`).
"""

from .app import PatternApp, Response, decode_cursor, encode_cursor
from .async_http import AsyncPatternServer, run_async_server, running_server
from .http import make_server, serve_forever
from .pool import ReadConnectionPool, SingleStorePool, open_read_pool

__all__ = [
    "AsyncPatternServer",
    "PatternApp",
    "ReadConnectionPool",
    "Response",
    "SingleStorePool",
    "decode_cursor",
    "encode_cursor",
    "make_server",
    "open_read_pool",
    "run_async_server",
    "running_server",
    "serve_forever",
]
