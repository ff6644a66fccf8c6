"""Queryable serving tier over the persistent pattern store.

The read path of the system, layered for concurrency:

* :class:`~repro.serve.pool.ReadConnectionPool` — per-worker read-only
  SQLite connections over the WAL-mode store
  (:class:`~repro.serve.pool.SingleStorePool` wraps one in-process handle);
* :class:`~repro.serve.app.PatternApp` — the transport-agnostic request
  core: filtered queries, cursor pagination, ETag/If-None-Match, and a
  generation-keyed result cache; one-shot ``repro query`` answers through
  it too;
* :class:`~repro.serve.async_http.AsyncPatternServer` — the HTTP front end
  (``repro query --serve``); :func:`~repro.serve.async_http.running_server`
  runs it on a background thread for the duration of a ``with`` block.

Load-test the tier with ``repro loadtest`` (see :mod:`repro.loadtest`).
"""

from .app import PatternApp, Response, decode_cursor, encode_cursor
from .async_http import AsyncPatternServer, run_async_server, running_server
from .pool import ReadConnectionPool, SingleStorePool

__all__ = [
    "AsyncPatternServer",
    "PatternApp",
    "ReadConnectionPool",
    "Response",
    "SingleStorePool",
    "decode_cursor",
    "encode_cursor",
    "run_async_server",
    "running_server",
]
