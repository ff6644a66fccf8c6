"""Read-connection pooling over the SQLite pattern store.

The serving tier answers many concurrent queries; a single SQLite
connection would funnel all of them through one lock.  With the store in
WAL mode (see :class:`~repro.store.PatternStore`), independent read
connections query concurrently without blocking each other or a writer, so
the pool opens one read-only :class:`~repro.store.PatternStore` handle per
worker and hands them out per request.

Two implementations share the same duck type — ``acquire()`` context
manager, ``read()``, ``generation``, ``summary()``, ``stats()``,
``close()``:

* :class:`ReadConnectionPool` — N read-only handles over a file-backed
  store, plus one dedicated metadata handle so ``generation`` / ``summary``
  probes never queue behind long queries;
* :class:`SingleStorePool` — wraps one caller-owned (possibly in-memory)
  store; the store's internal lock serialises access.  One-shot
  ``repro query`` and in-process callers use this shape.

``read()`` is the resilient entry point the request app uses: it runs a
caller-supplied query function against an acquired handle and retries with
exponential backoff when SQLite reports the database locked or busy
(connection-level ``busy_timeout`` absorbs short collisions; this layer
covers the longer ones and surfaces a ``locked_retries`` counter on
``stats()``).
"""

from __future__ import annotations

import queue
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Tuple, TypeVar, Union

from ..resilience.faults import maybe_fault
from ..resilience.retry import RetryPolicy
from ..store.pattern_store import PatternStore

__all__ = [
    "ReadConnectionPool",
    "SingleStorePool",
    "is_locked_error",
]

PathLike = Union[str, Path]

T = TypeVar("T")

#: Backoff applied to locked-database reads: four attempts inside ~0.4s,
#: deterministic jitter so chaos runs replay the same schedule.
DEFAULT_LOCKED_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.02, multiplier=3.0, max_delay=0.5, seed=0
)


def is_locked_error(error: BaseException) -> bool:
    """Whether an exception is SQLite's transient locked/busy complaint."""
    if not isinstance(error, sqlite3.OperationalError):
        return False
    message = str(error).lower()
    return "locked" in message or "busy" in message


def _maybe_locked_fault() -> None:
    """The ``store.locked`` injection site: raise what a lock collision would."""
    if maybe_fault("store.locked") is not None:
        raise sqlite3.OperationalError("database is locked")


class ReadConnectionPool:
    """A fixed pool of read-only pattern-store connections.

    Parameters
    ----------
    path:
        File-backed pattern-store database (must exist; in-memory stores
        cannot be shared across connections — use :class:`SingleStorePool`).
    size:
        Number of pooled read connections.  ``acquire()`` blocks when all
        are checked out, bounding concurrent SQLite work to ``size``.
    retry_policy:
        Backoff applied by :meth:`read` to locked/busy SQLite errors.
    """

    def __init__(
        self,
        path: PathLike,
        size: int = 4,
        retry_policy: RetryPolicy = DEFAULT_LOCKED_RETRY,
    ) -> None:
        if size < 1:
            raise ValueError("pool size must be at least 1")
        self.path = str(path)
        self.size = int(size)
        self.retry_policy = retry_policy
        self._meta = PatternStore(self.path, readonly=True)
        self._idle: "queue.Queue[PatternStore]" = queue.Queue()
        self._all = []
        for _ in range(self.size):
            store = PatternStore(self.path, readonly=True)
            self._all.append(store)
            self._idle.put(store)
        self._lock = threading.Lock()
        self._acquired = 0
        self._in_use = 0
        self._waits = 0
        self._locked_retries = 0
        self._closed = False

    @contextmanager
    def acquire(self) -> Iterator[PatternStore]:
        """Check one read connection out of the pool (blocks when empty).

        A caller that finds the pool drained counts one wait on
        ``stats()['waits']`` before blocking — the signal that client
        concurrency exceeds the pool size.
        """
        if self._closed:
            raise ValueError(f"connection pool over {self.path!r} is closed")
        try:
            store = self._idle.get_nowait()
        except queue.Empty:
            with self._lock:
                self._waits += 1
            store = self._idle.get()
        with self._lock:
            self._acquired += 1
            self._in_use += 1
        try:
            yield store
        finally:
            with self._lock:
                self._in_use -= 1
            self._idle.put(store)

    def read(self, fn: Callable[[PatternStore], T]) -> T:
        """Run ``fn(store)`` on a pooled handle, retrying locked errors.

        Each attempt acquires a (possibly different) handle, so a
        connection wedged behind a writer's lock does not pin the retry to
        the same loser.  Retries count on ``stats()['locked_retries']``;
        when the policy's attempts are exhausted the last locked error
        propagates to the caller.
        """

        def _attempt() -> T:
            with self.acquire() as store:
                _maybe_locked_fault()
                return fn(store)

        def _count_retry(_attempt_number: int, _error: BaseException) -> None:
            with self._lock:
                self._locked_retries += 1

        return self.retry_policy.call(
            _attempt, retry_on=is_locked_error, on_retry=_count_retry
        )

    @property
    def generation(self) -> Tuple[int, int]:
        """The store's change marker, read through the metadata handle."""
        return self._meta.generation

    def summary(self) -> Dict[str, Any]:
        """The store's headline summary, read through the metadata handle."""
        return self._meta.summary()

    def stats(self) -> Dict[str, Any]:
        """Pool shape and usage counters for the ``/stats`` endpoint."""
        with self._lock:
            return {
                "impl": "pooled",
                "size": self.size,
                "in_use": self._in_use,
                "acquired": self._acquired,
                "waits": self._waits,
                "locked_retries": self._locked_retries,
            }

    def close(self) -> None:
        """Close every pooled connection; the pool is unusable afterwards."""
        self._closed = True
        for store in self._all:
            store.close()
        self._meta.close()


class SingleStorePool:
    """Pool facade over one caller-owned store handle.

    The wrapped :class:`~repro.store.PatternStore` serialises concurrent
    access through its internal lock; ``close()`` is a no-op because the
    caller owns the handle's lifecycle.
    """

    size = 1

    def __init__(
        self,
        store: PatternStore,
        retry_policy: RetryPolicy = DEFAULT_LOCKED_RETRY,
    ) -> None:
        self.store = store
        self.retry_policy = retry_policy
        self._lock = threading.Lock()
        self._acquired = 0
        self._locked_retries = 0

    @contextmanager
    def acquire(self) -> Iterator[PatternStore]:
        """Hand out the single shared handle (never blocks)."""
        with self._lock:
            self._acquired += 1
        yield self.store

    def read(self, fn: Callable[[PatternStore], T]) -> T:
        """Run ``fn(store)`` on the shared handle, retrying locked errors."""

        def _attempt() -> T:
            with self.acquire() as store:
                _maybe_locked_fault()
                return fn(store)

        def _count_retry(_attempt_number: int, _error: BaseException) -> None:
            with self._lock:
                self._locked_retries += 1

        return self.retry_policy.call(
            _attempt, retry_on=is_locked_error, on_retry=_count_retry
        )

    @property
    def generation(self) -> Tuple[int, int]:
        """The wrapped store's change marker."""
        return self.store.generation

    def summary(self) -> Dict[str, Any]:
        """The wrapped store's headline summary."""
        return self.store.summary()

    def stats(self) -> Dict[str, Any]:
        """Pool shape and usage counters for the ``/stats`` endpoint."""
        with self._lock:
            return {
                "impl": "single",
                "size": 1,
                "in_use": 0,
                "acquired": self._acquired,
                "waits": 0,
                "locked_retries": self._locked_retries,
            }

    def close(self) -> None:
        """No-op: the caller owns the wrapped store."""

