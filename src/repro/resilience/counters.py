"""Thread-safe event counters the serving tier surfaces on ``/stats``.

One :class:`ResilienceCounters` instance is shared by the request app, the
connection pool and the async transport, so a single ``/stats`` read shows
every resilience event for the process: shed requests, request timeouts,
dropped connections, locked-database retries.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable

__all__ = ["ResilienceCounters"]

#: Counters always present in the snapshot so the /stats shape is stable.
_DEFAULT_NAMES = (
    "shed",
    "request_timeouts",
    "dropped_connections",
    "locked_retries",
)


class ResilienceCounters:
    """A named bag of monotonically increasing, thread-safe counters."""

    def __init__(self, names: Iterable[str] = _DEFAULT_NAMES) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {name: 0 for name in names}

    def increment(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to counter ``name`` (created on first use); new value."""
        with self._lock:
            value = self._counts.get(name, 0) + int(amount)
            self._counts[name] = value
            return value

    def value(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of every counter, sorted by name."""
        with self._lock:
            return {name: self._counts[name] for name in sorted(self._counts)}
