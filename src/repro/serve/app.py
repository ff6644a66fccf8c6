"""Transport-agnostic serving application over a pattern-store pool.

:class:`PatternApp` is the single request-handling core: the asyncio HTTP
server (:mod:`repro.serve.async_http`) and one-shot ``repro query`` both
answer through it.  Called in-process it is also the oracle of the
concurrency parity suite, which asserts that the server returns
byte-identical JSON for the same request.

Semantics:

* ``GET /gatherings`` / ``GET /crowds`` — filtered pattern queries with

  - conjunctive filters ``bbox`` (or ``min_x``/``min_y``/``max_x``/
    ``max_y``), ``from``/``to``, ``object_id``, ``min_lifetime``,
    ``clusters=1``;
  - **cursor pagination**: ``limit=N`` caps the page and the response
    carries ``next_cursor`` (an opaque token encoding the last row's
    keyset position) to pass back as ``cursor=...``; walking pages
    reconstructs the exact unpaginated result set with no duplicates or
    gaps;
  - **ETag / If-None-Match**: every response carries a strong ETag derived
    from the canonical query and the store generation; a conditional
    request is answered ``304 Not Modified`` — without touching the
    database — iff the store generation is unchanged.

* ``GET /stats`` — store summary, result-cache counters, connection-pool
  stats and the store generation;
* ``GET /healthz`` — liveness plus the store generation.

Malformed or non-finite parameters get a ``400`` with an ``error`` field
(NaN/infinite ``bbox``/``from``/``to`` values are rejected up front — they
would silently match nothing through SQL comparisons), unknown paths a
``404``, non-GET methods a ``405``.

Results are cached per ``(canonical query, store generation)`` in an LRU,
so any append to the store — another shard landing, a streaming eviction
flush — invalidates every stale entry implicitly.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..resilience.counters import ResilienceCounters
from ..store.pattern_store import RowKey

__all__ = ["PatternApp", "Response", "decode_cursor", "encode_cursor", "parse_filters"]

#: Routes the application answers.
ROUTES = ("/gatherings", "/crowds", "/stats", "/healthz")


@dataclass(frozen=True)
class Response:
    """One rendered response: status code, JSON body bytes, extra headers."""

    status: int
    body: bytes
    headers: Mapping[str, str] = field(default_factory=dict)


def encode_cursor(key: RowKey) -> str:
    """Encode a keyset row position as an opaque URL-safe cursor token."""
    payload = json.dumps(
        [float(key[0]), float(key[1]), str(key[2])], separators=(",", ":")
    )
    return base64.urlsafe_b64encode(payload.encode("ascii")).decode("ascii")


def decode_cursor(token: str) -> RowKey:
    """Decode a cursor token back to its row key; raise ``ValueError`` if bogus."""
    try:
        payload = json.loads(base64.urlsafe_b64decode(token.encode("ascii")))
    except (ValueError, binascii.Error, UnicodeDecodeError):
        raise ValueError(f"malformed cursor {token!r}")
    if (
        not isinstance(payload, list)
        or len(payload) != 3
        or not all(isinstance(part, (int, float)) for part in payload[:2])
        or not isinstance(payload[2], str)
    ):
        raise ValueError(f"malformed cursor {token!r}")
    return (float(payload[0]), float(payload[1]), payload[2])


def parse_filters(query_string: str) -> Dict[str, Any]:
    """Translate URL query parameters into store-query keyword arguments.

    Raises ``ValueError`` (mapped to a 400 by the caller) on anything
    malformed, including NaN / infinite numeric values — those would not
    error through SQL comparisons, they would silently match nothing.
    """
    raw = {key: values[-1] for key, values in parse_qs(query_string).items()}
    filters: Dict[str, Any] = {}

    def _finite(name: str, text: str) -> float:
        """Parse one float and insist it is finite."""
        try:
            value = float(text)
        except ValueError:
            raise ValueError(f"parameter {name!r} must be a number, got {text!r}")
        if not math.isfinite(value):
            raise ValueError(f"parameter {name!r} must be finite, got {text!r}")
        return value

    def _float(name: str) -> Optional[float]:
        """Parse one optional finite float parameter."""
        if name not in raw:
            return None
        return _finite(name, raw[name])

    def _int(name: str) -> Optional[int]:
        """Parse one optional integer parameter."""
        if name not in raw:
            return None
        try:
            return int(raw[name])
        except ValueError:
            raise ValueError(f"parameter {name!r} must be an integer, got {raw[name]!r}")

    if "bbox" in raw:
        parts = raw["bbox"].split(",")
        if len(parts) != 4:
            raise ValueError("bbox must be 'min_x,min_y,max_x,max_y'")
        filters["bbox"] = tuple(_finite("bbox", part) for part in parts)
    else:
        corners = [_float(name) for name in ("min_x", "min_y", "max_x", "max_y")]
        present = [corner is not None for corner in corners]
        if any(present):
            if not all(present):
                raise ValueError("a spatial filter needs all of min_x, min_y, max_x, max_y")
            filters["bbox"] = tuple(corners)

    filters["time_from"] = _float("from")
    filters["time_to"] = _float("to")
    filters["object_id"] = _int("object_id")
    filters["min_lifetime"] = _int("min_lifetime")
    limit = _int("limit")
    if limit is not None and limit < 0:
        raise ValueError(f"parameter 'limit' must be non-negative, got {limit}")
    filters["limit"] = limit
    filters["include_clusters"] = raw.get("clusters") in ("1", "true", "yes")
    filters["cursor"] = decode_cursor(raw["cursor"]) if "cursor" in raw else None
    return filters


def _json_body(document: Dict[str, Any]) -> bytes:
    """Serialise one response document (the single canonical JSON rendering)."""
    return json.dumps(document).encode("utf-8")


class PatternApp:
    """The shared request-handling core of both HTTP server implementations.

    Parameters
    ----------
    pool:
        A connection pool (:class:`~repro.serve.pool.ReadConnectionPool` or
        :class:`~repro.serve.pool.SingleStorePool`) over the pattern store.
    cache_size:
        LRU capacity of the rendered-result cache; ``0`` disables caching.
        Entries are keyed on ``(canonical query, store generation)``, so
        store appends invalidate implicitly.
    counters:
        Shared :class:`~repro.resilience.counters.ResilienceCounters`
        surfaced on ``/stats``; the async transport increments its shed /
        timeout / dropped-connection counts here.  A fresh instance is
        created when omitted.

    The app is thread-safe: the asyncio server calls :meth:`handle_request`
    from its executor workers.
    """

    def __init__(
        self,
        pool,
        cache_size: int = 256,
        counters: Optional[ResilienceCounters] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.pool = pool
        self.counters = counters if counters is not None else ResilienceCounters()
        self.cache_size = int(cache_size)
        self._cache: "OrderedDict[Tuple, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._not_modified = 0

    # -- entry points ------------------------------------------------------------
    def handle_request(
        self,
        method: str,
        target: str,
        headers: Optional[Mapping[str, str]] = None,
    ) -> Response:
        """Answer one HTTP request (``target`` is the raw path?query string)."""
        if method.upper() != "GET":
            return Response(
                405,
                _json_body({"error": f"method {method} not allowed; use GET"}),
                {"Allow": "GET"},
            )
        headers = headers or {}
        if_none_match = None
        for name, value in headers.items():
            if name.lower() == "if-none-match":
                if_none_match = value
        url = urlsplit(target)
        route = url.path.rstrip("/") or "/"
        try:
            if route == "/healthz":
                return self._healthz()
            if route == "/stats":
                return self._stats()
            if route in ("/gatherings", "/crowds"):
                return self._patterns(route[1:], url.query, if_none_match)
            return Response(
                404,
                _json_body(
                    {
                        "error": f"unknown path {url.path!r}",
                        "routes": ["/gatherings", "/crowds", "/stats", "/healthz"],
                    }
                ),
            )
        except ValueError as error:
            return Response(400, _json_body({"error": str(error)}))

    # -- fixed routes ------------------------------------------------------------
    def _healthz(self) -> Response:
        """Liveness: always 200, with the store generation for observers."""
        return Response(
            200, _json_body({"status": "ok", "generation": list(self.pool.generation)})
        )

    def _stats(self) -> Response:
        """Store summary plus cache, pool and generation introspection."""
        with self._lock:
            cache = {
                "size": len(self._cache),
                "capacity": self.cache_size,
                "hits": self._hits,
                "misses": self._misses,
                "not_modified": self._not_modified,
            }
        document = {
            "store": self.pool.summary(),
            "cache": cache,
            "pool": self.pool.stats(),
            "resilience": self.counters.as_dict(),
            "generation": list(self.pool.generation),
        }
        return Response(200, _json_body(document))

    # -- pattern queries ---------------------------------------------------------
    def _patterns(self, kind: str, query_string: str, if_none_match: Optional[str]) -> Response:
        """One paginated, ETagged, cached pattern query."""
        filters = parse_filters(query_string)
        key = (
            kind,
            filters["bbox"] if filters.get("bbox") is not None else None,
            filters["time_from"],
            filters["time_to"],
            filters["object_id"],
            filters["min_lifetime"],
            filters["limit"],
            filters["include_clusters"],
            filters["cursor"],
        )
        generation = self.pool.generation
        etag = self._etag(key, generation)
        if if_none_match is not None and self._etag_matches(if_none_match, etag):
            with self._lock:
                self._not_modified += 1
            return Response(304, b"", {"ETag": etag})

        cache_key = (key, generation)
        with self._lock:
            body = self._cache.get(cache_key)
            if body is not None:
                self._cache.move_to_end(cache_key)
                self._hits += 1
                return Response(200, body, {"ETag": etag})
            self._misses += 1

        body = _json_body(self._execute(kind, filters))
        if self.cache_size:
            with self._lock:
                self._cache[cache_key] = body
                self._cache.move_to_end(cache_key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        return Response(200, body, {"ETag": etag})

    def _execute(self, kind: str, filters: Dict[str, Any]) -> Dict[str, Any]:
        """Run one store query on a pooled connection and shape the document.

        The query goes through the pool's resilient ``read()`` entry point,
        so a locked-database collision is retried with backoff (counted on
        the pool's stats) instead of surfacing as a 500.
        """
        cursor = filters["cursor"]
        limit = filters["limit"]

        def _query(store):
            """One store round-trip: fetch the page and shape its rows."""
            querier = store.query_gatherings if kind == "gatherings" else store.query_crowds
            records = querier(
                bbox=filters.get("bbox"),
                time_from=filters["time_from"],
                time_to=filters["time_to"],
                object_id=filters["object_id"],
                min_lifetime=filters["min_lifetime"],
                limit=limit,
                after=cursor,
            )
            results = []
            for record in records:
                row = record.summary()
                if filters["include_clusters"]:
                    pattern = record.decode()
                    crowd = pattern.crowd if record.kind == "gathering" else pattern
                    row["clusters"] = [
                        {
                            "t": cluster.timestamp,
                            "id": cluster.cluster_id,
                            "members": [
                                [oid, p.x, p.y] for oid, p in cluster.members.items()
                            ],
                        }
                        for cluster in crowd.clusters
                    ]
                results.append(row)
            return records, results

        records, results = self.pool.read(_query)
        next_cursor = None
        if limit is not None and limit > 0 and len(records) == limit:
            last = records[-1]
            next_cursor = encode_cursor((last.start_time, last.end_time, last.fingerprint))
        bbox = filters.get("bbox")
        return {
            "kind": kind,
            "filters": {
                "bbox": list(bbox) if bbox is not None else None,
                "from": filters["time_from"],
                "to": filters["time_to"],
                "object_id": filters["object_id"],
                "min_lifetime": filters["min_lifetime"],
                "limit": limit,
                "cursor": encode_cursor(cursor) if cursor is not None else None,
            },
            "count": len(results),
            "results": results,
            "next_cursor": next_cursor,
        }

    # -- ETags -------------------------------------------------------------------
    @staticmethod
    def _etag(key: Tuple, generation: Tuple[int, int]) -> str:
        """Strong ETag of one canonical query at one store generation."""
        digest = hashlib.sha256(repr((key, generation)).encode("utf-8")).hexdigest()
        return f'"{digest[:24]}"'

    @staticmethod
    def _etag_matches(if_none_match: str, etag: str) -> bool:
        """RFC 7232 If-None-Match: token list or ``*`` (weak prefixes ignored)."""
        for candidate in if_none_match.split(","):
            candidate = candidate.strip()
            if candidate == "*":
                return True
            if candidate.startswith("W/"):
                candidate = candidate[2:]
            if candidate == etag:
                return True
        return False

    # -- introspection -----------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Result-cache counters (size, hits, misses, 304s)."""
        with self._lock:
            return {
                "size": len(self._cache),
                "capacity": self.cache_size,
                "hits": self._hits,
                "misses": self._misses,
                "not_modified": self._not_modified,
            }

    def invalidate(self) -> None:
        """Drop every cached result (appends invalidate implicitly; this is manual)."""
        with self._lock:
            self._cache.clear()
