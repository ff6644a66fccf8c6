"""The persistent, indexed pattern store.

:class:`PatternStore` is the durability layer of the mining system: the
closed crowds and closed gatherings produced by any driver — a one-shot
:class:`~repro.core.pipeline.GatheringMiner` run, the sharded batch driver,
or the streaming service's Lemma-4 evictions — land in one SQLite database
with spatial, temporal and per-object indexes (see
:mod:`repro.store.schema`).  Inserts are keyed by content fingerprint
(:func:`repro.core.codec.crowd_fingerprint` /
:func:`~repro.core.codec.gathering_fingerprint`), so appending the same
pattern twice — a re-run of the same job, an at-least-once eviction flush —
is idempotent.

The store is the single source of truth the serving layer
(:class:`repro.serve.PatternApp`) reads from.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..clustering.snapshot import SnapshotCluster
from ..core.codec import (
    PatternEncoding,
    cluster_fragments,
    crowd_encoding,
    decode_crowd,
    decode_gathering,
    gathering_encoding,
)
from ..core.config import GatheringParameters
from ..core.crowd import Crowd
from ..core.gathering import Gathering
from ..engine.frame import FrameBackedCluster
from .schema import SCHEMA_STATEMENTS, STORE_FORMAT, STORE_VERSION

__all__ = ["PatternRecord", "PatternStore", "RowKey"]

PathLike = Union[str, Path]

#: Spatial filter: ``(min_x, min_y, max_x, max_y)`` in data coordinates.
BBox = Tuple[float, float, float, float]

#: Keyset-pagination cursor: the ``(start_time, end_time, fingerprint)`` of
#: the last row already seen, in the store's canonical result order.
RowKey = Tuple[float, float, str]


@dataclass(frozen=True)
class PatternRecord:
    """One stored pattern row: indexed metadata plus the decodable payload.

    ``kind`` is ``"crowd"`` or ``"gathering"``.  :meth:`decode` rebuilds the
    full :class:`~repro.core.crowd.Crowd` /
    :class:`~repro.core.gathering.Gathering` object from the value-complete
    payload; :meth:`summary` gives the JSON-friendly metadata view the
    serving layer returns.
    """

    kind: str
    fingerprint: str
    start_time: float
    end_time: float
    lifetime: int
    bbox: BBox
    object_ids: Tuple[int, ...]
    payload: str

    def decode(self) -> Union[Crowd, Gathering]:
        """Rebuild the stored pattern object from its JSON payload."""
        data = json.loads(self.payload)
        if self.kind == "gathering":
            return decode_gathering(data)
        return decode_crowd(data)

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly metadata view (no cluster payload)."""
        return {
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "lifetime": self.lifetime,
            "bbox": list(self.bbox),
            "object_ids": sorted(self.object_ids),
        }


class _ClusterRow(NamedTuple):
    """One cluster as a write sees it: both JSON fragments, bbox and member ids."""

    canonical: str
    payload: str
    box: BBox
    ids: np.ndarray


def _cluster_row(cluster: SnapshotCluster) -> _ClusterRow:
    """Encode a cluster and read its bbox and member ids from its frame columns.

    Scalar clusters (decoded payloads, the python backend) fall back to
    their member maps.
    """
    canonical, payload = cluster_fragments(cluster)
    if isinstance(cluster, FrameBackedCluster):
        frame, index = cluster.segment()
        start, end = frame.segment(index)
        box = tuple(frame.mbrs()[index].tolist())
        ids = frame.object_ids[start:end]
    else:
        mbr = cluster.mbr
        box = (mbr.min_x, mbr.min_y, mbr.max_x, mbr.max_y)
        ids = np.fromiter(cluster.members, dtype=np.int64, count=len(cluster))
    return _ClusterRow(canonical, payload, box, ids)


class PatternStore:
    """A versioned SQLite database of mined crowds and gatherings.

    Parameters
    ----------
    path:
        Database file (created if missing).  ``":memory:"`` gives an
        in-process store, handy in tests.
    readonly:
        Open an existing store without write access; creation and appends
        then raise.
    busy_timeout_ms:
        SQLite ``busy_timeout`` applied to the connection.  Without it a
        reader colliding with a writer's exclusive moment (or two writers
        colliding) raises ``database is locked`` *immediately*; with it
        SQLite itself retries for up to this many milliseconds before
        giving up, which absorbs the short lock windows WAL mode still has
        (checkpoints, schema changes, non-WAL fallbacks).

    The store is safe to share across threads (the serving layer's HTTP
    handlers query it concurrently); writes are serialised by an internal
    lock, and each write call is one transaction, committed when it returns
    and rolled back if it raises.
    """

    def __init__(
        self,
        path: PathLike = ":memory:",
        readonly: bool = False,
        busy_timeout_ms: int = 5000,
    ) -> None:
        self.path = str(path)
        self.readonly = readonly
        self.busy_timeout_ms = int(busy_timeout_ms)
        self._lock = threading.RLock()
        if readonly:
            if self.path != ":memory:" and not Path(self.path).exists():
                raise ValueError(f"pattern store {self.path!r} does not exist")
            uri = f"file:{self.path}?mode=ro"
            self._conn = sqlite3.connect(uri, uri=True, check_same_thread=False)
        else:
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
            if self.path != ":memory:":
                # WAL lets the serving tier's read-connection pool query
                # concurrently while a writer appends: readers never block
                # the writer and vice versa.  (In-memory databases do not
                # support WAL; sqlite silently keeps journal_mode=memory.)
                self._conn.execute("PRAGMA journal_mode=WAL")
        # Always applied: sqlite3.connect's own timeout installs a busy
        # handler by default, so zero must explicitly disable it.
        self._conn.execute(f"PRAGMA busy_timeout={max(0, self.busy_timeout_ms)}")
        self._conn.row_factory = sqlite3.Row
        self._generation = 0
        self._initialise()

    # -- lifecycle ---------------------------------------------------------------
    def _initialise(self) -> None:
        """Create or validate the schema and the format/version meta rows."""
        with self._lock:
            tables = {
                row[0]
                for row in self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            if "meta" not in tables:
                if self.readonly:
                    raise ValueError(f"{self.path!r} is not a {STORE_FORMAT} database")
                for statement in SCHEMA_STATEMENTS:
                    self._conn.execute(statement)
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('format', ?), ('version', ?)",
                    (STORE_FORMAT, str(STORE_VERSION)),
                )
                self._conn.commit()
                return
            meta = self._meta()
            if meta.get("format") != STORE_FORMAT:
                raise ValueError(f"{self.path!r} is not a {STORE_FORMAT} database")
            version = int(meta.get("version", "0"))
            if version != STORE_VERSION:
                raise ValueError(
                    f"unsupported store version {version} in {self.path!r} "
                    f"(this build reads version {STORE_VERSION})"
                )
            if not self.readonly:
                # Idempotent: (re)creates any index added by a same-version build.
                for statement in SCHEMA_STATEMENTS:
                    self._conn.execute(statement)
                self._conn.commit()

    def close(self) -> None:
        """Close the underlying connection; further calls raise."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "PatternStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- metadata ----------------------------------------------------------------
    def _meta(self) -> Dict[str, str]:
        """The raw ``meta`` key/value table as a dict."""
        return {
            row["key"]: row["value"]
            for row in self._conn.execute("SELECT key, value FROM meta")
        }

    @property
    def generation(self) -> Tuple[int, int]:
        """Monotonic change marker: bumps whenever the store's content may have.

        Combines this handle's own write counter with SQLite's
        ``data_version`` pragma (which advances when *another* connection
        commits), so the serving layer's cache can key on it and never serve
        stale results after an append.
        """
        with self._lock:
            row = self._conn.execute("PRAGMA data_version").fetchone()
        return (self._generation, int(row[0]))

    def params(self) -> Optional[GatheringParameters]:
        """The mining parameters recorded in the store, if any."""
        with self._lock:
            meta = self._meta()
        if "params" not in meta:
            return None
        return GatheringParameters(**json.loads(meta["params"]))

    def set_params(self, params: GatheringParameters, force: bool = False) -> None:
        """Record the mining parameters; reject a mismatch with stored ones.

        A store mixes pattern sets only if they were mined with identical
        thresholds — silently merging incompatible runs would corrupt the
        answer — so a second writer with different parameters raises unless
        ``force`` is given.
        """
        self._insert((), (), params=params, force=force)

    def _check_params(self, params: GatheringParameters, force: bool) -> None:
        """Raise if the store already records different parameters (unless forced)."""
        existing = self.params()
        if existing is not None and existing != params and not force:
            raise ValueError(
                f"store {self.path!r} was written with parameters {existing.as_dict()}; "
                f"refusing to mix in results mined with {params.as_dict()} "
                "(pass force=True to overwrite)"
            )

    def _assert_writable(self) -> None:
        """Raise on write attempts against a read-only handle."""
        if self.readonly:
            raise ValueError(f"pattern store {self.path!r} is read-only")

    # -- appends -----------------------------------------------------------------
    def add_crowds(self, crowds: Iterable[Crowd]) -> int:
        """Insert crowds (idempotent by fingerprint); return how many were new."""
        return self.add_patterns(crowds, ())["crowds"]

    def add_gatherings(self, gatherings: Iterable[Gathering]) -> int:
        """Insert gatherings (idempotent by fingerprint); return how many were new."""
        return self.add_patterns((), gatherings)["gatherings"]

    def add_patterns(
        self, crowds: Iterable[Crowd], gatherings: Iterable[Gathering]
    ) -> Dict[str, int]:
        """Insert crowds and gatherings in one transaction; count the new ones.

        A gathering over the same clusters as a crowd of the call reuses
        their encoding.
        """
        return self._insert(crowds, gatherings)

    def write_result(self, result) -> Dict[str, int]:
        """Persist a :class:`~repro.core.pipeline.MiningResult` (params included)."""
        return self._insert(result.closed_crowds, result.gatherings, params=result.params)

    def _insert(
        self,
        crowds: Iterable[Crowd],
        gatherings: Iterable[Gathering],
        params: Optional[GatheringParameters] = None,
        force: bool = False,
    ) -> Dict[str, int]:
        """The one write path: optional params, then crowds, then gatherings.

        Everything lands in one transaction that rolls back if any pattern
        fails, so a failed call leaves no row behind.  Each cluster is
        encoded once per call (:func:`~repro.core.codec.cluster_fragments`)
        and its bbox and member ids are read from its frame columns.
        """
        self._assert_writable()
        # Keyed by identity (equality would materialise a frame-backed
        # cluster's member map); holding the cluster keeps its id unique.
        rows: Dict[int, Tuple[SnapshotCluster, _ClusterRow]] = {}

        def row_of(cluster: SnapshotCluster) -> _ClusterRow:
            found = rows.get(id(cluster))
            if found is None:
                found = rows[id(cluster)] = (cluster, _cluster_row(cluster))
            return found[1]

        inserted = {"crowds": 0, "gatherings": 0}
        with self._lock:
            with self._conn:
                if params is not None:
                    self._check_params(params, force)
                    self._conn.execute(
                        "INSERT OR REPLACE INTO meta (key, value) VALUES ('params', ?)",
                        (json.dumps(params.as_dict()),),
                    )
                for crowd in crowds:
                    clusters = [row_of(cluster) for cluster in crowd.clusters]
                    encoded = crowd_encoding(crowd, row_of)
                    crowd_id = self._insert_pattern("crowds", crowd, encoded, clusters)
                    if crowd_id is None:
                        continue
                    inserted["crowds"] += 1
                    ids, counts = np.unique(
                        np.concatenate([row.ids for row in clusters]), return_counts=True
                    )
                    self._conn.executemany(
                        "INSERT INTO crowd_members (crowd_id, object_id, occurrences)"
                        " VALUES (?, ?, ?)",
                        zip(repeat(crowd_id), ids.tolist(), counts.tolist()),
                    )
                for gathering in gatherings:
                    clusters = [row_of(cluster) for cluster in gathering.crowd.clusters]
                    encoded = gathering_encoding(gathering, row_of)
                    gathering_id = self._insert_pattern(
                        "gatherings", gathering, encoded, clusters
                    )
                    if gathering_id is None:
                        continue
                    inserted["gatherings"] += 1
                    self._conn.executemany(
                        "INSERT INTO gathering_participators (gathering_id, object_id)"
                        " VALUES (?, ?)",
                        zip(repeat(gathering_id), sorted(gathering.participator_ids)),
                    )
            if params is not None or any(inserted.values()):
                self._generation += 1
        return inserted

    def _insert_pattern(
        self,
        table: str,
        pattern: Union[Crowd, Gathering],
        encoded: PatternEncoding,
        clusters: List["_ClusterRow"],
    ) -> Optional[int]:
        """INSERT OR IGNORE one pattern row; its row id, or None if already stored."""
        min_xs, min_ys, max_xs, max_ys = zip(*(row.box for row in clusters))
        cursor = self._conn.execute(
            f"INSERT OR IGNORE INTO {table} (fingerprint, start_time, end_time,"
            " lifetime, min_x, min_y, max_x, max_y, payload)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                encoded.fingerprint,
                pattern.start_time,
                pattern.end_time,
                pattern.lifetime,
                min(min_xs),
                min(min_ys),
                max(max_xs),
                max(max_ys),
                encoded.payload,
            ),
        )
        return cursor.lastrowid if cursor.rowcount else None

    # -- counts ------------------------------------------------------------------
    def crowd_count(self) -> int:
        """Number of stored closed crowds."""
        with self._lock:
            return int(self._conn.execute("SELECT COUNT(*) FROM crowds").fetchone()[0])

    def gathering_count(self) -> int:
        """Number of stored closed gatherings."""
        with self._lock:
            return int(
                self._conn.execute("SELECT COUNT(*) FROM gatherings").fetchone()[0]
            )

    def summary(self) -> Dict[str, Any]:
        """Headline view: counts, distinct objects, temporal and spatial extent."""
        with self._lock:
            crowds = self.crowd_count()
            gatherings = self.gathering_count()
            objects = int(
                self._conn.execute(
                    "SELECT COUNT(DISTINCT object_id) FROM crowd_members"
                ).fetchone()[0]
            )
            extent = self._conn.execute(
                "SELECT MIN(start_time), MAX(end_time), MIN(min_x), MIN(min_y),"
                " MAX(max_x), MAX(max_y) FROM crowds"
            ).fetchone()
        params = self.params()
        return {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "crowds": crowds,
            "gatherings": gatherings,
            "objects": objects,
            "time_span": [extent[0], extent[1]] if crowds else None,
            "bbox": list(extent[2:6]) if crowds else None,
            "params": params.as_dict() if params is not None else None,
        }

    # -- queries -----------------------------------------------------------------
    def _query(
        self,
        table: str,
        member_table: str,
        member_fk: str,
        bbox: Optional[BBox],
        time_from: Optional[float],
        time_to: Optional[float],
        object_id: Optional[int],
        min_lifetime: Optional[int],
        limit: Optional[int],
        after: Optional[RowKey] = None,
    ) -> List[PatternRecord]:
        """Shared filtered SELECT over one pattern table."""
        clauses: List[str] = []
        values: List[Any] = []
        if after is not None:
            if len(after) != 3:
                raise ValueError(
                    f"after must be (start_time, end_time, fingerprint), got {after!r}"
                )
            # Keyset pagination: the result order (start_time, end_time,
            # fingerprint) is a total order (fingerprints are unique), so
            # resuming strictly after a row never duplicates or skips one.
            clauses.append("(p.start_time, p.end_time, p.fingerprint) > (?, ?, ?)")
            values.extend([float(after[0]), float(after[1]), str(after[2])])
        if bbox is not None:
            min_x, min_y, max_x, max_y = bbox
            if min_x > max_x or min_y > max_y:
                raise ValueError(f"degenerate bbox {bbox!r} (min corner beyond max)")
            clauses.append("p.max_x >= ? AND p.min_x <= ? AND p.max_y >= ? AND p.min_y <= ?")
            values.extend([min_x, max_x, min_y, max_y])
        if time_from is not None:
            clauses.append("p.end_time >= ?")
            values.append(time_from)
        if time_to is not None:
            clauses.append("p.start_time <= ?")
            values.append(time_to)
        if min_lifetime is not None:
            clauses.append("p.lifetime >= ?")
            values.append(min_lifetime)
        if object_id is not None:
            clauses.append(
                f"p.id IN (SELECT {member_fk} FROM {member_table} WHERE object_id = ?)"
            )
            values.append(object_id)
        sql = f"SELECT p.* FROM {table} p"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY p.start_time, p.end_time, p.fingerprint"
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be non-negative")
            sql += " LIMIT ?"
            values.append(limit)

        kind = "crowd" if table == "crowds" else "gathering"
        with self._lock:
            rows = self._conn.execute(sql, values).fetchall()
            # One batched member fetch for all matched rows (not one SELECT
            # per row): chunked to stay under SQLite's bound-variable limit.
            members_by_row: Dict[int, List[int]] = {row["id"]: [] for row in rows}
            ids = list(members_by_row)
            for start in range(0, len(ids), 500):
                chunk = ids[start : start + 500]
                placeholders = ",".join("?" * len(chunk))
                for member in self._conn.execute(
                    f"SELECT {member_fk} AS row_id, object_id FROM {member_table}"
                    f" WHERE {member_fk} IN ({placeholders}) ORDER BY object_id",
                    chunk,
                ):
                    members_by_row[member["row_id"]].append(member["object_id"])
        return [
            PatternRecord(
                kind=kind,
                fingerprint=row["fingerprint"],
                start_time=row["start_time"],
                end_time=row["end_time"],
                lifetime=row["lifetime"],
                bbox=(row["min_x"], row["min_y"], row["max_x"], row["max_y"]),
                object_ids=tuple(members_by_row[row["id"]]),
                payload=row["payload"],
            )
            for row in rows
        ]

    def query_crowds(
        self,
        bbox: Optional[BBox] = None,
        time_from: Optional[float] = None,
        time_to: Optional[float] = None,
        object_id: Optional[int] = None,
        min_lifetime: Optional[int] = None,
        limit: Optional[int] = None,
        after: Optional[RowKey] = None,
    ) -> List[PatternRecord]:
        """Crowds overlapping the given region / time window / object filters.

        All filters are optional and conjunctive.  ``bbox`` matches crowds
        whose bounding box intersects it; ``time_from``/``time_to`` match
        crowds whose ``[start_time, end_time]`` interval overlaps the window;
        ``object_id`` matches crowds the object is a member of;
        ``min_lifetime`` is the durability threshold.  ``after`` resumes the
        canonical ``(start_time, end_time, fingerprint)`` order strictly
        after that row key (keyset pagination; pair it with ``limit``).
        """
        return self._query(
            "crowds", "crowd_members", "crowd_id",
            bbox, time_from, time_to, object_id, min_lifetime, limit,
            after=after,
        )

    def query_gatherings(
        self,
        bbox: Optional[BBox] = None,
        time_from: Optional[float] = None,
        time_to: Optional[float] = None,
        object_id: Optional[int] = None,
        min_lifetime: Optional[int] = None,
        limit: Optional[int] = None,
        after: Optional[RowKey] = None,
    ) -> List[PatternRecord]:
        """Gatherings overlapping the given filters (see :meth:`query_crowds`).

        ``object_id`` matches against the gathering's *participator* set —
        the durable members, not every object that ever touched a cluster.
        """
        return self._query(
            "gatherings", "gathering_participators", "gathering_id",
            bbox, time_from, time_to, object_id, min_lifetime, limit,
            after=after,
        )

    # -- full decodes ------------------------------------------------------------
    def crowds(self) -> Iterator[Crowd]:
        """Decode every stored crowd, ordered by (start_time, end_time)."""
        for record in self.query_crowds():
            yield record.decode()

    def gatherings(self) -> Iterator[Gathering]:
        """Decode every stored gathering, ordered by (start_time, end_time)."""
        for record in self.query_gatherings():
            yield record.decode()
