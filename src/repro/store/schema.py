"""Versioned SQLite schema of the persistent pattern store.

The store is a single SQLite database holding the end product of mining —
closed crowds and closed gatherings — in a shape that supports both exact
reconstruction and indexed querying:

* ``meta`` — format tag, schema version and the mining parameters, so a
  store is self-describing and version-checked on open;
* ``crowds`` / ``gatherings`` — one row per pattern with its temporal
  extent, lifetime, spatial bounding box and a value-complete JSON payload
  (the :mod:`repro.core.codec` encoding) from which the original
  :class:`~repro.core.crowd.Crowd` / :class:`~repro.core.gathering.Gathering`
  object is rebuilt.  ``fingerprint`` is the content hash of the pattern's
  identity; a UNIQUE constraint on it gives the store its idempotent append
  semantics — repeated runs and streaming evictions can all be inserted
  blindly and land exactly once;
* ``crowd_members`` / ``gathering_participators`` — normalized per-object
  rows enabling "which gatherings did object o take part in?" lookups
  without decoding payloads.

Indexes cover the query planes of the serving layer: temporal
(``start_time`` / ``end_time``), spatial (bounding-box columns) and
per-object (member / participator object ids).
"""

from __future__ import annotations

__all__ = ["STORE_FORMAT", "STORE_VERSION", "SCHEMA_STATEMENTS"]

#: Format tag stored in ``meta`` and checked when a store is opened.
STORE_FORMAT = "repro-pattern-store"

#: Schema version; bumped on any incompatible table change.
STORE_VERSION = 1

#: DDL executed (idempotently) when a store is created or opened for write.
SCHEMA_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS crowds (
        id          INTEGER PRIMARY KEY,
        fingerprint TEXT NOT NULL UNIQUE,
        start_time  REAL NOT NULL,
        end_time    REAL NOT NULL,
        lifetime    INTEGER NOT NULL,
        min_x       REAL NOT NULL,
        min_y       REAL NOT NULL,
        max_x       REAL NOT NULL,
        max_y       REAL NOT NULL,
        payload     TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS crowd_members (
        crowd_id    INTEGER NOT NULL REFERENCES crowds(id) ON DELETE CASCADE,
        object_id   INTEGER NOT NULL,
        occurrences INTEGER NOT NULL,
        PRIMARY KEY (crowd_id, object_id)
    ) WITHOUT ROWID
    """,
    """
    CREATE TABLE IF NOT EXISTS gatherings (
        id          INTEGER PRIMARY KEY,
        fingerprint TEXT NOT NULL UNIQUE,
        start_time  REAL NOT NULL,
        end_time    REAL NOT NULL,
        lifetime    INTEGER NOT NULL,
        min_x       REAL NOT NULL,
        min_y       REAL NOT NULL,
        max_x       REAL NOT NULL,
        max_y       REAL NOT NULL,
        payload     TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS gathering_participators (
        gathering_id INTEGER NOT NULL REFERENCES gatherings(id) ON DELETE CASCADE,
        object_id    INTEGER NOT NULL,
        PRIMARY KEY (gathering_id, object_id)
    ) WITHOUT ROWID
    """,
    "CREATE INDEX IF NOT EXISTS idx_crowds_time ON crowds (start_time, end_time)",
    "CREATE INDEX IF NOT EXISTS idx_crowds_bbox ON crowds (min_x, max_x, min_y, max_y)",
    "CREATE INDEX IF NOT EXISTS idx_gatherings_time ON gatherings (start_time, end_time)",
    "CREATE INDEX IF NOT EXISTS idx_gatherings_bbox"
    " ON gatherings (min_x, max_x, min_y, max_y)",
    "CREATE INDEX IF NOT EXISTS idx_crowd_members_object ON crowd_members (object_id)",
    "CREATE INDEX IF NOT EXISTS idx_gathering_participators_object"
    " ON gathering_participators (object_id)",
)
