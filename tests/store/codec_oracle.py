"""The pattern store's original encoding and insert loop, kept as a test oracle.

Before the store encoded each cluster once from its frame columns, every
crowd and gathering was encoded from its member maps: the fingerprint
hashed a sorted, compact ``json.dumps`` of the full cluster content, the
payload was ``json.dumps(encode_crowd(...))`` / ``json.dumps(encode_gathering(...))``,
the bbox was the union of the clusters' ``mbr`` and the member rows came
from ``Crowd.occurrences()``.  :func:`oracle_insert` writes rows that way,
one statement at a time, so a test can compare every stored byte of the
production path against it.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
from typing import Any, Iterable, List

from repro.core.codec import encode_crowd, encode_gathering
from repro.core.crowd import Crowd
from repro.core.gathering import Gathering


def _digest(payload: Any) -> str:
    canonical = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def _crowd_content(crowd: Crowd) -> List[Any]:
    return [
        [
            cluster.timestamp,
            cluster.cluster_id,
            [[oid, p.x, p.y] for oid, p in sorted(cluster.members.items())],
        ]
        for cluster in crowd.clusters
    ]


def crowd_fingerprint(crowd: Crowd) -> str:
    return _digest(_crowd_content(crowd))


def gathering_fingerprint(gathering: Gathering) -> str:
    return _digest(
        {
            "crowd": _crowd_content(gathering.crowd),
            "par": sorted(gathering.participator_ids),
        }
    )


def crowd_payload(crowd: Crowd) -> str:
    return json.dumps(encode_crowd(crowd))


def gathering_payload(gathering: Gathering) -> str:
    return json.dumps(encode_gathering(gathering))


def _crowd_bbox(crowd: Crowd):
    boxes = [cluster.mbr for cluster in crowd.clusters]
    return (
        min(box.min_x for box in boxes),
        min(box.min_y for box in boxes),
        max(box.max_x for box in boxes),
        max(box.max_y for box in boxes),
    )


def oracle_insert(
    conn: sqlite3.Connection, crowds: Iterable[Crowd], gatherings: Iterable[Gathering]
) -> None:
    """Insert patterns into an initialised store database the original way."""
    for crowd in crowds:
        bbox = _crowd_bbox(crowd)
        cursor = conn.execute(
            "INSERT OR IGNORE INTO crowds (fingerprint, start_time, end_time,"
            " lifetime, min_x, min_y, max_x, max_y, payload)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (crowd_fingerprint(crowd), crowd.start_time, crowd.end_time, crowd.lifetime,
             *bbox, crowd_payload(crowd)),
        )
        if cursor.rowcount:
            conn.executemany(
                "INSERT INTO crowd_members (crowd_id, object_id, occurrences)"
                " VALUES (?, ?, ?)",
                [(cursor.lastrowid, oid, count)
                 for oid, count in sorted(crowd.occurrences().items())],
            )
    for gathering in gatherings:
        bbox = _crowd_bbox(gathering.crowd)
        cursor = conn.execute(
            "INSERT OR IGNORE INTO gatherings (fingerprint, start_time,"
            " end_time, lifetime, min_x, min_y, max_x, max_y, payload)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (gathering_fingerprint(gathering), gathering.start_time, gathering.end_time,
             gathering.lifetime, *bbox, gathering_payload(gathering)),
        )
        if cursor.rowcount:
            conn.executemany(
                "INSERT INTO gathering_participators (gathering_id, object_id)"
                " VALUES (?, ?)",
                [(cursor.lastrowid, oid) for oid in sorted(gathering.participator_ids)],
            )
    conn.commit()
