"""Shared value codecs for mined pattern records.

One JSON encoding of :class:`~repro.clustering.snapshot.SnapshotCluster`,
:class:`~repro.core.crowd.Crowd` and :class:`~repro.core.gathering.Gathering`
is used everywhere a pattern crosses a process or storage boundary — the
streaming checkpoint (:mod:`repro.stream.checkpoint`), the persistent
pattern store (:mod:`repro.store`) and the query serving layer
(:mod:`repro.serve`).  Records are *value-complete*: the member
``object_id -> (x, y)`` maps are stored in insertion order, so decoding
rebuilds objects that compare equal to the originals and all floats
round-trip exactly (shortest-repr JSON float encoding).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

from ..clustering.snapshot import SnapshotCluster
from ..geometry.point import Point
from .crowd import Crowd
from .gathering import Gathering

__all__ = [
    "encode_cluster",
    "decode_cluster",
    "encode_crowd",
    "decode_crowd",
    "encode_gathering",
    "decode_gathering",
    "crowd_key_from_json",
    "crowd_fingerprint",
    "gathering_fingerprint",
]


def encode_cluster(cluster: SnapshotCluster) -> Dict[str, Any]:
    """JSON form of one snapshot cluster (members keep insertion order)."""
    return {
        "t": cluster.timestamp,
        "id": cluster.cluster_id,
        "members": [[oid, p.x, p.y] for oid, p in cluster.members.items()],
    }


def decode_cluster(data: Dict[str, Any]) -> SnapshotCluster:
    """Rebuild a snapshot cluster from its JSON form."""
    return SnapshotCluster(
        timestamp=float(data["t"]),
        members={int(oid): Point(float(x), float(y)) for oid, x, y in data["members"]},
        cluster_id=int(data["id"]),
    )


def encode_crowd(crowd: Crowd) -> List[Dict[str, Any]]:
    """JSON form of a crowd: its cluster sequence."""
    return [encode_cluster(cluster) for cluster in crowd.clusters]


def decode_crowd(data: List[Dict[str, Any]]) -> Crowd:
    """Rebuild a crowd from its JSON form."""
    return Crowd(tuple(decode_cluster(cluster) for cluster in data))


def encode_gathering(gathering: Gathering) -> Dict[str, Any]:
    """JSON form of a gathering: crowd plus sorted participator ids."""
    return {
        "crowd": encode_crowd(gathering.crowd),
        "participators": sorted(gathering.participator_ids),
    }


def decode_gathering(data: Dict[str, Any]) -> Gathering:
    """Rebuild a gathering from its JSON form."""
    return Gathering(
        crowd=decode_crowd(data["crowd"]),
        participator_ids=frozenset(int(oid) for oid in data["participators"]),
    )


def crowd_key_from_json(encoded_key: List[List[Any]]) -> Tuple[Tuple[float, int], ...]:
    """Hashable crowd key from its JSON ``[[t, cluster_id], ...]`` form."""
    return tuple((float(t), int(cid)) for t, cid in encoded_key)


def _digest(payload: Any) -> str:
    """Stable hex digest of a JSON-serialisable identity payload."""
    canonical = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def _crowd_content(crowd: Crowd) -> List[Any]:
    """Canonical identity payload of a crowd: full cluster content, sorted.

    Cluster ids alone are not globally unique — DBSCAN numbers each
    snapshot's clusters 0, 1, 2, ... — so two *different* datasets mined
    into one store would collide on ``(t, cluster_id)`` sequences.  The
    fingerprint therefore covers the value-complete member maps (object
    ids and positions, sorted by object id so insertion order is
    irrelevant).
    """
    return [
        [
            cluster.timestamp,
            cluster.cluster_id,
            [[oid, p.x, p.y] for oid, p in sorted(cluster.members.items())],
        ]
        for cluster in crowd.clusters
    ]


def crowd_fingerprint(crowd: Crowd) -> str:
    """Content fingerprint of a crowd (its value-complete cluster sequence).

    Two crowds over the same cluster content hash identically regardless of
    which run or stream window produced them — this is what lets
    :class:`~repro.store.PatternStore` deduplicate repeated runs and
    streaming evictions landing in one database — while crowds from
    different inputs never collide.
    """
    return _digest(_crowd_content(crowd))


def gathering_fingerprint(gathering: Gathering) -> str:
    """Content fingerprint of a gathering (cluster content + participators)."""
    return _digest(
        {
            "crowd": _crowd_content(gathering.crowd),
            "par": sorted(gathering.participator_ids),
        }
    )
