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

The store's fingerprints and payloads are joined from per-cluster
fragments (:func:`cluster_fragments`), so a write encodes each cluster's
members once however many patterns share the cluster; the joined strings
are byte-identical to ``json.dumps(encode_crowd(...))`` and
``json.dumps(encode_gathering(...))``.
"""

from __future__ import annotations

import hashlib
import json
import operator
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from ..clustering.snapshot import SnapshotCluster
from ..engine.frame import FrameBackedCluster
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
    "ClusterFragments",
    "PatternEncoding",
    "cluster_fragments",
    "crowd_encoding",
    "gathering_encoding",
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


class ClusterFragments(NamedTuple):
    """The two JSON encodings of one snapshot cluster.

    ``canonical`` is the cluster's entry in a crowd's identity content,
    ``[t,id,[[oid,x,y],...]]`` in compact form with members ascending by
    object id; ``payload`` is ``json.dumps(encode_cluster(cluster))``.
    """

    canonical: str
    payload: str


class PatternEncoding(NamedTuple):
    """A crowd's or gathering's content fingerprint and stored JSON payload."""

    fingerprint: str
    payload: str


#: Maps a cluster to its fragments; the store passes a per-write memo.
FragmentSource = Callable[[SnapshotCluster], ClusterFragments]

_COMPACT = (",", ":")


def cluster_fragments(cluster: SnapshotCluster) -> ClusterFragments:
    """Encode a cluster's member list once and derive both of its JSON forms.

    A :class:`~repro.engine.frame.FrameBackedCluster` is read straight from
    its frame columns, so its ``{oid: Point}`` member map is never built.
    The compact member list is also the payload's, once every separator
    ``,`` becomes ``, `` (the only commas in a JSON array of numbers are
    its separators); it is re-encoded in object-id order only when the
    members are not already ascending.
    """
    if isinstance(cluster, FrameBackedCluster):
        frame, index = cluster.segment()
        start, end = frame.segment(index)
        ids = frame.object_ids[start:end].tolist()
        coords = frame.coords[start:end]
        rows = list(zip(ids, coords[:, 0].tolist(), coords[:, 1].tolist()))
    else:
        ids = list(cluster.members)
        rows = [(oid, p.x, p.y) for oid, p in cluster.members.items()]
    members = json.dumps(rows, separators=_COMPACT)
    if all(map(operator.lt, ids, ids[1:])):
        ordered = members
    else:
        ordered = json.dumps(sorted(rows, key=operator.itemgetter(0)), separators=_COMPACT)
    t = json.dumps(cluster.timestamp)
    cid = json.dumps(cluster.cluster_id)
    return ClusterFragments(
        canonical=f"[{t},{cid},{ordered}]",
        payload=f'{{"t": {t}, "id": {cid}, "members": {members.replace(",", ", ")}}}',
    )


def _digest(canonical: str) -> str:
    """Stable hex digest of a canonical identity encoding."""
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def _crowd_json(crowd: Crowd, fragments: FragmentSource) -> Tuple[str, str]:
    """A crowd's canonical identity JSON and its payload JSON.

    Cluster ids alone are not globally unique — DBSCAN numbers each
    snapshot's clusters 0, 1, 2, ... — so two *different* datasets mined
    into one store would collide on ``(t, cluster_id)`` sequences.  The
    identity therefore covers the value-complete member maps (object ids
    and positions, sorted by object id so insertion order is irrelevant).
    """
    parts = [fragments(cluster) for cluster in crowd.clusters]
    canonical = ",".join(part.canonical for part in parts)
    payload = ", ".join(part.payload for part in parts)
    return f"[{canonical}]", f"[{payload}]"


def crowd_encoding(
    crowd: Crowd, fragments: FragmentSource = cluster_fragments
) -> PatternEncoding:
    """Fingerprint and payload of a crowd, joined from its cluster fragments.

    The payload is ``json.dumps(encode_crowd(crowd))``.
    """
    canonical, payload = _crowd_json(crowd, fragments)
    return PatternEncoding(_digest(canonical), payload)


def gathering_encoding(
    gathering: Gathering, fragments: FragmentSource = cluster_fragments
) -> PatternEncoding:
    """Fingerprint and payload of a gathering, joined from its cluster fragments.

    The payload is ``json.dumps(encode_gathering(gathering))``.
    """
    canonical, payload = _crowd_json(gathering.crowd, fragments)
    participators = sorted(gathering.participator_ids)
    par = json.dumps(participators, separators=_COMPACT)
    return PatternEncoding(
        _digest(f'{{"crowd":{canonical},"par":{par}}}'),
        f'{{"crowd": {payload}, "participators": {json.dumps(participators)}}}',
    )


def crowd_fingerprint(crowd: Crowd) -> str:
    """Content fingerprint of a crowd (its value-complete cluster sequence).

    Two crowds over the same cluster content hash identically regardless of
    which run or stream window produced them — this is what lets
    :class:`~repro.store.PatternStore` deduplicate repeated runs and
    streaming evictions landing in one database — while crowds from
    different inputs never collide.
    """
    return crowd_encoding(crowd).fingerprint


def gathering_fingerprint(gathering: Gathering) -> str:
    """Content fingerprint of a gathering (cluster content + participators)."""
    return gathering_encoding(gathering).fingerprint
