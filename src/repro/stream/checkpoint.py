"""Versioned on-disk snapshots of a :class:`StreamingGatheringService`.

The checkpoint is a single JSON document (format tag
``repro-stream-checkpoint``, version 1) capturing everything the service
needs to resume exactly where it stopped:

* the mining parameters, execution config and service knobs;
* the stream position — grid origin, open window index, carried per-object
  fixes, the raw pending buffer and any held late points;
* the live incremental miner state — the frontier candidate set of
  Algorithm 1 (Lemma 4), the still-live closed crowds, their gatherings and
  the last folded timestamp;
* the frozen (evicted) results accumulated so far, and the stats counters.

Snapshot clusters are stored value-complete through the shared pattern
codecs (:mod:`repro.core.codec` — also used by the persistent
:class:`~repro.store.PatternStore`), so a restored service rebuilds
:class:`~repro.clustering.snapshot.SnapshotCluster` /
:class:`~repro.core.crowd.Crowd` / :class:`~repro.core.gathering.Gathering`
objects that compare equal to the originals.  All floats round-trip exactly
through JSON (shortest-repr float encoding), which is what makes a restored
run bit-identical to an uninterrupted one.

Checkpoints are also integrity-protected and rotated: every document
carries a SHA-256 digest over its own canonical JSON, :func:`save_checkpoint`
shifts the previous checkpoint to ``<path>.1`` (``.2``, … up to ``keep``)
before atomically landing the new one, and :func:`load_checkpoint` verifies
the digest and schema — falling back to the newest rotated copy that still
verifies when the primary is torn or corrupted, so a crash mid-write (or a
bad disk) costs at most one checkpoint interval, never the whole run.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import List, Union

from ..clustering.snapshot import ClusterDatabase
from ..core.codec import (
    crowd_key_from_json as _crowd_key,
    decode_cluster as _decode_cluster,
    decode_crowd as _decode_crowd,
    decode_gathering as _decode_gathering,
    encode_cluster as _encode_cluster,
    encode_crowd as _encode_crowd,
    encode_gathering as _encode_gathering,
)
from ..core.config import GatheringParameters
from ..engine.registry import ExecutionConfig
from ..resilience.faults import maybe_fault

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointCorruptionError",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "repro-stream-checkpoint"
CHECKPOINT_VERSION = 1

#: Top-level sections every valid checkpoint document must carry.
_REQUIRED_SECTIONS = ("params", "execution", "service", "stream", "miner", "frozen", "stats")

PathLike = Union[str, Path]


class CheckpointCorruptionError(ValueError):
    """No candidate checkpoint file passed integrity verification.

    Subclasses :class:`ValueError` so callers that predate rotation (and
    caught ``ValueError`` from a bad file) keep working unchanged.
    """


def _document_digest(document: dict) -> str:
    """SHA-256 over the document's canonical JSON, ``integrity`` excluded."""
    payload = {key: value for key, value in document.items() if key != "integrity"}
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _rotated_path(path: Path, index: int) -> Path:
    """The ``index``-th rotated sibling of a checkpoint path (``<name>.N``)."""
    return path.with_name(f"{path.name}.{index}")


def _rotate_checkpoints(path: Path, keep: int) -> None:
    """Shift ``path`` → ``path.1`` → … → ``path.keep`` before a new write."""
    if keep < 1 or not path.exists():
        return
    oldest = _rotated_path(path, keep)
    if oldest.exists():
        oldest.unlink()
    for index in range(keep - 1, 0, -1):
        source = _rotated_path(path, index)
        if source.exists():
            os.replace(source, _rotated_path(path, index + 1))
    os.replace(path, _rotated_path(path, 1))


# -- top-level save / load ----------------------------------------------------------
def save_checkpoint(service, path: PathLike, keep: int = 1) -> None:
    """Write ``service``'s full state to ``path`` as versioned, digested JSON.

    ``keep`` previous checkpoints are rotated to ``<path>.1`` …
    ``<path>.keep`` before the new document lands (``keep=0`` disables
    rotation and restores the old overwrite behaviour); the write itself is
    staged and renamed, so a crash at any instant leaves either the old or
    the new checkpoint fully intact on the primary path.
    """
    miner = service._miner
    crowd_miner = miner._crowd_miner
    document = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "params": service.params.as_dict(),
        "execution": {
            "backend": service.config.backend,
            "workers": service.config.workers,
        },
        "service": {
            "window": service.window,
            "range_search": service.range_search,
            "slack": service.slack,
            "late_policy": service.late_policy,
            "eviction": service.eviction,
            "quality": None
            if service.quality is None
            else {
                "policy": service.quality.policy,
                "max_speed": service.quality.max_speed,
                "min_samples": service.quality.min_samples,
                "bounds": None
                if service.quality.bounds is None
                else list(service.quality.bounds),
                "metric": service.quality.metric,
            },
        },
        "stream": {
            "origin": service._origin,
            "open_window": service._open_window,
            "max_seen_t": service._max_seen_t,
            "finished": service._finished,
            "carry": [
                [oid, t, p.x, p.y] for oid, (t, p) in service._carry.items()
            ],
            "pending": [
                [oid, [[t, p.x, p.y] for t, p in samples.items()]]
                for oid, samples in service._pending.items()
            ],
            "held": [
                [hp.object_id, hp.t, hp.x, hp.y] for hp in service.held_points
            ],
            "last_valid": [
                [oid, t, x, y] for oid, (t, x, y) in service._last_valid.items()
            ],
        },
        "miner": {
            "last_timestamp": crowd_miner.last_timestamp,
            "closed_crowds": [_encode_crowd(c) for c in crowd_miner.closed_crowds],
            "open_candidates": [_encode_crowd(c) for c in crowd_miner.open_candidates],
            "gatherings_by_crowd": [
                {
                    "key": [[t, cid] for t, cid in key],
                    "gatherings": [_encode_gathering(g) for g in found],
                }
                for key, found in miner._gatherings_by_crowd.items()
            ],
            "cluster_db": [
                _encode_cluster(cluster) for cluster in miner.cluster_db
            ],
        },
        "frozen": {
            "crowds": [_encode_crowd(c) for c in service._frozen_crowds],
            "gatherings": [_encode_gathering(g) for g in service._frozen_gatherings],
        },
        "stats": service.stats.as_dict(),
    }
    document["integrity"] = {
        "algorithm": "sha256",
        "digest": _document_digest(document),
    }
    # Write-then-rename: a crash mid-write (the very scenario checkpoints
    # exist for) must never destroy the previous good checkpoint.
    path = Path(path)
    staging = path.with_name(path.name + ".tmp")
    staging.write_text(json.dumps(document))
    if maybe_fault("checkpoint.torn") is not None:
        # Chaos harness: tear the staged file mid-document before it lands,
        # as a crash between write() and fsync-on-rename would.
        size = staging.stat().st_size
        with open(staging, "r+b") as handle:
            handle.truncate(max(1, size // 2))
    _rotate_checkpoints(path, keep)
    os.replace(staging, path)


def _validate_document(path: Path, document: dict) -> None:
    """Raise on any format/version/schema/digest problem in ``document``."""
    if document.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if document.get("version") != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {document.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    missing = [key for key in _REQUIRED_SECTIONS if key not in document]
    if missing:
        raise CheckpointCorruptionError(
            f"{path} is missing checkpoint sections: {', '.join(missing)}"
        )
    integrity = document.get("integrity")
    if integrity is not None:
        # Older checkpoints carry no digest; they still load (schema above
        # is the only guard we have for them).
        digest = _document_digest(document)
        if integrity.get("digest") != digest:
            raise CheckpointCorruptionError(
                f"{path} fails its integrity digest "
                f"(sha256 {digest} != recorded {integrity.get('digest')})"
            )


def load_checkpoint(path: PathLike, fallback: bool = True):
    """Rebuild a :class:`StreamingGatheringService` from a checkpoint file.

    The document is schema- and digest-verified before anything is rebuilt.
    With ``fallback`` enabled (the default), a torn or corrupted primary
    falls back to the newest rotated sibling (``<path>.1``, ``<path>.2``, …)
    that still verifies; :class:`CheckpointCorruptionError` lists every
    candidate tried when none is usable.
    """
    path = Path(path)
    candidates: List[Path] = [path]
    if fallback:
        index = 1
        while True:
            rotated = _rotated_path(path, index)
            if not rotated.exists():
                break
            candidates.append(rotated)
            index += 1
    failures: List[str] = []
    for candidate in candidates:
        try:
            document = json.loads(candidate.read_text())
            _validate_document(candidate, document)
        except FileNotFoundError:
            if len(candidates) == 1:
                raise  # no rotation to fall back to; keep the plain error
            failures.append(f"{candidate}: missing")
            continue
        except (ValueError, OSError) as error:
            failures.append(f"{candidate}: {error}")
            continue
        return _service_from_document(document)
    raise CheckpointCorruptionError(
        "no usable checkpoint; every candidate failed verification: "
        + "; ".join(failures)
    )


def _service_from_document(document: dict):
    """Materialise a live service from a verified checkpoint document."""
    from ..quality import QualityConfig
    from .service import Fix, StreamingGatheringService, StreamPoint, StreamStats

    # Older checkpoints predate the quality firewall; they restore with it
    # disarmed, exactly how they were running when written.
    quality_state = document["service"].get("quality")
    quality = None
    if quality_state is not None:
        quality = QualityConfig(
            policy=quality_state["policy"],
            max_speed=quality_state["max_speed"],
            min_samples=quality_state["min_samples"],
            bounds=None
            if quality_state["bounds"] is None
            else tuple(quality_state["bounds"]),
            metric=quality_state["metric"],
        )

    # Older checkpoints also record the kernels' ``chunk_size``, which is no
    # longer configurable; it is ignored.
    service = StreamingGatheringService(
        params=GatheringParameters(**document["params"]),
        window=document["service"]["window"],
        range_search=document["service"]["range_search"],
        config=ExecutionConfig(
            backend=document["execution"]["backend"],
            workers=document["execution"]["workers"],
        ),
        slack=document["service"]["slack"],
        late_policy=document["service"]["late_policy"],
        eviction=document["service"]["eviction"],
        quality=quality,
    )

    stream = document["stream"]
    service._origin = stream["origin"]
    service._open_window = int(stream["open_window"])
    service._max_seen_t = stream["max_seen_t"]
    service._finished = bool(stream["finished"])
    service._carry = {
        int(oid): (float(t), Fix(float(x), float(y)))
        for oid, t, x, y in stream["carry"]
    }
    service._pending = {
        int(oid): {float(t): Fix(float(x), float(y)) for t, x, y in samples}
        for oid, samples in stream["pending"]
    }
    service._pending_count = sum(len(s) for s in service._pending.values())
    service.held_points = [
        StreamPoint(int(oid), float(t), float(x), float(y))
        for oid, t, x, y in stream["held"]
    ]
    service._last_valid = {
        int(oid): (float(t), float(x), float(y))
        for oid, t, x, y in stream.get("last_valid", [])
    }

    miner_state = document["miner"]
    crowd_miner = service._miner._crowd_miner
    crowd_miner.last_timestamp = miner_state["last_timestamp"]
    crowd_miner.closed_crowds = [
        _decode_crowd(c) for c in miner_state["closed_crowds"]
    ]
    crowd_miner.open_candidates = [
        _decode_crowd(c) for c in miner_state["open_candidates"]
    ]
    service._miner._gatherings_by_crowd = {
        _crowd_key(entry["key"]): [
            _decode_gathering(g) for g in entry["gatherings"]
        ]
        for entry in miner_state["gatherings_by_crowd"]
    }
    cluster_db = ClusterDatabase()
    for encoded in miner_state["cluster_db"]:
        cluster_db.add(_decode_cluster(encoded))
    service._miner._cluster_db = cluster_db

    frozen = document["frozen"]
    service._frozen_crowds = [_decode_crowd(c) for c in frozen["crowds"]]
    service._frozen_gatherings = [
        _decode_gathering(g) for g in frozen["gatherings"]
    ]
    service._frozen_keys = {crowd.keys() for crowd in service._frozen_crowds}

    # Older checkpoints also count ``backpressure_events``, which the replay
    # driver no longer records; it is dropped like ``chunk_size``.
    stats = dict(document["stats"])
    stats.pop("backpressure_events", None)
    service.stats = StreamStats(**stats)
    return service
