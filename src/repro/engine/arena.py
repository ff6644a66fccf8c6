"""Disk-backed position arenas and object-space sharding helpers.

The columnar :class:`~repro.trajectory.trajectory.PositionArena` of PR 5
made phase 1 fast but kept the whole ``(t, oid, x, y)`` table in RAM —
at megacity scale (100k+ objects, millions of interpolated rows) that is
the last thing standing between the miner and "as large as the disk".
This module supplies the two scale axes:

* **Spilling** — :class:`ArenaSpool` accumulates arena rows on disk one
  snapshot block at a time (plain append-only binary columns, no full
  array ever materialised) and finalises them as read-only ``np.memmap``
  columns.  ``np.memmap`` is an ``ndarray`` subclass, so memmap-backed
  columns flow through frame slicing and the proximity-graph build
  unchanged: contiguous slices stay zero-copy views of the file and the
  OS pages them in and out on demand.  The batched phase-1 executor
  (:func:`repro.engine.phase1.build_cluster_database_batched`) spools its
  clustered rows here when given a ``spill_dir``.
* **Object-space sharding** — :func:`partition_object_ids` splits the
  object-id axis into contiguous groups and :func:`build_arena_block`
  interpolates each group's sub-database separately, merging the partial
  arenas back into one ``(timestamp, object id)``-sorted arena with
  :func:`merge_arenas`.  Interpolation is per-object independent and
  the merge restores the exact row order of an unsharded extraction, so
  DBSCAN (which is *not* separable by object subsets) always sees the
  complete snapshot: results are bit-identical by construction, while
  peak interpolation memory drops to one object group at a time.

Every spill run writes into a fresh ``arena-*`` subdirectory of the
caller's ``spill_dir`` (so concurrent builds never collide); the files
live until the directory is removed, which keeps the returned memmap
views valid for the whole mining run.

Spills are crash-safe: every finalised spool carries a ``manifest.json``
with per-column CRC32 checksums, written atomically *after* the column
files are complete, so a directory with a manifest is by construction a
complete spill and a directory without one is garbage from an interrupted
run.  :func:`verify_arena_dir` re-checksums the columns against the
manifest (catching torn or corrupted files before they are mined),
:class:`ArenaSpool` is a context manager that removes partial spills when
the build raises mid-way, and :func:`reap_orphaned_spills` sweeps
manifest-less ``arena-*`` directories left behind by crashed processes.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import zlib
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..resilience.faults import maybe_fault
from ..trajectory.trajectory import PositionArena, TrajectoryDatabase

__all__ = [
    "DEFAULT_SPILL_BLOCK_ROWS",
    "SPILL_MANIFEST",
    "ArenaSpool",
    "SpillCorruptionError",
    "partition_object_ids",
    "merge_arenas",
    "build_arena_block",
    "effective_snapshot_block",
    "reap_orphaned_spills",
    "verify_arena_dir",
]

#: Row budget per interpolated snapshot block when spilling: the block
#: arena (3 int64 + 2 float64 columns) plus the DBSCAN pair workspace
#: stays around a few hundred MB at this size regardless of fleet size.
DEFAULT_SPILL_BLOCK_ROWS = 1_500_000

#: Manifest file marking a spill directory as complete and checksummed.
SPILL_MANIFEST = "manifest.json"

#: Format tag / version written into every spill manifest.
SPILL_FORMAT = "repro-arena-spill"
SPILL_VERSION = 1


class SpillCorruptionError(RuntimeError):
    """A spill directory failed integrity verification (torn or corrupted)."""


def _file_crc32(path: str, chunk_size: int = 1 << 20) -> int:
    """CRC32 of a file computed in bounded-memory chunks."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def _corrupt_file(path: str) -> None:
    """Flip a few bytes mid-file (the ``spill.corrupt`` fault injection)."""
    size = os.path.getsize(path)
    if size == 0:
        return
    offset = size // 2
    with open(path, "r+b") as handle:
        handle.seek(offset)
        chunk = handle.read(min(8, size - offset)) or b"\x00"
        handle.seek(offset)
        handle.write(bytes(byte ^ 0xFF for byte in chunk))


def _column_array(path: str, dtype: np.dtype, shape: Tuple[int, ...]) -> np.ndarray:
    """Memmap one finalised column file (empty files become empty arrays)."""
    if shape[0] == 0:
        # np.memmap refuses zero-length files; an empty in-RAM array is an
        # exact stand-in (nothing to page either way).
        return np.empty(shape, dtype=dtype)
    return np.memmap(path, dtype=dtype, mode="r", shape=shape)


class ArenaSpool:
    """Append-only on-disk accumulator for columnar arena rows.

    Rows arrive in snapshot-block batches via :meth:`append` and are
    written straight through to per-column binary files — the spool never
    holds more than the batch being written.  :meth:`finalize` closes the
    files, writes an atomic checksum manifest, and returns read-only
    ``np.memmap`` views over the full columns.

    The spool is also a context manager guarding against mid-build
    failures: leaving the ``with`` block before :meth:`finalize` (most
    importantly when interpolation or DBSCAN raises) removes the partial
    ``arena-*`` directory, while a finalised spill is always kept.

    Parameters
    ----------
    spill_dir:
        Parent directory for the spill files; created if missing.  Each
        spool makes its own unique ``arena-*`` subdirectory inside it.
    with_labels:
        Also spool a per-row int64 ``labels`` column (used by the batched
        builder to persist the label-sorted clustered rows).
    """

    def __init__(self, spill_dir: str, with_labels: bool = False) -> None:
        os.makedirs(spill_dir, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="arena-", dir=spill_dir)
        self.with_labels = with_labels
        self._rows = 0
        self._finalized = False
        names = ["ts_index", "object_ids", "coords"]
        if with_labels:
            names.append("labels")
        self._paths: Dict[str, str] = {
            name: os.path.join(self.directory, f"{name}.bin") for name in names
        }
        self._files: Dict[str, IO[bytes]] = {
            name: open(path, "wb") for name, path in self._paths.items()
        }
        self._crcs: Dict[str, int] = {name: 0 for name in names}
        self._bytes: Dict[str, int] = {name: 0 for name in names}

    @property
    def rows(self) -> int:
        """Total rows appended so far."""
        return self._rows

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` has completed (spill is durable)."""
        return self._finalized

    def __enter__(self) -> "ArenaSpool":
        """Start a guarded build: the spill survives only if finalised."""
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        """Remove the partial spill unless :meth:`finalize` completed."""
        if not self._finalized:
            self.abort()

    def close(self) -> None:
        """Close any open column file handles (idempotent)."""
        for handle in self._files.values():
            if not handle.closed:
                handle.close()

    def abort(self) -> None:
        """Discard the spill: close handles and remove the directory."""
        self.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def append(
        self,
        ts_index: np.ndarray,
        object_ids: np.ndarray,
        coords: np.ndarray,
        labels: Optional[np.ndarray] = None,
    ) -> None:
        """Write one batch of rows to the column files.

        All columns must agree on the row count; ``labels`` is required
        exactly when the spool was created ``with_labels=True``.
        """
        n = len(ts_index)
        if len(object_ids) != n or len(coords) != n:
            raise ValueError("arena columns disagree on row count")
        if self.with_labels:
            if labels is None or len(labels) != n:
                raise ValueError("labels column required and must match row count")
        elif labels is not None:
            raise ValueError("spool was created without a labels column")
        if n == 0:
            return
        batch = {
            "ts_index": np.ascontiguousarray(ts_index, dtype=np.int64),
            "object_ids": np.ascontiguousarray(object_ids, dtype=np.int64),
            "coords": np.ascontiguousarray(coords, dtype=np.float64),
        }
        if self.with_labels:
            batch["labels"] = np.ascontiguousarray(labels, dtype=np.int64)
        for name, array in batch.items():
            data = array.tobytes()
            self._files[name].write(data)
            self._crcs[name] = zlib.crc32(data, self._crcs[name])
            self._bytes[name] += len(data)
        self._rows += n

    def _write_manifest(self) -> None:
        """Atomically record the column checksums (write-then-rename)."""
        document = {
            "format": SPILL_FORMAT,
            "version": SPILL_VERSION,
            "rows": self._rows,
            "with_labels": self.with_labels,
            "columns": {
                name: {
                    "file": os.path.basename(path),
                    "bytes": self._bytes[name],
                    "crc32": self._crcs[name],
                }
                for name, path in self._paths.items()
            },
        }
        target = os.path.join(self.directory, SPILL_MANIFEST)
        staging = target + ".tmp"
        with open(staging, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
        os.replace(staging, target)

    def finalize(self) -> Tuple[np.ndarray, ...]:
        """Close the spill files, write the manifest, memmap read-only.

        Returns ``(ts_index, object_ids, coords)`` — plus ``labels`` when
        the spool carries them — as ``np.memmap`` columns (plain empty
        arrays when nothing was appended).  The manifest lands atomically
        before the memmaps are opened, so a finalised directory always
        passes :func:`verify_arena_dir` — unless the ``spill.corrupt``
        fault (or real disk trouble) damages a column, which that check
        exists to catch.
        """
        self.close()
        if maybe_fault("spill.corrupt") is not None:
            self._corrupt_one_column()
        self._write_manifest()
        self._finalized = True
        columns: List[np.ndarray] = [
            _column_array(self._paths["ts_index"], np.dtype(np.int64), (self._rows,)),
            _column_array(self._paths["object_ids"], np.dtype(np.int64), (self._rows,)),
            _column_array(self._paths["coords"], np.dtype(np.float64), (self._rows, 2)),
        ]
        if self.with_labels:
            columns.append(
                _column_array(self._paths["labels"], np.dtype(np.int64), (self._rows,))
            )
        return tuple(columns)

    def _corrupt_one_column(self) -> None:
        """Damage the first non-empty column (the ``spill.corrupt`` fault)."""
        for name in ("coords", "object_ids", "ts_index", "labels"):
            path = self._paths.get(name)
            if path is not None and self._bytes.get(name, 0) > 0:
                _corrupt_file(path)
                return


def verify_arena_dir(directory: str) -> Dict[str, Any]:
    """Check a finalised spill directory against its checksum manifest.

    Reads ``manifest.json``, confirms the format/version tag, and
    re-checksums every column file in bounded-memory chunks against the
    recorded size and CRC32.  Returns the manifest document on success;
    raises :class:`SpillCorruptionError` describing the first problem found
    (missing manifest, missing column, size mismatch, checksum mismatch) so
    callers can rebuild the spill instead of mining garbage.
    """
    manifest_path = os.path.join(directory, SPILL_MANIFEST)
    if not os.path.exists(manifest_path):
        raise SpillCorruptionError(f"spill {directory!r} has no {SPILL_MANIFEST}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as error:
        raise SpillCorruptionError(
            f"spill manifest {manifest_path!r} unreadable: {error}"
        ) from error
    if document.get("format") != SPILL_FORMAT:
        raise SpillCorruptionError(
            f"spill {directory!r} has unknown format {document.get('format')!r}"
        )
    if document.get("version") != SPILL_VERSION:
        raise SpillCorruptionError(
            f"spill {directory!r} has unsupported version {document.get('version')!r}"
        )
    for name, entry in document.get("columns", {}).items():
        path = os.path.join(directory, entry.get("file", f"{name}.bin"))
        if not os.path.exists(path):
            raise SpillCorruptionError(f"spill column {path!r} is missing")
        size = os.path.getsize(path)
        if size != int(entry["bytes"]):
            raise SpillCorruptionError(
                f"spill column {path!r} is {size} bytes, manifest says {entry['bytes']}"
            )
        crc = _file_crc32(path)
        if crc != int(entry["crc32"]):
            raise SpillCorruptionError(
                f"spill column {path!r} fails its checksum "
                f"(crc32 {crc:#010x} != manifest {int(entry['crc32']):#010x})"
            )
    return document


def reap_orphaned_spills(
    spill_dir: str, min_age_seconds: float = 3600.0
) -> List[str]:
    """Remove ``arena-*`` directories abandoned by crashed runs.

    A spill without a manifest was interrupted before finalize and can
    never be used; one older than ``min_age_seconds`` (by directory mtime)
    cannot belong to a still-running build, so it is deleted.  Finalised
    spills (manifest present) and fresh partials are left alone.  Returns
    the removed paths; a missing ``spill_dir`` is a no-op.
    """
    removed: List[str] = []
    try:
        entries = sorted(os.listdir(spill_dir))
    except FileNotFoundError:
        return removed
    now = time.time()
    for entry in entries:
        path = os.path.join(spill_dir, entry)
        if not entry.startswith("arena-") or not os.path.isdir(path):
            continue
        if os.path.exists(os.path.join(path, SPILL_MANIFEST)):
            continue
        try:
            age = now - os.path.getmtime(path)
        except OSError:
            continue
        if age >= min_age_seconds:
            shutil.rmtree(path, ignore_errors=True)
            removed.append(path)
    return removed


def partition_object_ids(object_ids: Sequence[int], shards: int) -> List[List[int]]:
    """Split object ids into ``shards`` contiguous near-equal groups.

    The first ``len(object_ids) % shards`` groups get one extra id and
    empty groups (more shards than objects) are dropped.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    ids = sorted(object_ids)
    base, extra = divmod(len(ids), shards)
    groups: List[List[int]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        if size:
            groups.append(ids[start : start + size])
        start += size
    return groups


def merge_arenas(
    timestamps: Sequence[float], arenas: Sequence[PositionArena]
) -> PositionArena:
    """Merge per-object-shard partial arenas over one shared timestamp list.

    Each partial arena covers a disjoint object-id subset interpolated at
    the *same* ``timestamps``; the merge re-sorts the concatenated rows by
    ``(timestamp, object id)``, restoring exactly the row order an
    unsharded ``positions_matrix`` extraction produces (the pair is unique
    per row, so the order is total).  Coordinates are untouched —
    interpolation never looks at other objects — so the merged arena is
    bit-identical to the unsharded one.
    """
    ts_tuple = tuple(float(t) for t in timestamps)
    m = len(ts_tuple)
    if not arenas:
        return PositionArena(
            timestamps=ts_tuple,
            ts_index=np.empty(0, dtype=np.int64),
            object_ids=np.empty(0, dtype=np.int64),
            coords=np.empty((0, 2), dtype=float),
            offsets=np.zeros(m + 1, dtype=np.int64),
        )
    ts_index = np.concatenate([arena.ts_index for arena in arenas])
    object_ids = np.concatenate([arena.object_ids for arena in arenas])
    coords = np.concatenate([arena.coords for arena in arenas])
    order = np.lexsort((object_ids, ts_index))
    ts_index = ts_index[order]
    object_ids = object_ids[order]
    coords = coords[order]
    offsets = np.searchsorted(
        ts_index, np.arange(m + 1, dtype=np.int64), side="left"
    ).astype(np.int64)
    return PositionArena(
        timestamps=ts_tuple,
        ts_index=ts_index,
        object_ids=object_ids,
        coords=coords,
        offsets=offsets,
    )


def build_arena_block(
    database: TrajectoryDatabase,
    timestamps: Sequence[float],
    max_gap: Optional[float] = None,
    object_shards: int = 1,
) -> PositionArena:
    """Interpolate one snapshot block, optionally sharded along the object axis.

    With ``object_shards == 1`` this is exactly
    :meth:`~repro.trajectory.trajectory.TrajectoryDatabase.positions_matrix`.
    With more shards the database is partitioned into contiguous object-id
    groups, each group interpolated on its own (bounding the extraction's
    ``objects × timestamps`` working set to one group) and the partial
    arenas merged back into the unsharded row order — see
    :func:`merge_arenas` for why the result is bit-identical.
    """
    if object_shards < 1:
        raise ValueError("object_shards must be at least 1")
    if object_shards == 1:
        return database.positions_matrix(timestamps, max_gap=max_gap)
    groups = partition_object_ids(database.object_ids(), object_shards)
    if len(groups) <= 1:
        return database.positions_matrix(timestamps, max_gap=max_gap)
    partials = [
        database.subset_objects(group).positions_matrix(timestamps, max_gap=max_gap)
        for group in groups
    ]
    return merge_arenas(timestamps, partials)


def effective_snapshot_block(
    database: TrajectoryDatabase,
    snapshot_block: Optional[int],
    row_budget: int = DEFAULT_SPILL_BLOCK_ROWS,
) -> int:
    """Snapshots per block such that one block's arena fits the row budget.

    A block interpolates up to ``len(database)`` rows per snapshot, so the
    block length is clamped to ``row_budget // len(database)`` (at least 1
    snapshot).  ``snapshot_block`` caps the result when given; pass
    ``None`` to size purely from the budget.
    """
    if snapshot_block is not None and snapshot_block < 1:
        raise ValueError("snapshot_block must be at least 1")
    per_snapshot = max(len(database), 1)
    budgeted = max(1, row_budget // per_snapshot)
    if snapshot_block is None:
        return budgeted
    return min(snapshot_block, budgeted)
