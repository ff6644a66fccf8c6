"""Plain-text import/export for trajectory databases.

Two interchangeable formats are supported:

* **CSV** — one sample per row, ``object_id,t,x,y`` with a header line.  This
  mirrors how the public T-Drive taxi logs are usually distributed (one file
  of timestamped GPS fixes per taxi).
* **JSONL** — one JSON object per line with keys ``object_id`` and
  ``samples`` (a list of ``[t, x, y]`` triples), convenient when trajectories
  should stay grouped per object.

Both loaders run every record through the data-quality firewall
(:mod:`repro.quality`): records are validated (schema, finiteness, bounds,
duplicate/non-monotone timestamps, teleport speed gate) under the configured
policy and every load is fully accounted in an
:class:`~repro.quality.report.IngestReport`.  The ``load_*`` functions keep
their historical database-only signature; the ``load_*_report`` variants
return ``(database, report)``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import replace
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from ..quality import IngestReport, QualityConfig, RawRecord, run_pipeline
from ..quality.columns import NO_ERROR, RecordColumns, object_id_column
from ..quality.rules import PARSE, REASONS, SCHEMA
from .trajectory import TrajectoryDatabase

__all__ = [
    "save_csv",
    "load_csv",
    "load_csv_report",
    "save_jsonl",
    "load_jsonl",
    "load_jsonl_report",
]

PathLike = Union[str, Path]

#: Lines of CSV the reader parses at a time.  Large enough that the numpy
#: calls per block are cheap per row, small enough that a block's field
#: strings stay a few megabytes.
_BLOCK_LINES = 16384

#: The CSV columns the reader needs, in ``RecordColumns`` order.
_CSV_FIELDS = ("object_id", "t", "x", "y")

#: Strings per retry when a whole column fails to convert in one call.
_CHUNK = 64

_SCHEMA = REASONS.index(SCHEMA)
_PARSE = REASONS.index(PARSE)


def save_csv(database: TrajectoryDatabase, path: PathLike) -> None:
    """Write a database as ``object_id,t,x,y`` rows (with header)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["object_id", "t", "x", "y"])
        for trajectory in database:
            for t, point in trajectory:
                writer.writerow([trajectory.object_id, t, point.x, point.y])


def _strip_eol(line: str) -> str:
    """``line`` without its line terminator (``\r\n``, ``\n`` or ``\r``)."""
    if line.endswith("\r\n"):
        return line[:-2]
    if line.endswith(("\n", "\r")):
        return line[:-1]
    return line


def _convert(strings: List[str], integer: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One column of field strings as int64 / float64, exactly as ``int`` /
    ``float`` read them: ``(values, parsed)``, ``parsed`` ``None`` when every
    string converted.

    The whole column converts in one numpy call.  Only when that fails is
    it redone in chunks of :data:`_CHUNK`, and only a chunk that fails too
    element by element; an object id too large for int64 makes the column
    an object column.
    """
    dtype = np.int64 if integer else np.float64
    try:
        return np.array(strings, dtype=dtype), None
    except (ValueError, OverflowError):
        pass
    cast = int if integer else float
    values: list = []
    parsed: List[bool] = []
    for start in range(0, len(strings), _CHUNK):
        chunk = strings[start : start + _CHUNK]
        try:
            values.extend(np.array(chunk, dtype=dtype).tolist())
            parsed.extend([True] * len(chunk))
            continue
        except (ValueError, OverflowError):
            pass
        for text in chunk:
            try:
                values.append(cast(text))
                parsed.append(True)
            except ValueError:
                values.append(0)
                parsed.append(False)
    column = object_id_column(values) if integer else np.asarray(values, dtype=np.float64)
    return column, np.asarray(parsed, dtype=bool)


def _block_columns(
    wellformed: np.ndarray,
    fields: List[str],
    width: int,
    positions: Tuple[int, ...],
) -> Tuple[np.ndarray, ...]:
    """One block's records as ``(error, object_id, t, x, y)`` columns.

    ``fields`` holds the split fields of the well-formed records, ``width``
    per record; every other record is a schema failure.
    """
    count = len(wellformed)
    error = np.where(wellformed, NO_ERROR, _SCHEMA).astype(np.int8)
    good = np.flatnonzero(wellformed)
    columns = []
    failed = np.zeros(len(good), dtype=bool)
    for column, position in enumerate(positions):
        values, parsed = _convert(fields[position::width], integer=column == 0)
        if parsed is not None:
            failed |= ~parsed
        if column == 0:
            full = np.zeros(count, dtype=values.dtype)
        else:
            full = np.full(count, np.nan)
        full[good] = values
        columns.append(full)
    if failed.any():
        bad = good[failed]
        error[bad] = _PARSE
        for column in columns[1:]:
            column[bad] = np.nan
    return (error, *columns)


def _split_block(text: str, width: int):
    """Rows of a block with no quote and no lone CR, one comma count each.

    Returns ``(rows used, kept row numbers, raw rows, well-formed, fields)``;
    blank lines use a row number but are not records.
    """
    rows = text.split("\n")
    if text.endswith("\n"):
        rows.pop()
    commas = np.fromiter(map(str.count, rows, repeat(",")), dtype=np.int64, count=len(rows))
    wellformed = commas == width - 1
    numbers = np.arange(len(rows), dtype=np.int64)
    used = len(rows)
    blank = [p for p in np.flatnonzero(commas == 0).tolist() if not rows[p]]
    if blank:
        keep = np.ones(len(rows), dtype=bool)
        keep[blank] = False
        rows = list(compress(rows, keep))
        wellformed = wellformed[keep]
        numbers = numbers[keep]
    if wellformed.all():
        fields = ",".join(rows).split(",")
    else:
        fields = ",".join(compress(rows, wellformed)).split(",")
    return used, numbers, rows, wellformed, fields


def _exact_block(lines: List[str], more: Iterator[str], width: int):
    """Rows of a block parsed with :mod:`csv` semantics (quotes, lone CRs, NULs).

    A quoted field may run past the block's last line; the continuation
    lines are pulled from ``more``.  Each record's raw text is its original
    lines without the final terminator.  Returns the tuple of
    :func:`_split_block` plus the :class:`csv.Error` of a row the reader
    cannot read (``None`` if there is none); the rows before that row are
    returned, the rest of the block is not.
    """
    consumed: List[str] = []
    pulled = 0

    def feed() -> Iterator[str]:
        nonlocal pulled
        for line in chain(lines, more):
            consumed.append(line)
            pulled += 1
            yield line

    reader = csv.reader(feed())
    numbers: List[int] = []
    raws: List[str] = []
    wellformed: List[bool] = []
    fields: List[str] = []
    used = 0
    unreadable: Optional[csv.Error] = None
    while pulled < len(lines):
        try:
            row = next(reader)
        except csv.Error as error:
            unreadable = error
            break
        raw = _strip_eol("".join(consumed))
        consumed.clear()
        used += 1
        if not row:
            continue
        numbers.append(used - 1)
        raws.append(raw)
        wellformed.append(len(row) == width)
        if len(row) == width:
            fields.extend(row)
    return (
        used,
        np.asarray(numbers, dtype=np.int64),
        raws,
        np.asarray(wellformed, dtype=bool),
        fields,
        unreadable,
    )


def _csv_columns(path: Path, keep_raw: bool) -> Tuple[RecordColumns, Optional[csv.Error]]:
    """Parse stage of the CSV loader: the whole file as record columns.

    One record per CSV data row (blank rows use a row number but are not
    records).  The file is read :data:`_BLOCK_LINES` lines at a time; a
    block's rows are comma-counted once each, its well-formed rows are
    split in one call and converted a whole column at a time.  Blocks that
    contain a quote, a lone carriage return or a NUL are parsed row by row
    with :mod:`csv`, so quoting rules, reason codes and the rows the reader
    rejects (a NUL before Python 3.11) are those of :func:`csv.reader`
    throughout.  Parsing stops at a rejected row: the columns hold the rows
    before it, and its :class:`csv.Error` is returned alongside.
    """
    parts: List[Tuple[np.ndarray, ...]] = []
    raw: Optional[List[str]] = [] if keep_raw else None
    with path.open(newline="") as handle:
        header = next(csv.reader(handle), None)
        if header is None or not set(_CSV_FIELDS).issubset(header):
            raise ValueError(f"CSV file {path} must contain columns {sorted(_CSV_FIELDS)}")
        width = len(header)
        positions = tuple(header.index(name) for name in _CSV_FIELDS)
        first_index = 0
        unreadable: Optional[csv.Error] = None
        while unreadable is None:
            lines = list(islice(handle, _BLOCK_LINES))
            if not lines:
                break
            text = "".join(lines)
            if "\r" in text:
                text = text.replace("\r\n", "\n")
            if '"' in text or "\r" in text or "\0" in text:
                *block, unreadable = _exact_block(lines, handle, width)
                used, numbers, raws, wellformed, fields = block
            else:
                used, numbers, raws, wellformed, fields = _split_block(text, width)
            parts.append(
                (first_index + numbers, *_block_columns(wellformed, fields, width, positions))
            )
            if raw is not None:
                raw.extend(raws)
            first_index += used
    if not parts:
        parts.append((np.empty(0, np.int64), np.empty(0, np.int8), np.empty(0, np.int64),
                      *(np.empty(0) for _ in range(3))))
    index, error, object_id, t, x, y = (np.concatenate(column) for column in zip(*parts))
    columns = RecordColumns(
        index=index,
        error=error,
        object_id=object_id,
        t=t,
        x=x,
        y=y,
        raw=raw,
    )
    return columns, unreadable


def load_csv_report(
    path: PathLike, quality: Optional[QualityConfig] = None
) -> Tuple[TrajectoryDatabase, IngestReport]:
    """Read ``object_id,t,x,y`` rows through the firewall; database + report."""
    path = Path(path)
    quality = quality or QualityConfig()
    # Raw text is only ever read back for quarantine entries and strict errors.
    keep_raw = quality.quarantine_path is not None or quality.policy == "strict"
    columns, unreadable = _csv_columns(path, keep_raw)
    if unreadable is not None:
        # The load fails with the reader's error, unless a strict load would
        # already have stopped on a record before the rejected row.  Only the
        # per-record rules can decide that; the floor needs the whole file.
        if quality.policy == "strict":
            run_pipeline(columns, replace(quality, min_samples=1), source=str(path))
        raise unreadable
    result = run_pipeline(columns, quality, source=str(path))
    database = TrajectoryDatabase.from_columns(result.object_id, result.t, result.x, result.y)
    return database, result.report


def load_csv(path: PathLike, quality: Optional[QualityConfig] = None) -> TrajectoryDatabase:
    """Read a database from ``object_id,t,x,y`` rows (report discarded)."""
    return load_csv_report(path, quality)[0]


def save_jsonl(database: TrajectoryDatabase, path: PathLike) -> None:
    """Write one JSON document per trajectory."""
    path = Path(path)
    with path.open("w") as handle:
        for trajectory in database:
            record = {
                "object_id": trajectory.object_id,
                "samples": [[t, p.x, p.y] for t, p in trajectory],
            }
            handle.write(json.dumps(record) + "\n")


def _jsonl_records(path: Path) -> Iterator[RawRecord]:
    """Parse-stage reader: one :class:`RawRecord` per sample triple.

    A line that cannot be parsed at all (bad JSON, wrong shape, bad object
    id) counts as **one** record with a ``schema``/``parse`` reason — its
    sample count is unknowable, so the line itself is the accounting unit.
    """
    index = 0
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except json.JSONDecodeError:
                yield RawRecord(index=index, raw=line, error=PARSE)
                index += 1
                continue
            if (
                not isinstance(document, dict)
                or "object_id" not in document
                or not isinstance(document.get("samples"), list)
            ):
                yield RawRecord(index=index, raw=line, error=SCHEMA)
                index += 1
                continue
            try:
                object_id = int(document["object_id"])
            except (TypeError, ValueError):
                yield RawRecord(index=index, raw=line, error=PARSE)
                index += 1
                continue
            for sample in document["samples"]:
                raw = json.dumps({"object_id": object_id, "sample": sample})
                if not isinstance(sample, (list, tuple)) or len(sample) != 3:
                    yield RawRecord(index=index, raw=raw, error=SCHEMA)
                    index += 1
                    continue
                try:
                    t, x, y = (float(value) for value in sample)
                except (TypeError, ValueError):
                    yield RawRecord(index=index, raw=raw, error=PARSE)
                    index += 1
                    continue
                yield RawRecord(index=index, raw=raw, object_id=object_id, t=t, x=x, y=y)
                index += 1


def load_jsonl_report(
    path: PathLike, quality: Optional[QualityConfig] = None
) -> Tuple[TrajectoryDatabase, IngestReport]:
    """Read a :func:`save_jsonl` file through the firewall; database + report."""
    path = Path(path)
    result = run_pipeline(_jsonl_records(path), quality, source=str(path))
    database = TrajectoryDatabase.from_columns(result.object_id, result.t, result.x, result.y)
    return database, result.report


def load_jsonl(path: PathLike, quality: Optional[QualityConfig] = None) -> TrajectoryDatabase:
    """Read a database written by :func:`save_jsonl` (report discarded)."""
    return load_jsonl_report(path, quality)[0]
