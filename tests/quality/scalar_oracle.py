"""The per-record ingest firewall: the parity oracle of the columnar one.

This is the firewall as first written — one :class:`RawRecord` at a time,
Python rules, one report bucket update per record.  Production runs the
columnar implementation in :mod:`repro.quality.pipeline`; this module is
kept only so the parity suite (``test_columnar_parity.py``) and the ingest
micro-benchmark can check that the columnar one gives the same report,
the same surviving records, the same quarantine file and the same strict
error on every input.

It follows the record-at-a-time reading of the rules exactly:

* the stateless checks run in reason order (parse-stage error, non-finite,
  out of bounds);
* under ``strict`` / ``lenient`` a fix is compared with the last *accepted*
  fix of its object (duplicate timestamp, non-monotone, teleport), and
  objects that end under-sampled are rejected whole;
* under ``repair`` duplicates are dropped keep-first, each object is
  sorted, and split into new objects at teleports;
* the ``ingest.garble`` fault site is probed once per record, in input
  order, until a strict load aborts.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.geometry.point import Point
from repro.quality import IngestError, IngestReport, QualityConfig, QuarantineWriter
from repro.quality.pipeline import GARBLE_SITE, CleanRecord
from repro.quality.rules import (
    DUPLICATE_TIMESTAMP,
    NON_FINITE,
    NON_MONOTONE,
    OUT_OF_BOUNDS,
    PARSE,
    SCHEMA,
    TELEPORT,
    TOO_FEW_SAMPLES,
    RawRecord,
    travel_distance,
)
from repro.resilience.faults import maybe_fault
from repro.trajectory.trajectory import TrajectoryDatabase


def csv_records(path: Path) -> Iterator[RawRecord]:
    """One :class:`RawRecord` per CSV data row, read with :func:`csv.reader`.

    ``raw`` is the row's original text without its final line terminator
    (a quoted field may span lines); blank rows use an index but are not
    records.
    """
    with Path(path).open(newline="") as handle:
        lines = list(io.StringIO(handle.read(), newline=""))
    reader = csv.reader(lines)
    header = next(reader, None)
    required = {"object_id", "t", "x", "y"}
    if header is None or not required.issubset(header):
        raise ValueError(f"CSV file {path} must contain columns {sorted(required)}")
    columns = {name: header.index(name) for name in required}
    consumed = reader.line_num
    for index, row in enumerate(reader):
        raw = "".join(lines[consumed : reader.line_num])
        consumed = reader.line_num
        for terminator in ("\r\n", "\n", "\r"):
            if raw.endswith(terminator):
                raw = raw[: -len(terminator)]
                break
        if not row:
            continue
        if len(row) != len(header):
            yield RawRecord(index=index, raw=raw, error=SCHEMA)
            continue
        try:
            yield RawRecord(
                index=index,
                raw=raw,
                object_id=int(row[columns["object_id"]]),
                t=float(row[columns["t"]]),
                x=float(row[columns["x"]]),
                y=float(row[columns["y"]]),
            )
        except ValueError:
            yield RawRecord(index=index, raw=raw, error=PARSE)


def database_from_records(records: List[CleanRecord]) -> TrajectoryDatabase:
    """Survivors into a database, one ``add_sample`` (and ``Point``) per record."""
    database = TrajectoryDatabase()
    for object_id, t, x, y in records:
        database.add_sample(object_id, t, Point(x, y))
    return database


@dataclass
class OracleResult:
    """Surviving records (accepted + repaired) plus the accounting report."""

    records: List[CleanRecord]
    report: IngestReport


def point_violation(
    record: RawRecord, bounds: Optional[Tuple[float, float, float, float]]
) -> Optional[str]:
    """The stateless reason code violated by ``record``, if any."""
    if record.error is not None:
        return record.error
    if not record.is_parsed():
        return SCHEMA
    if not (
        math.isfinite(record.t) and math.isfinite(record.x) and math.isfinite(record.y)
    ):
        return NON_FINITE
    if bounds is not None:
        min_x, min_y, max_x, max_y = bounds
        if not (min_x <= record.x <= max_x and min_y <= record.y <= max_y):
            return OUT_OF_BOUNDS
    return None


def garble_record(record: RawRecord) -> RawRecord:
    """NaN coordinates; parse-stage failures pass through unchanged."""
    if record.error is not None:
        return record
    return replace(record, x=float("nan"), y=float("nan"))


def oracle_pipeline(
    records: Iterable[RawRecord],
    config: Optional[QualityConfig] = None,
    source: str = "<records>",
) -> OracleResult:
    """The record-at-a-time firewall; same contract as ``run_pipeline``."""
    config = config or QualityConfig()
    report = IngestReport(source=source, policy=config.policy)
    quarantine = (
        QuarantineWriter(config.quarantine_path, source=source)
        if config.quarantine_path is not None
        else None
    )
    try:
        if config.policy == "repair":
            clean = _repair_pass(records, config, report, quarantine)
        else:
            clean = _filter_pass(records, config, report, quarantine)
    finally:
        if quarantine is not None:
            quarantine.close()
    report.check()
    return OracleResult(records=clean, report=report)


def _drop(
    report: IngestReport,
    quarantine: Optional[QuarantineWriter],
    record: RawRecord,
    reason: str,
    strict: bool,
) -> None:
    if strict:
        raise IngestError(reason, record)
    if quarantine is not None:
        quarantine.write(record, reason)
    report.count_dropped(record.object_id, reason, quarantined=quarantine is not None)


def _filter_pass(
    records: Iterable[RawRecord],
    config: QualityConfig,
    report: IngestReport,
    quarantine: Optional[QuarantineWriter],
) -> List[CleanRecord]:
    strict = config.policy == "strict"
    seen_ts: Dict[int, Set[float]] = {}
    last_fix: Dict[int, Tuple[float, float, float]] = {}
    out: List[Optional[CleanRecord]] = []
    accepted_slots: Dict[int, List[int]] = {}
    accepted_raw: Dict[int, List[RawRecord]] = {}

    for record in records:
        report.total += 1
        if maybe_fault(GARBLE_SITE) is not None:
            record = garble_record(record)
        reason = point_violation(record, config.bounds)
        if reason is not None:
            _drop(report, quarantine, record, reason, strict)
            continue
        oid, t, x, y = record.object_id, record.t, record.x, record.y
        timestamps = seen_ts.setdefault(oid, set())
        if t in timestamps:
            _drop(report, quarantine, record, DUPLICATE_TIMESTAMP, strict)
            continue
        previous = last_fix.get(oid)
        if previous is not None and t < previous[0]:
            _drop(report, quarantine, record, NON_MONOTONE, strict)
            continue
        if (
            config.max_speed is not None
            and previous is not None
            and travel_distance(previous[1], previous[2], x, y, config.metric)
            > config.max_speed * (t - previous[0])
        ):
            _drop(report, quarantine, record, TELEPORT, strict)
            continue
        timestamps.add(t)
        last_fix[oid] = (t, x, y)
        accepted_slots.setdefault(oid, []).append(len(out))
        accepted_raw.setdefault(oid, []).append(record)
        out.append(CleanRecord(oid, t, x, y))
        report.count_accepted(oid)

    if config.min_samples > 1:
        for oid in sorted(accepted_slots):
            slots = accepted_slots[oid]
            if len(slots) >= config.min_samples:
                continue
            if strict:
                raise IngestError(TOO_FEW_SAMPLES, accepted_raw[oid][0])
            for slot, raw in zip(slots, accepted_raw[oid]):
                out[slot] = None
                report.uncount_accepted(oid)
                _drop(report, quarantine, raw, TOO_FEW_SAMPLES, strict=False)
    return [record for record in out if record is not None]


@dataclass
class _Entry:
    """One surviving record mid-repair (mutable coordinates + repair tag)."""

    arrival: int
    t: float
    x: float
    y: float
    raw: RawRecord
    repair: Optional[str] = None

    def tag(self, reason: str) -> None:
        if self.repair is None:
            self.repair = reason


def _repair_pass(
    records: Iterable[RawRecord],
    config: QualityConfig,
    report: IngestReport,
    quarantine: Optional[QuarantineWriter],
) -> List[CleanRecord]:
    by_object: Dict[int, List[_Entry]] = {}
    by_object_ts: Dict[int, Set[float]] = {}
    max_oid: Optional[int] = None

    for arrival, record in enumerate(records):
        report.total += 1
        if maybe_fault(GARBLE_SITE) is not None:
            record = garble_record(record)
        reason = point_violation(record, config.bounds)
        clamped = False
        if reason == OUT_OF_BOUNDS:
            min_x, min_y, max_x, max_y = config.bounds
            record = replace(
                record,
                x=min(max(record.x, min_x), max_x),
                y=min(max(record.y, min_y), max_y),
            )
            clamped = True
        elif reason is not None:
            _drop(report, quarantine, record, reason, strict=False)
            continue
        oid, t = record.object_id, record.t
        max_oid = oid if max_oid is None else max(max_oid, oid)
        timestamps = by_object_ts.setdefault(oid, set())
        if t in timestamps:
            _drop(report, quarantine, record, DUPLICATE_TIMESTAMP, strict=False)
            continue
        timestamps.add(t)
        entry = _Entry(arrival=arrival, t=t, x=record.x, y=record.y, raw=record)
        if clamped:
            entry.tag(OUT_OF_BOUNDS)
        by_object.setdefault(oid, []).append(entry)

    next_id = (max_oid + 1) if max_oid is not None else 0
    out: List[CleanRecord] = []
    for oid in sorted(by_object):
        entries = by_object[oid]
        running_max = entries[0].t
        for entry in entries[1:]:
            if entry.t < running_max:
                entry.tag(NON_MONOTONE)
            else:
                running_max = entry.t
        entries.sort(key=lambda entry: entry.t)

        segments: List[List[_Entry]] = [[entries[0]]]
        if config.max_speed is not None:
            for previous, entry in zip(entries, entries[1:]):
                dt = entry.t - previous.t
                jump = travel_distance(
                    previous.x, previous.y, entry.x, entry.y, config.metric
                )
                if jump > config.max_speed * dt:
                    segments.append([entry])
                else:
                    segments[-1].append(entry)
        else:
            segments[0].extend(entries[1:])

        kept_segments = [s for s in segments if len(s) >= config.min_samples]
        if len(segments) > 1:
            report.splits[str(oid)] = len(segments)
        for segment in segments:
            if len(segment) < config.min_samples:
                for entry in segment:
                    _drop(report, quarantine, entry.raw, TOO_FEW_SAMPLES, strict=False)
        for position, segment in enumerate(kept_segments):
            if position == 0 and segment is segments[0]:
                segment_id = oid
            else:
                segment_id = next_id
                next_id += 1
                for entry in segment:
                    entry.tag(TELEPORT)
            for entry in segment:
                out.append(CleanRecord(segment_id, entry.t, entry.x, entry.y))
                if entry.repair is not None:
                    report.count_repaired(oid, entry.repair)
                else:
                    report.count_accepted(oid)
    return out
