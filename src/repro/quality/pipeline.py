"""The policy-driven validation + repair pipeline, run on columns.

:func:`run_pipeline` is the single choke point every ingest path feeds its
records through.  It takes a whole load at once — a
:class:`~repro.quality.columns.RecordColumns`, or parse-stage
:class:`~repro.quality.rules.RawRecord` objects that it turns into one —
and runs every rule as a numpy pass over the columns:

* **Stateless rules** (parse-stage error, non-finite, out of bounds) are
  boolean masks, checked in :data:`~repro.quality.rules.REASONS` order.
* **Sequence rules** under ``strict`` / ``lenient`` (duplicate and
  non-monotone timestamps, the teleport speed gate) compare a fix with the
  last *accepted* fix of its object.  They run as a vectorised
  predecessor check: each fix is compared with the fix before it in its
  object.  Up to an object's first suspect pair, every fix is accepted
  and the predecessor *is* the last accepted fix, so the check is exact
  there.  From that first suspect onward the object is replayed record by
  record with the same rules, so repeated violations resolve exactly as
  they would one record at a time.  A pair whose numpy distance sits
  within rounding of ``max_speed * dt`` (or cannot be computed) counts as
  suspect, so the replay re-decides it with
  :func:`~repro.quality.rules.travel_distance`.
* **The minimum-samples floor** and all report counters are
  ``bincount`` / ``unique`` passes.

The policies:

``strict``
    The first violation raises :class:`~repro.quality.report.IngestError`.
``lenient``
    Violating records are dropped and accounted; the surviving records are
    exactly the input's clean subset, byte-for-byte untouched.
``repair``
    Deterministic fixes: exact-duplicate timestamps are dropped
    (keep-first), out-of-order sequences are re-sorted, out-of-bounds
    coordinates are clamped onto the box, and trajectories are split into
    new objects at teleport jumps (borderline jumps re-decided with
    :func:`~repro.quality.rules.travel_distance`).  Running repair over its
    own output is a no-op (idempotence is property-tested).

Every call returns a fully-accounted
:class:`~repro.quality.report.IngestReport` — the pipeline itself asserts
``accepted + dropped + repaired == total`` before returning — and the
survivors as columns (:class:`PipelineResult`), which
:meth:`~repro.trajectory.trajectory.TrajectoryDatabase.from_columns` turns
into a database without creating a point per sample.

The ``ingest.garble`` fault site (see :mod:`repro.resilience.faults`) is
probed once per record, in input order, when a fault plan is armed: a
record it fires on gets NaN coordinates before validation, so chaos runs
can corrupt records mid-load deterministically and watch the firewall
account for them.  A strict load stops probing at the record that aborts
it.  With no plan armed nothing is probed.

The record-at-a-time implementation these passes replaced lives on under
``tests/quality/scalar_oracle.py`` as the parity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..resilience.faults import active_plan
from .columns import NO_ERROR, RecordColumns
from .config import QualityConfig
from .quarantine import QuarantineWriter
from .report import UNPARSED_KEY, IngestError, IngestReport
from .rules import (
    DUPLICATE_TIMESTAMP,
    NON_FINITE,
    NON_MONOTONE,
    OUT_OF_BOUNDS,
    REASONS,
    TELEPORT,
    TOO_FEW_SAMPLES,
    RawRecord,
    travel_distance,
)

__all__ = ["CleanRecord", "PipelineResult", "run_pipeline", "GARBLE_SITE"]

#: Fault site: corrupt one raw record (coordinates become NaN) before
#: validation.  Armed via the shared FaultPlan registry.
GARBLE_SITE = "ingest.garble"

#: Reason codes as positions in :data:`REASONS`; ``_OK`` is no reason.
_OK = -1
_NON_FINITE = REASONS.index(NON_FINITE)
_OUT_OF_BOUNDS = REASONS.index(OUT_OF_BOUNDS)
_DUPLICATE = REASONS.index(DUPLICATE_TIMESTAMP)
_NON_MONOTONE = REASONS.index(NON_MONOTONE)
_TELEPORT = REASONS.index(TELEPORT)
_TOO_FEW = REASONS.index(TOO_FEW_SAMPLES)

#: Relative gap between a numpy distance and its speed limit below which the
#: numpy answer is not trusted; such pairs are re-decided with
#: :func:`travel_distance`.  numpy and :mod:`math` differ by a few ulps per
#: operation, but near-antipodal haversine pairs (``a`` within ulps of 1,
#: where ``asin`` is steep) amplify that to ~1e-8 relative.
_BORDERLINE = 1e-6

_INT64_MAX = np.iinfo(np.int64).max


class _Outcome(NamedTuple):
    """What a policy pass decided, beyond the per-row reasons it filled in."""

    #: Surviving rows, in output order, and the object id each leaves with.
    survivors: np.ndarray
    survivor_ids: np.ndarray
    #: Per-row repair reason code of kept rows (``_OK`` = untouched).
    tag: np.ndarray
    #: Rows dropped by the minimum-samples floor, in the order it visits them.
    late: np.ndarray
    #: Repair only: object key -> segments, for objects split at teleports.
    splits: Dict[str, int]


class CleanRecord(NamedTuple):
    """A record that survived the firewall, ready for a trajectory database."""

    object_id: int
    t: float
    x: float
    y: float


@dataclass
class PipelineResult:
    """Surviving records (accepted + repaired) as columns, plus the report.

    ``object_id`` / ``t`` / ``x`` / ``y`` are aligned ``(n,)`` arrays in
    output order (input order under ``lenient``; by object, then time,
    under ``repair``).  :attr:`records` is the same data as
    :class:`CleanRecord` tuples, built on first access.
    """

    report: IngestReport
    object_id: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray

    @cached_property
    def records(self) -> List[CleanRecord]:
        """The survivors as :class:`CleanRecord` tuples."""
        return [
            CleanRecord(*row)
            for row in zip(
                self.object_id.tolist(), self.t.tolist(), self.x.tolist(), self.y.tolist()
            )
        ]


def run_pipeline(
    records: Union[RecordColumns, Iterable[RawRecord]],
    config: Optional[QualityConfig] = None,
    source: str = "<records>",
) -> PipelineResult:
    """Validate (and under ``repair``, fix) one load's records per the policy.

    Parameters
    ----------
    records:
        The parse stage's output in input order: a
        :class:`~repro.quality.columns.RecordColumns`, or one
        :class:`RawRecord` per accounting unit.
    config:
        The firewall knobs; defaults to ``QualityConfig()`` (lenient, no
        speed gate, no bounds).
    source:
        Label recorded in the report and quarantine entries.
    """
    config = config or QualityConfig()
    columns = (
        records if isinstance(records, RecordColumns) else RecordColumns.from_records(records)
    )
    plan = active_plan()
    strict = config.policy == "strict"
    if plan is not None and not strict:
        fired = np.fromiter(
            (plan.should_fire(GARBLE_SITE) is not None for _ in range(len(columns))),
            dtype=bool,
            count=len(columns),
        )
        columns = _garble(columns, fired)
    code, ids = _object_codes(columns)
    reason = _stateless(columns, config)
    if config.policy == "repair":
        columns, clamped = _clamp(columns, config, reason)
        outcome = _repair(columns, config, code, ids, reason, clamped)
    else:
        outcome = _filter(columns, config, code, reason)
        if strict:
            _raise_first_violation(columns, reason, outcome.late, plan)
    report = _report(columns, config, source, code, ids, reason, outcome)
    if config.quarantine_path is not None and report.dropped:
        # Per-record drops in input order first, then the floor's.
        early = reason >= 0
        early[outcome.late] = False
        rows = np.concatenate((np.flatnonzero(early), outcome.late))
        _quarantine(columns, config, source, reason, rows)
        report.quarantined = report.dropped
    report.check()
    survivors = outcome.survivors
    return PipelineResult(
        report=report,
        object_id=outcome.survivor_ids,
        t=columns.t[survivors],
        x=columns.x[survivors],
        y=columns.y[survivors],
    )


def _quarantine(
    columns: RecordColumns,
    config: QualityConfig,
    source: str,
    reason: np.ndarray,
    rows: np.ndarray,
) -> None:
    """Append the dropped ``rows`` to the dead-letter file, in that order."""
    with QuarantineWriter(config.quarantine_path, source=source) as sink:
        for row in rows.tolist():
            sink.write(columns.record(row), REASONS[reason[row]])


# -- shared passes -----------------------------------------------------------------
def _garble(columns: RecordColumns, fired: np.ndarray) -> RecordColumns:
    """NaN the coordinates of the parsed records the fault site fired on."""
    garbled = fired & (columns.error == NO_ERROR)
    if not garbled.any():
        return columns
    x = columns.x.copy()
    y = columns.y.copy()
    x[garbled] = np.nan
    y[garbled] = np.nan
    return replace(columns, x=x, y=y)


def _object_codes(columns: RecordColumns) -> Tuple[np.ndarray, np.ndarray]:
    """Dense per-row object codes (``-1`` where parsing failed) and the sorted ids."""
    code = np.full(len(columns), -1, dtype=np.int64)
    with_id = np.flatnonzero(columns.error == NO_ERROR)
    ids, inverse = np.unique(columns.object_id[with_id], return_inverse=True)
    code[with_id] = inverse.ravel()
    return code, ids


def _stateless(columns: RecordColumns, config: QualityConfig) -> np.ndarray:
    """Per-row stateless reason code (``_OK`` where none applies)."""
    reason = columns.error.astype(np.int8, copy=True)
    parsed = reason == NO_ERROR
    finite = np.isfinite(columns.t) & np.isfinite(columns.x) & np.isfinite(columns.y)
    reason[parsed & ~finite] = _NON_FINITE
    if config.bounds is not None:
        min_x, min_y, max_x, max_y = config.bounds
        x, y = columns.x, columns.y
        inside = (min_x <= x) & (x <= max_x) & (min_y <= y) & (y <= max_y)
        reason[parsed & finite & ~inside] = _OUT_OF_BOUNDS
    return reason


def _over_speed(
    columns: RecordColumns, before: np.ndarray, after: np.ndarray, config: QualityConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """Teleport test of row pairs: ``(over, unsure)`` boolean arrays.

    ``over`` is the numpy verdict; ``unsure`` marks pairs where it may
    differ from :func:`travel_distance` (within rounding of the limit, or
    not a number), which callers must re-decide exactly.
    """
    x0, y0 = columns.x[before], columns.y[before]
    x1, y1 = columns.x[after], columns.y[after]
    limit = config.max_speed * (columns.t[after] - columns.t[before])
    with np.errstate(all="ignore"):
        if config.metric == "haversine":
            distance = _haversine(x0, y0, x1, y1)
        else:
            distance = np.hypot(x1 - x0, y1 - y0)
        sure = np.abs(distance - limit) > _BORDERLINE * np.maximum(
            np.abs(distance), np.abs(limit)
        )
    return distance > limit, ~sure


def _haversine(lon0, lat0, lon1, lat1) -> np.ndarray:
    """:func:`~repro.trajectory.geo.haversine_distance` over arrays."""
    from ..trajectory.geo import EARTH_RADIUS_M

    phi0 = np.radians(lat0)
    phi1 = np.radians(lat1)
    dphi = np.radians(lat1 - lat0)
    dlambda = np.radians(lon1 - lon0)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi0) * np.cos(phi1) * np.sin(dlambda / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(1.0, a)))


def _group_by_object(rows: np.ndarray, code: np.ndarray) -> np.ndarray:
    """``rows`` regrouped by object code, input order kept inside each object."""
    return rows[np.argsort(code[rows], kind="stable")]


# -- strict / lenient --------------------------------------------------------------
def _filter(
    columns: RecordColumns,
    config: QualityConfig,
    code: np.ndarray,
    reason: np.ndarray,
) -> _Outcome:
    """Sequence rules and the floor of ``strict`` / ``lenient``.

    Fills ``reason`` in place; survivors stay in input order.
    """
    order = _group_by_object(np.flatnonzero(reason == _OK), code)
    if len(order) > 1:
        t = columns.t[order]
        same = code[order[1:]] == code[order[:-1]]
        suspect = t[1:] <= t[:-1]
        if config.max_speed is not None:
            over, unsure = _over_speed(columns, order[:-1], order[1:], config)
            suspect |= over | unsure
        suspect &= same
        if suspect.any():
            starts = np.flatnonzero(np.concatenate(([True], ~same)))
            ends = np.append(starts[1:], len(order))
            first = np.flatnonzero(suspect) + 1
            group = np.searchsorted(starts, first, side="right") - 1
            group, at = np.unique(group, return_index=True)
            for g, position in zip(group.tolist(), first[at].tolist()):
                _replay(columns, config, reason, order[starts[g] : position],
                        order[position : ends[g]])

    late = np.empty(0, dtype=np.int64)
    if config.min_samples > 1:
        accepted = np.flatnonzero(reason == _OK)
        counts = np.bincount(code[accepted])
        few = accepted[counts[code[accepted]] < config.min_samples]
        late = few[np.argsort(code[few], kind="stable")]
        reason[late] = _TOO_FEW
    survivors = np.flatnonzero(reason == _OK)
    untouched = np.full(len(reason), _OK, dtype=np.int8)
    return _Outcome(survivors, columns.object_id[survivors], untouched, late, {})


def _replay(
    columns: RecordColumns,
    config: QualityConfig,
    reason: np.ndarray,
    history: np.ndarray,
    rows: np.ndarray,
) -> None:
    """Re-run one object's sequence rules record by record from a suspect on.

    ``history`` holds the object's rows before the suspect (all accepted);
    ``rows`` the suspect and every later row of the object.
    """
    seen = set(columns.t[history].tolist())
    last = history[-1]
    last_t, last_x, last_y = (float(columns.t[last]), float(columns.x[last]),
                              float(columns.y[last]))
    max_speed, metric = config.max_speed, config.metric
    for row, t, x, y in zip(rows.tolist(), columns.t[rows].tolist(),
                            columns.x[rows].tolist(), columns.y[rows].tolist()):
        if t in seen:
            reason[row] = _DUPLICATE
        elif t < last_t:
            reason[row] = _NON_MONOTONE
        elif max_speed is not None and (
            travel_distance(last_x, last_y, x, y, metric) > max_speed * (t - last_t)
        ):
            reason[row] = _TELEPORT
        else:
            seen.add(t)
            last_t, last_x, last_y = t, x, y


def _raise_first_violation(
    columns: RecordColumns, reason: np.ndarray, late: np.ndarray, plan
) -> None:
    """The strict policy: raise on the first violation, if there is one.

    The first record a lenient pass drops is the one a strict load aborts
    on: every record before it was accepted either way.  With no such
    record, the first floor drop is the strict error (the first record of
    the lowest under-sampled object id).  An armed fault plan is probed
    record by record only up to the aborting record.
    """
    early = reason >= 0
    early[late] = False
    bad = np.flatnonzero(early)
    stop = int(bad[0]) if bad.size else len(columns) - 1
    if plan is not None:
        for row in range(stop + 1):
            if plan.should_fire(GARBLE_SITE) is not None:
                record = columns.record(row)
                if columns.error[row] != NO_ERROR:
                    raise IngestError(REASONS[columns.error[row]], record)
                nan = float("nan")
                raise IngestError(NON_FINITE, replace(record, x=nan, y=nan))
    if bad.size:
        raise IngestError(REASONS[reason[stop]], columns.record(stop))
    if late.size:
        raise IngestError(TOO_FEW_SAMPLES, columns.record(int(late[0])))


# -- repair ------------------------------------------------------------------------
def _clamp(
    columns: RecordColumns, config: QualityConfig, reason: np.ndarray
) -> Tuple[RecordColumns, np.ndarray]:
    """Pull out-of-bounds fixes onto the box edge (they stay in the load)."""
    clamped = reason == _OUT_OF_BOUNDS
    if clamped.any():
        min_x, min_y, max_x, max_y = config.bounds
        x = columns.x.copy()
        y = columns.y.copy()
        # min(max(v, low), high), as Python's min/max pick among equals.
        x[clamped] = _clip(x[clamped], min_x, max_x)
        y[clamped] = _clip(y[clamped], min_y, max_y)
        columns = replace(columns, x=x, y=y)
        reason[clamped] = _OK
    return columns, clamped


def _clip(values: np.ndarray, low: float, high: float) -> np.ndarray:
    values = np.where(low > values, low, values)
    return np.where(high < values, high, values)


def _repair(
    columns: RecordColumns,
    config: QualityConfig,
    code: np.ndarray,
    ids: np.ndarray,
    reason: np.ndarray,
    clamped: np.ndarray,
) -> _Outcome:
    """Dedupe, re-sort, split at teleports and apply the segment floor.

    Fills ``reason`` in place; survivors come out by object (ascending id),
    then by time.
    """
    t = columns.t
    tag = np.full(len(reason), _OK, dtype=np.int8)
    tag[clamped] = _OUT_OF_BOUNDS
    kept = np.flatnonzero(reason == _OK)
    if not kept.size:
        empty = np.empty(0, dtype=np.int64)
        return _Outcome(empty, columns.object_id[empty], tag, empty, {})
    top = int(code[kept].max())
    next_id = ids[top : top + 1].tolist()[0] + 1

    # Keep-first dedupe of (object, t).
    by_time = kept[np.lexsort((kept, t[kept], code[kept]))]
    repeat = (code[by_time[1:]] == code[by_time[:-1]]) & (t[by_time[1:]] == t[by_time[:-1]])
    reason[by_time[1:][repeat]] = _DUPLICATE

    # Fixes behind their object's running maximum (in arrival order) were
    # re-sorted: compare ranks so the running maximum stays exact.
    entries = _group_by_object(np.flatnonzero(reason == _OK), code)
    _, rank = np.unique(t[entries], return_inverse=True)
    key = code[entries] * (len(entries) + 1) + rank.ravel()
    behind = entries[key < np.maximum.accumulate(key)]
    tag[behind[tag[behind] == _OK]] = _NON_MONOTONE

    # Sort each object by time and split it at teleports into segments.
    ordered = entries[np.lexsort((t[entries], code[entries]))]
    starts = np.concatenate(([True], code[ordered[1:]] != code[ordered[:-1]]))
    breaks = starts.copy()
    if config.max_speed is not None and len(ordered) > 1:
        inner = np.flatnonzero(~starts[1:])
        before, after = ordered[inner], ordered[inner + 1]
        over, unsure = _over_speed(columns, before, after, config)
        for k in np.flatnonzero(unsure).tolist():
            b, a = int(before[k]), int(after[k])
            over[k] = travel_distance(
                float(columns.x[b]), float(columns.y[b]),
                float(columns.x[a]), float(columns.y[a]), config.metric,
            ) > config.max_speed * (float(t[a]) - float(t[b]))
        breaks[inner[over] + 1] = True
    segment = np.cumsum(breaks) - 1
    first = np.flatnonzero(breaks)
    seg_code = code[ordered[first]]
    seg_len = np.diff(np.append(first, len(ordered)))
    seg_kept = seg_len >= config.min_samples
    seg_first = starts[first]

    late = ordered[~seg_kept[segment]]
    reason[late] = _TOO_FEW
    moved_seg = seg_kept & ~seg_first
    moved_count = int(moved_seg.sum())
    seg_ids = ids[seg_code]
    if moved_count:
        new_ids = list(range(next_id, next_id + moved_count))
        if next_id + moved_count - 1 > _INT64_MAX:
            seg_ids = seg_ids.astype(object)
        seg_ids[moved_seg] = new_ids
        teleported = ordered[moved_seg[segment]]
        tag[teleported[tag[teleported] == _OK]] = _TELEPORT
    keep = seg_kept[segment]
    per_object = np.bincount(seg_code, minlength=len(ids))
    split = np.flatnonzero(per_object > 1)
    splits = {
        str(object_id): count
        for object_id, count in zip(ids[split].tolist(), per_object[split].tolist())
    }
    return _Outcome(ordered[keep], seg_ids[segment[keep]], tag, late, splits)


# -- accounting --------------------------------------------------------------------
def _report(
    columns: RecordColumns,
    config: QualityConfig,
    source: str,
    code: np.ndarray,
    ids: np.ndarray,
    reason: np.ndarray,
    outcome: _Outcome,
) -> IngestReport:
    """The fully-accounted report of one load, from per-row outcomes."""
    tag = outcome.tag
    dropped = reason >= 0
    repaired = ~dropped & (tag >= 0)
    accepted = ~dropped & ~repaired
    report = IngestReport(
        source=source,
        policy=config.policy,
        total=len(columns),
        accepted=int(accepted.sum()),
        dropped=int(dropped.sum()),
        repaired=int(repaired.sum()),
        dropped_by_rule=_by_rule(reason[dropped]),
        repaired_by_rule=_by_rule(tag[repaired]),
    )
    # Rows without an object id land in the last bucket ("unparsed").
    bucket = np.where(code >= 0, code, len(ids))
    size = len(ids) + 1
    counts = zip(
        np.bincount(bucket, minlength=size).tolist(),
        np.bincount(bucket[accepted], minlength=size).tolist(),
        np.bincount(bucket[dropped], minlength=size).tolist(),
        np.bincount(bucket[repaired], minlength=size).tolist(),
    )
    keys = [str(object_id) for object_id in ids.tolist()] + [UNPARSED_KEY]
    for key, (rows, n_accepted, n_dropped, n_repaired) in zip(keys, counts):
        if rows:
            report.objects[key] = {
                "accepted": n_accepted, "dropped": n_dropped, "repaired": n_repaired
            }
    report.splits.update(outcome.splits)
    return report


def _by_rule(codes: np.ndarray) -> Dict[str, int]:
    counts = np.bincount(codes.astype(np.int64), minlength=len(REASONS)).tolist()
    return {REASONS[c]: n for c, n in enumerate(counts) if n}
