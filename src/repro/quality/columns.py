"""One load's raw records as columns: the firewall's input.

Format readers hand the firewall a :class:`RecordColumns` — every input
record of one load, in input order, as numpy columns — instead of one
object per record.  The CSV reader builds it block by block straight from
the file (:func:`repro.trajectory.io.load_csv_report`); readers that keep
a per-record parse stage (JSONL, T-Drive, GeoLife, quarantine replay) go
through :meth:`RecordColumns.from_records`.  Either way a rejected record
is turned back into a :class:`~repro.quality.rules.RawRecord`
(:meth:`RecordColumns.record`) only for the quarantine sink and for
strict-mode errors, so nothing per record is built for the records that
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .rules import REASONS, SCHEMA, RawRecord

__all__ = ["RecordColumns", "NO_ERROR"]

#: ``error`` code of a record that parsed; other codes index
#: :data:`~repro.quality.rules.REASONS`.
NO_ERROR = -1

_MAX_INT64 = np.iinfo(np.int64).max
_MIN_INT64 = np.iinfo(np.int64).min


def object_id_column(values: List[int]) -> np.ndarray:
    """Python ints as an int64 column, or an object column if one overflows."""
    if values and (max(values) > _MAX_INT64 or min(values) < _MIN_INT64):
        column = np.empty(len(values), dtype=object)
        column[:] = values
        return column
    return np.asarray(values, dtype=np.int64)


@dataclass
class RecordColumns:
    """Every record of one load, in input order, one array per field.

    Attributes
    ----------
    index:
        ``(n,)`` int64 record index (the reader's accounting unit number).
    error:
        ``(n,)`` int8 parse-stage failure: :data:`NO_ERROR`, or the
        position of ``schema`` / ``parse`` in
        :data:`~repro.quality.rules.REASONS`.
    object_id:
        ``(n,)`` int64 object ids (object dtype when one does not fit in
        int64); meaningful only where the record parsed.
    t, x, y:
        ``(n,)`` float64 fields (NaN where the record has none).
    raw:
        Per-record original text, or ``None`` when the reader did not keep
        it (nothing in the load can ask for it: no quarantine sink, not
        strict).
    """

    index: np.ndarray
    error: np.ndarray
    object_id: np.ndarray
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    raw: Optional[Sequence[str]] = None

    def __len__(self) -> int:
        return len(self.index)

    @classmethod
    def from_records(cls, records: Iterable[RawRecord]) -> "RecordColumns":
        """Columns of parse-stage records (the per-record readers' adapter)."""
        records = list(records)
        error: List[int] = []
        object_ids: List[int] = []
        t: List[float] = []
        x: List[float] = []
        y: List[float] = []
        nan = float("nan")
        for record in records:
            if record.error is None and record.is_parsed():
                error.append(NO_ERROR)
                object_ids.append(record.object_id)
                t.append(record.t)
                x.append(record.x)
                y.append(record.y)
            else:
                error.append(REASONS.index(record.error or SCHEMA))
                object_ids.append(0)
                t.append(nan)
                x.append(nan)
                y.append(nan)
        return cls(
            index=np.asarray([record.index for record in records], dtype=np.int64),
            error=np.asarray(error, dtype=np.int8),
            object_id=object_id_column(object_ids),
            t=np.asarray(t, dtype=np.float64),
            x=np.asarray(x, dtype=np.float64),
            y=np.asarray(y, dtype=np.float64),
            raw=[record.raw for record in records],
        )

    def record(self, row: int) -> RawRecord:
        """Row ``row`` as a :class:`RawRecord`, for quarantine and errors.

        The record carries the row's current coordinates, so one the
        firewall changed (garbled to NaN, clamped onto the bounds) shows
        the change, as the record-at-a-time firewall's did.
        """
        if self.raw is None:
            raise ValueError("the reader kept no raw text for this load")
        index = int(self.index[row])
        if self.error[row] != NO_ERROR:
            return RawRecord(index=index, raw=self.raw[row], error=REASONS[self.error[row]])
        return RawRecord(
            index=index,
            raw=self.raw[row],
            object_id=self.object_id[row : row + 1].tolist()[0],
            t=float(self.t[row]),
            x=float(self.x[row]),
            y=float(self.y[row]),
        )
