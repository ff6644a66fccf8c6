"""A committed version-1 checkpoint restores and finishes the run it cut.

``tests/fixtures/stream/checkpoint-v1.json`` was written by the service as
it stood before the pending buffer and the window close went columnar (it
buffered ``Point`` objects), after the first ``CUT`` fixes of ``feed.csv``,
with fixes pending in the open window and three future ones.  Restoring it
and replaying the rest of the feed must give the answer of a run that was
never interrupted.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.core.config import GatheringParameters
from repro.engine.registry import ExecutionConfig
from repro.stream import StreamingGatheringService

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "stream"
PARAMS = GatheringParameters(eps=200.0, min_points=3, mc=4, kc=4, kp=3, mp=3)
#: Fixes of feed.csv ingested before the checkpoint was written.
CUT = 360


def _feed():
    with open(FIXTURES / "feed.csv", newline="") as handle:
        return [
            (int(row["object_id"]), float(row["t"]), float(row["x"]), float(row["y"]))
            for row in csv.DictReader(handle)
        ]


def _keys(items):
    return sorted(item.keys() for item in items)


def test_pinned_checkpoint_finishes_like_an_uninterrupted_run():
    feed = _feed()
    uninterrupted = StreamingGatheringService(
        PARAMS, window=2, slack=6, config=ExecutionConfig(backend="numpy")
    )
    uninterrupted.ingest_many(feed)
    expected = uninterrupted.finish()

    restored = StreamingGatheringService.restore(FIXTURES / "checkpoint-v1.json")
    pending_windows = {
        restored._grid_index(t) // restored.window
        for samples in restored._pending.values()
        for t in samples
    }
    assert len(pending_windows - {restored._open_window}) >= 3
    assert restored._carry
    restored.ingest_many(feed[CUT:])
    result = restored.finish()

    assert len(expected.gatherings) >= 1
    assert _keys(result.closed_crowds) == _keys(expected.closed_crowds)
    assert _keys(result.gatherings) == _keys(expected.gatherings)
    assert result.gatherings == expected.gatherings
    assert result.stats.points_ingested == expected.stats.points_ingested
    assert result.stats.points_late == expected.stats.points_late
