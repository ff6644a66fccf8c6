#!/usr/bin/env python3
"""Write every row of two small mined pattern stores as reviewable JSON.

Both stores hold the patterns mined from ``tests/fixtures/stream/feed.csv``:

``mined.json``
    A one-shot numpy-backend :class:`~repro.core.pipeline.GatheringMiner`
    run written with :meth:`PatternStore.write_result`.  Its parameters
    mine two crowds and two gatherings, one of them over a sub-crowd of a
    closed crowd, so the same frame-backed clusters appear in a crowd row
    and in a gathering row.
``streamed.json``
    A frozen-eviction :class:`~repro.stream.StreamingGatheringService` run
    that appends its evictions and its final answer to the store.

Each document lists the rows of all five tables (``meta``, ``crowds``,
``crowd_members``, ``gatherings``, ``gathering_participators``) in primary
key order.  The committed goldens in ``tests/fixtures/store`` were written
by this script; any change to a stored byte shows up as a diff::

    python tools/store_goldens.py OUT_DIR
    diff -r OUT_DIR tests/fixtures/store
"""

from __future__ import annotations

import csv
import json
import sqlite3
import sys
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import GatheringParameters  # noqa: E402
from repro.core.pipeline import GatheringMiner  # noqa: E402
from repro.engine.registry import ExecutionConfig  # noqa: E402
from repro.store import PatternStore  # noqa: E402
from repro.stream import StreamingGatheringService  # noqa: E402
from repro.trajectory.io import load_csv  # noqa: E402

FEED = REPO_ROOT / "tests" / "fixtures" / "stream" / "feed.csv"

#: Mines 2 crowds and 2 gatherings from the feed, one over a sub-crowd.
MINE_PARAMS = GatheringParameters(eps=800.0, min_points=3, mc=3, kc=3, kp=2, mp=4)
#: The stream fixture's parameters: 1 crowd and 1 gathering.
STREAM_PARAMS = GatheringParameters(eps=200.0, min_points=3, mc=4, kc=4, kp=3, mp=3)

#: Every table of the store, with the columns that order its rows.
TABLES = (
    ("meta", "key"),
    ("crowds", "id"),
    ("crowd_members", "crowd_id, object_id"),
    ("gatherings", "id"),
    ("gathering_participators", "gathering_id, object_id"),
)


def store_rows(conn: sqlite3.Connection) -> Dict[str, List[List[Any]]]:
    """Every row of every table of a store's database, in key order."""
    return {
        table: [list(row) for row in conn.execute(f"SELECT * FROM {table} ORDER BY {order}")]
        for table, order in TABLES
    }


def write_mined(path: Path) -> None:
    """Mine the feed in one shot and write the result to a fresh store."""
    database = load_csv(FEED)
    result = GatheringMiner(MINE_PARAMS, config=ExecutionConfig(backend="numpy")).mine(
        database
    )
    with PatternStore(path) as store:
        store.write_result(result)


def write_streamed(path: Path) -> None:
    """Replay the feed through the streaming service into a fresh store."""
    with open(FEED, newline="") as handle:
        feed = [
            (int(row["object_id"]), float(row["t"]), float(row["x"]), float(row["y"]))
            for row in csv.DictReader(handle)
        ]
    with PatternStore(path) as store:
        store.set_params(STREAM_PARAMS)
        service = StreamingGatheringService(
            STREAM_PARAMS,
            window=2,
            slack=6,
            config=ExecutionConfig(backend="numpy"),
            store=store,
        )
        service.ingest_many(feed)
        service.finish()


CASES = (("mined", write_mined), ("streamed", write_streamed))


def write_outputs(out_dir: Path) -> None:
    """Write ``<case>.json`` row dumps of every case into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write in CASES:
        db_path = out_dir / f"{name}.db"
        write(db_path)
        conn = sqlite3.connect(str(db_path))
        try:
            rows = store_rows(conn)
        finally:
            conn.close()
        for suffix in ("", "-wal", "-shm"):
            Path(f"{db_path}{suffix}").unlink(missing_ok=True)
        (out_dir / f"{name}.json").write_text(_dump(rows))


def _dump(rows: Dict[str, List[List[Any]]]) -> str:
    """JSON of a row dump with one table row per line, for readable diffs."""
    tables = []
    for table, values in rows.items():
        body = "".join(f"\n  {json.dumps(row)}," for row in values).rstrip(",")
        tables.append(f" {json.dumps(table)}: [{body}\n ]")
    return "{\n" + ",\n".join(tables) + "\n}\n"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: store_goldens.py OUT_DIR")
    write_outputs(Path(sys.argv[1]))
