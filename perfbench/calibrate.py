"""Calibration process: times a fixed kernel that never changes with the program.

Usage: ``python3 calibrate.py`` -- then, for every line read on stdin, it
runs :func:`kernel` once and answers one line: the kernel's wall seconds.
It exits at the end of its input.

The machine the benchmark runs on is a share of a busy host whose speed
drifts by a factor of two over minutes.  The worker asks this process for
a kernel time between units of work, and scales every time it reports by
``REFERENCE_S / median kernel time`` of its run (see ``HostSpeed`` in
``worker.py``): a run on a slow stretch of the host and one on a fast
stretch then report the same figures for the same program.  The kernel
imports no ``repro`` module, so a change to the program cannot change it,
and it runs in a process of its own, so it does not touch the program's
heap, collector or peak RSS.

The kernel mixes what the program's time is spent on, in about the
program's proportions: interpreted parsing and grouping of text rows (the
quality firewall, the stream's per-point path, request handling), numpy
sorts, grid keys and distances (the engine), and small SQLite writes and
indexed range reads (the store).
"""

import sqlite3
import sys
import time

import numpy as np

#: The kernel's median seconds on the machine the benchmark was built on
#: (a shared 2-vCPU Xeon virtual machine).  A fixed number, never
#: recomputed: times are reported as if the host ran at that speed.
REFERENCE_S = 0.07

_TEXT = "\n".join(
    f"{i % 251},{i},{(i * 7919) % 10007 * 0.5:.3f},{(i * 104729) % 10009 * 1.5:.3f}"
    for i in range(36000)
)
_POINTS = np.random.default_rng(7).random((40000, 2)) * 1000.0


def _parse() -> int:
    tracks = {}
    for line in _TEXT.split("\n"):
        oid, t, x, y = line.split(",")
        tracks.setdefault(int(oid), []).append((int(t), float(x), float(y)))
    jumps = 0
    for rows in tracks.values():
        rows.sort()
        last = rows[0]
        for row in rows:
            if abs(row[1] - last[1]) + abs(row[2] - last[2]) > 10000.0:
                jumps += 1
            last = row
    return jumps


def _numeric() -> int:
    order = np.lexsort((_POINTS[:, 1], _POINTS[:, 0]))
    points = _POINTS[order]
    cells = (points // 25.0).astype(np.int64)
    keys = cells[:, 0] * 100003 + cells[:, 1]
    _, inverse = np.unique(keys, return_inverse=True)
    steps = np.hypot(np.diff(points[:, 0]), np.diff(points[:, 1]))
    return int(np.bincount(inverse).max()) + int(np.cumsum(steps)[-1])


def _store() -> int:
    conn = sqlite3.connect(":memory:")
    conn.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b REAL, c TEXT)")
    conn.executemany(
        "INSERT INTO t VALUES (?, ?, ?)",
        ((i, (i * 37) % 5000 * 0.5, str(i)) for i in range(12000)),
    )
    conn.execute("CREATE INDEX t_b ON t (b)")
    rows = 0
    for i in range(300):
        rows += len(conn.execute(
            "SELECT a, c FROM t WHERE b BETWEEN ? AND ? ORDER BY b LIMIT 20", (i * 10, i * 10 + 40)
        ).fetchall())
    conn.close()
    return rows


def kernel() -> int:
    return _parse() + _numeric() + _store()


def main() -> int:
    kernel()  # warm-up, not reported
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel()
        sys.stdout.write(f"{time.perf_counter() - start!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
