#!/usr/bin/env python3
"""Write the SHA-256 of the CSV bytes of every generated workload.

The synthetic generators feed the CLI demo and every bench scenario, so a
change to one of them (or to how a :class:`TrajectoryDatabase` is built and
iterated) silently changes every figure measured on it.  Each case is saved
with :func:`repro.trajectory.io.save_csv` and hashed:

``simulate``
    ``repro simulate`` with its default options.
``city``, ``efficiency``, ``metro``, ``megacity``
    ``repro.bench.SCENARIOS[name].build(quick=True)``.

The committed digests in ``tests/fixtures/datagen`` were written by this
script; any changed byte of a generated workload shows up as a diff::

    python tools/datagen_goldens.py OUT_DIR
    diff -r OUT_DIR tests/fixtures/datagen
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import SCENARIOS  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.trajectory.io import save_csv  # noqa: E402

#: The bench scenarios pinned, each at its ``--quick`` size.
SCENARIO_CASES = ("city", "efficiency", "metro", "megacity")


def _simulate_csv(path: Path) -> None:
    """``repro simulate --output PATH`` with every other option defaulted."""
    with contextlib.redirect_stdout(io.StringIO()):
        if main(["simulate", "--output", str(path)]) != 0:
            raise RuntimeError("repro simulate failed")


def _scenario_csv(name: str):
    def write(path: Path) -> None:
        save_csv(SCENARIOS[name].build(quick=True), path)

    return write


CASES = (("simulate", _simulate_csv),) + tuple(
    (name, _scenario_csv(name)) for name in SCENARIO_CASES
)


def write_outputs(out_dir: Path) -> None:
    """Write ``<case>.sha256`` (hex digest of the CSV bytes) into ``out_dir``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, write in CASES:
            csv_path = Path(tmp) / f"{name}.csv"
            write(csv_path)
            digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            csv_path.unlink()
            (out_dir / f"{name}.sha256").write_text(digest + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: datagen_goldens.py OUT_DIR")
    write_outputs(Path(sys.argv[1]))
