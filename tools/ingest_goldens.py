#!/usr/bin/env python3
"""Run ``repro ingest`` over the committed corrupt fixtures and save the output.

Every fixture in ``tests/fixtures/ingest`` is ingested under each quality
policy, once with the default knobs and once with the teleport gate and
the minimum-samples floor armed.  Each case leaves two files in the
output directory:

``<case>.txt``
    The exit status, stdout (minus the ``wrote <report>`` line, whose path
    varies) and stderr of the CLI call.
``<case>.json``
    The ``--ingest-report`` document, when the call wrote one (a strict
    load of a corrupt fixture aborts before it does).

The committed goldens in ``tests/fixtures/ingest/expected`` were written
by this script; any change to what the firewall accepts, drops or reports
shows up as a diff::

    python tools/ingest_goldens.py OUT_DIR
    diff -r OUT_DIR tests/fixtures/ingest/expected

The CLI runs in this process, from the repository root and with
repository-relative input paths, so the ``source`` field of every report
is stable.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main as repro_main  # noqa: E402

FIXTURES = "tests/fixtures/ingest"

#: (case stem, --format, --input relative to the repository root, the
#: teleport gate of the ``gated`` variant).  The T-Drive and GeoLife readers
#: take a directory and glob it.  Each gate sits between the fixture's
#: plausible steps and its fastest one, so some pairs trip it and some pass.
INPUTS: List[Tuple[str, str, str, str]] = [
    ("garbled_csv", "csv", f"{FIXTURES}/garbled.csv", "0.9"),
    ("tdrive", "tdrive", FIXTURES, "3"),
    ("geolife", "geolife", FIXTURES, "1"),
]

POLICIES = ("strict", "lenient", "repair")


def cases() -> Iterator[Tuple[str, List[str]]]:
    """Every ``(case name, argv)`` the goldens cover, in a fixed order."""
    for stem, fmt, path, max_speed in INPUTS:
        for policy in POLICIES:
            argv = ["ingest", "--input", path, "--format", fmt, "--quality", policy]
            yield f"{stem}.{policy}.default", argv
            yield f"{stem}.{policy}.gated", argv + [
                "--max-speed", max_speed, "--min-samples", "2"
            ]


def write_outputs(out_dir: Path) -> None:
    """Run every case and write its ``.txt`` (and ``.json``) into ``out_dir``."""
    out_dir = Path(out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        for name, argv in cases():
            report = out_dir / f"{name}.json"
            if report.exists():
                report.unlink()
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = repro_main(argv + ["--ingest-report", str(report)])
            printed = "".join(
                line for line in stdout.getvalue().splitlines(keepends=True)
                if not line.startswith("wrote ")
            )
            (out_dir / f"{name}.txt").write_text(
                f"exit: {code}\n--- stdout\n{printed}--- stderr\n{stderr.getvalue()}"
            )
    finally:
        os.chdir(cwd)


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    write_outputs(Path(argv[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
