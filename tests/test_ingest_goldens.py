"""``repro ingest`` reproduces the committed golden reports byte for byte.

The goldens in ``tests/fixtures/ingest/expected`` were written by
``tools/ingest_goldens.py`` from the record-at-a-time firewall, before the
columnar one replaced it: every fixture, every policy, with and without
the teleport gate and the minimum-samples floor.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tests" / "fixtures" / "ingest" / "expected"


def _tool():
    spec = importlib.util.spec_from_file_location(
        "ingest_goldens", ROOT / "tools" / "ingest_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_output_matches_the_goldens(tmp_path):
    _tool().write_outputs(tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in EXPECTED.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (EXPECTED / name).read_bytes(), name
