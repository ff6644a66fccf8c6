"""The generators write the committed golden workloads byte for byte.

The digests in ``tests/fixtures/datagen`` were written by
``tools/datagen_goldens.py``: the SHA-256 of the ``save_csv`` bytes of
``repro simulate`` at its defaults and of the quick city, efficiency,
metro and megacity bench scenarios.  A generator or database change that
moves a single sample (or reorders the objects) fails here.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXPECTED = ROOT / "tests" / "fixtures" / "datagen"


def _tool():
    spec = importlib.util.spec_from_file_location(
        "datagen_goldens", ROOT / "tools" / "datagen_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generated_workloads_match_the_goldens(tmp_path):
    tool = _tool()
    tool.write_outputs(tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in EXPECTED.iterdir())
    assert written == sorted(f"{name}.sha256" for name, _ in tool.CASES)
    for name in written:
        assert (tmp_path / name).read_text() == (EXPECTED / name).read_text(), name
