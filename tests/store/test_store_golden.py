"""The store writes the committed golden rows byte for byte.

The goldens in ``tests/fixtures/store`` were written by
``tools/store_goldens.py`` before the store encoded each cluster once from
its frame columns: every row of all five tables of a one-shot mine of
``tests/fixtures/stream/feed.csv`` (two crowds, two gatherings, one over a
sub-crowd) and of a streamed run of the same feed (evictions plus the
final answer).
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXPECTED = ROOT / "tests" / "fixtures" / "store"


def _tool():
    spec = importlib.util.spec_from_file_location(
        "store_goldens", ROOT / "tools" / "store_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rewritten_stores_match_the_goldens(tmp_path):
    _tool().write_outputs(tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in EXPECTED.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (EXPECTED / name).read_bytes(), name


def test_goldens_hold_a_crowd_and_a_gathering_over_a_sub_crowd():
    mined = json.loads((EXPECTED / "mined.json").read_text())
    assert len(mined["crowds"]) == 2 and len(mined["gatherings"]) == 2
    crowd_payloads = {row[-1] for row in mined["crowds"]}
    gathering_crowds = {
        json.dumps(json.loads(row[-1])["crowd"]) for row in mined["gatherings"]
    }
    assert gathering_crowds - crowd_payloads, "no gathering over a sub-crowd"
    assert gathering_crowds & crowd_payloads, "no gathering over a closed crowd"
    streamed = json.loads((EXPECTED / "streamed.json").read_text())
    assert streamed["crowds"] and streamed["gatherings"]
