"""The code snippets in docs/api.md must actually run.

docs/api.md promises its python blocks are runnable top to bottom; this
test extracts every fenced ``python`` block, concatenates them in order and
executes the result in a subprocess (in a temp directory, like a user
would).  A library API change that breaks a documented snippet fails here
before the docs can rot.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
API_DOC = REPO_ROOT / "docs" / "api.md"

_FENCED_PYTHON = re.compile(r"```python\n(.*?)```", re.DOTALL)


def extract_snippets(text: str):
    return [match.group(1) for match in _FENCED_PYTHON.finditer(text)]


def test_api_doc_has_snippets_for_every_documented_class():
    text = API_DOC.read_text(encoding="utf-8")
    snippets = "\n".join(extract_snippets(text))
    for name in (
        "GatheringMiner",
        "ExecutionConfig",
        "StreamingGatheringService",
        "PatternStore",
        "PatternApp",
    ):
        assert name in snippets, f"docs/api.md has no runnable snippet using {name}"


def test_api_doc_snippets_run(tmp_path):
    snippets = extract_snippets(API_DOC.read_text(encoding="utf-8"))
    assert snippets, "docs/api.md contains no python snippets"
    script = "\n\n".join(snippets)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,  # snippets must not depend on (or litter) the repo dir
        timeout=600,
    )
    assert completed.returncode == 0, (
        f"docs/api.md snippets failed\nstdout:\n{completed.stdout}\n"
        f"stderr:\n{completed.stderr}"
    )
    assert completed.stdout.strip(), "docs/api.md snippets printed nothing"
