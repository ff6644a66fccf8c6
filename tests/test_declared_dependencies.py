"""Every third-party module the package imports is a declared dependency.

Walks every ``import`` under ``src/repro`` with :mod:`ast` — lazy imports
inside functions included — drops the standard library and the package
itself, and checks that what is left is listed in ``pyproject.toml``'s
``[project].dependencies``, so a clean install can run every subcommand.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

#: ``tomllib`` is in the standard library from Python 3.11 on.
tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_modules():
    """Top-level names of every absolute import under ``src/repro``."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names.add(node.module.split(".")[0])
    return names


def declared_distributions():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.split(r"[<>=!~;\[ ]", requirement, maxsplit=1)[0].strip().lower()
        for requirement in project.get("dependencies", [])
    }


def test_third_party_imports_are_declared():
    third_party = imported_modules() - set(sys.stdlib_module_names) - {"repro"}
    needed = {name.lower() for name in third_party}
    assert needed - declared_distributions() == set()
    assert "numpy" in needed
