"""No code in ``src/repro`` is reached only by tests.

Parses every module under ``src/repro`` with :mod:`ast` and computes which
top-level functions and classes the program itself can reach, starting from
the ``repro`` console script (``repro.cli.main``) and ``python -m repro``.

* A module's own top-level statements run when any of its definitions is
  reached, so what they name is reached too.
* A name resolves through the module's own definitions and its
  ``from ... import`` lines, following package re-exports to the defining
  module.  A package ``__init__`` re-export is therefore not a use, and
  neither is the definition naming itself.

A public definition nothing reaches fails the test; a module none of whose
public definitions is reached is reported as a whole.  Public API that is
deliberately kept without a caller in the program goes in ``ALLOWLIST`` with
its reason: a dotted module name keeps the whole module, a dotted definition
name keeps one definition.

A second test keeps the serving tier to one HTTP server.
"""

import ast
from pathlib import Path
from typing import Dict, Iterator, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

Key = Tuple[str, str]  # (module, top-level name); name "" is the module body

#: Where the program starts: the console script and ``python -m repro``.
ENTRY_POINTS = {("repro.cli", "main"), ("repro.__main__", "")}

#: Public definitions kept although no program path reaches them.
ALLOWLIST: Dict[str, str] = {
    # Public dataset API: the CLI reads through the ``*_report`` variants.
    "repro.trajectory.formats.load_tdrive": "T-Drive single-file reader",
    "repro.trajectory.formats.load_tdrive_directory": "T-Drive directory reader",
    "repro.trajectory.formats.load_geolife_plt": "GeoLife single-file reader",
    "repro.trajectory.formats.load_geolife_plt_report": "GeoLife single-file reader "
    "with its ingest report",
    "repro.trajectory.formats.load_geolife_user": "GeoLife per-user reader",
    "repro.trajectory.io.load_jsonl": "JSONL reader, the counterpart of load_csv",
    "repro.trajectory.io.save_jsonl": "JSONL writer, the counterpart of save_csv",
    # Paper-faithful references that the tests use as parity oracles.
    "repro.geometry.hausdorff.hausdorff_naive": "textbook double-loop Hausdorff "
    "distance, the oracle of hausdorff and hausdorff_within",
    "repro.core.crowd.is_crowd": "Definition 2 checked directly, the oracle of "
    "crowd discovery; exported from the top-level package",
    "repro.core.bitvector.popcount_tree": "the paper's popcount tree, the baseline "
    "of the bit-count ablation benchmark",
    "repro.core.codec.crowd_fingerprint": "a crowd's store key without a store; "
    "the codec parity tests pin cluster_fragments to it",
    "repro.core.codec.gathering_fingerprint": "a gathering's store key without a "
    "store; the codec parity tests pin cluster_fragments to it",
    # The fault-injection harness: named sites are armed from tests and CI.
    "repro.resilience.faults.clear_plan": "disarms the active plan; the reset "
    "of the fault fixtures",
    # Library modules with no CLI subcommand.
    "repro.datagen.synthetic": "cluster-level workloads that the paper-figure "
    "benchmarks and the phase-2/3 tests feed",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _parse_modules() -> Dict[str, Tuple[ast.Module, bool]]:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules[_module_name(path)] = (tree, path.name == "__init__.py")
    return modules


def _absolute(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The absolute module a ``from ... import`` line reads from."""
    if node.level == 0:
        return node.module or ""
    base = module.split(".")
    base = base[: len(base) - node.level + (1 if is_package else 0)]
    return ".".join(base + ([node.module] if node.module else []))


class _Graph:
    """Definitions, name bindings and the references of each definition."""

    def __init__(self, modules: Dict[str, Tuple[ast.Module, bool]]):
        self.modules = modules
        self.defs: Dict[str, Dict[str, ast.stmt]] = {
            name: {
                node.name: node
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            }
            for name, (tree, _) in modules.items()
        }
        self.imports: Dict[str, Dict[str, Tuple[str, str]]] = {}
        for name, (tree, is_package) in modules.items():
            bound = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    source = _absolute(name, is_package, node)
                    for alias in node.names:
                        bound[alias.asname or alias.name] = (source, alias.name)
            self.imports[name] = bound

    def resolve(self, module: str, name: str, seen: Optional[Set[Key]] = None) -> Optional[Key]:
        """The defining ``(module, name)`` of ``name`` as seen from ``module``."""
        seen = seen if seen is not None else set()
        if (module, name) in seen or module not in self.modules:
            return None
        seen.add((module, name))
        if name in self.defs[module]:
            return (module, name)
        if f"{module}.{name}" in self.modules:
            return (f"{module}.{name}", "")
        if name in self.imports[module]:
            return self.resolve(*self.imports[module][name], seen)
        return None

    def references(self, key: Key) -> Iterator[Key]:
        """What one definition (or, for name ``""``, a module body) names."""
        module, name = key
        tree, _ = self.modules[module]
        if name:
            nodes = [self.defs[module][name]]
        else:
            nodes = [node for node in tree.body if node not in self.defs[module].values()]
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, ast.Name):
                    target = self.resolve(module, node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    owner = self.resolve(module, node.value.id)
                    target = self.resolve(owner[0], node.attr) if owner and not owner[1] else None
                else:
                    continue
                if target is not None and target != key:
                    yield target

    def reached(self, roots) -> Set[Key]:
        seen: Set[Key] = set()
        stack = list(roots)
        while stack:
            key = stack.pop()
            if key in seen or key[0] not in self.modules:
                continue
            seen.add(key)
            stack.append((key[0], ""))  # reaching a definition imports its module
            stack.extend(self.references(key))
        return seen


def _allowed(graph: _Graph) -> Set[Key]:
    """The definitions ``ALLOWLIST`` names, a listed module by all of its own."""
    keys = set()
    for dotted in ALLOWLIST:
        if dotted in graph.modules:
            keys.update((dotted, name) for name in graph.defs[dotted] if name[0] != "_")
        else:
            keys.add(tuple(dotted.rsplit(".", 1)))
    return keys


def unreached() -> Dict[str, str]:
    """Dead modules (as a whole) and dead public definitions, by name."""
    graph = _Graph(_parse_modules())
    alive = graph.reached(ENTRY_POINTS | _allowed(graph))
    dead: Dict[str, str] = {}
    for module, defs in sorted(graph.defs.items()):
        public = sorted(name for name in defs if not name.startswith("_"))
        missing = [name for name in public if (module, name) not in alive]
        if public and len(missing) == len(public):
            dead[module] = "module"
        else:
            dead.update({f"{module}.{name}": "definition" for name in missing})
    return dead


def test_every_public_definition_is_reached_by_the_program():
    assert unreached() == {}


def test_allowlist_names_existing_unreached_code():
    graph = _Graph(_parse_modules())
    existing = {f"{module}.{name}" for module, defs in graph.defs.items() for name in defs}
    assert [dotted for dotted in ALLOWLIST if dotted not in set(graph.modules) | existing] == []
    reached = graph.reached(ENTRY_POINTS)
    assert [key for key in _allowed(graph) if key in reached] == []
    assert all(reason.strip() for reason in ALLOWLIST.values())


def _starts_a_server(tree: ast.Module) -> bool:
    """Imports ``http.server``/``socketserver`` or calls ``start_server``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Attribute) and node.attr == "start_server":
            return True
        else:
            continue
        if any(name.split(".")[0] in ("http", "socketserver") and name != "http.client"
               for name in names):
            return True
    return False


def test_one_http_server():
    servers = [name for name, (tree, _) in _parse_modules().items() if _starts_a_server(tree)]
    assert servers == ["repro.serve.async_http"]
