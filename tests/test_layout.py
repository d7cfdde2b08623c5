"""`src/hicalib` holds only what the CLI, engine, certificate and perfbench run.

Every public module-level function or class in `src/hicalib/*.py` must be
referenced in code somewhere in `src/hicalib` or `perfbench/`: as an AST
`Name`, an `Attribute` or an import alias.  A docstring or a string is not
a reference, and neither is `__init__.py`, which re-exports names for
users.  `errors.py` is exempt: its classes are the CLI's error contract.
Reference implementations that only tests use live in `tests/reference.py`,
and no `src` module may import from the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hicalib"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"

EXEMPT = {"__init__.py", "errors.py"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced_names() -> set[str]:
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += PERFBENCH.rglob("*.py")
    names: set[str] = set()
    for path in paths:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_definition_is_referenced():
    referenced = _referenced_names()
    unreferenced = [
        f"{path.stem}.{node.name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in EXEMPT
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
    ]
    assert unreferenced == []


def test_no_src_module_imports_from_the_tests():
    test_modules = {"tests"} | {p.stem for p in TESTS.glob("*.py")}
    imports = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                imports.append((path.name, node.module))
    assert [(f, m) for f, m in imports if m.split(".")[0] in test_modules] == []
