"""Every module-level import under ``src/`` is used by its module.

Deleting code tends to leave an import behind whose last user went with
it.  This scan finds them by AST: a module-level import (``__future__``
aside) must be used as a name in the module's code, listed in its
``__all__``, or named inside a string annotation.  Package
``__init__.py`` files re-export by design and are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _module_imports(tree: ast.Module):
    """``(bound name, line)`` of each import outside functions and classes."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                pending.extend(getattr(node, field, ()))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            arguments = node.args
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            ):
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(name.id for name in ast.walk(parsed) if isinstance(name, ast.Name))
    return used


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    return [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for name, line in _module_imports(tree)
        if name not in used
    ]


def test_no_unused_module_imports_in_src():
    unused = [
        finding
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for finding in _unused_imports(path)
    ]
    assert not unused, "module-level imports their module never uses:\n" + "\n".join(unused)


def test_scan_sees_names_all_and_string_annotations(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "import os\n"
        "import sys\n"
        "import json\n"
        "from typing import Any\n"
        "__all__ = ['Any']\n"
        "def f(path: 'os.PathLike') -> None:\n"
        "    return sys.argv\n",
        encoding="utf-8",
    )
    tree = ast.parse(module.read_text(encoding="utf-8"))
    used = _used_names(tree)
    assert [name for name, _ in _module_imports(tree) if name not in used] == ["json"]
