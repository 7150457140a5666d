"""Every imported name is used: an AST scan over the package and the tests."""

import ast
from pathlib import Path

import pytest

import pbsolve

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "pbsolve").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Imported names that are neither used nor listed in ``__all__``.

    Names inside quoted annotations count as used.
    """
    tree = ast.parse(source)
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _names_in(ast.parse(note.value, mode="eval"))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_sees_unused_and_quoted_names():
    source = (
        "from typing import IO, Iterable\n"
        "import os.path\n"
        "from .core import slack\n"
        "__all__ = ['slack']\n"
        "def f(lines: 'Iterable[str]') -> None:\n"
        "    pass\n"
    )
    assert unused_imports(source) == ["IO", "os"]


def test_public_names_resolve():
    # The scan above counts an ``__all__`` entry as used, so a stale export
    # of a deleted name would pass it; this catches that.
    assert [name for name in pbsolve.__all__ if not hasattr(pbsolve, name)] == []
    assert len(set(pbsolve.__all__)) == len(pbsolve.__all__)
