"""Rules every module of the library keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

import mrcodes

SRC = Path(__file__).resolve().parents[1] / "src" / "mrcodes"

# the library raises its own typed errors (mrcodes.errors), never these
BARE = {"ValueError", "TypeError", "IndexError", "KeyError", "AssertionError",
        "RuntimeError", "Exception"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_and_no_bare_builtin_raise(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BARE:
                found.append((node.lineno, f"raise {exc.id}"))
    assert found == []


def test_all_lists_exactly_the_public_imports():
    # every exported name is bound, and every public class or function that
    # the package imports from its modules is exported
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    public = {name for name in imported
              if not name.startswith("_") and callable(getattr(mrcodes, name))}
    assert [name for name in mrcodes.__all__ if not hasattr(mrcodes, name)] == []
    assert sorted(public - set(mrcodes.__all__)) == []


def test_private_names_imported_across_modules():
    # a private name shared between modules is a seam the next change must
    # know about: these four, and no other, cross a module boundary
    shared = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "mrcodes"):
                shared.update(alias.name for alias in node.names if alias.name.startswith("_"))
    assert shared == {"_check_int", "_identity_subsets", "_alon_digits", "_choose_set"}
