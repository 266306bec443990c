"""Rules every module of the library keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import pytest

import mrcodes
from mrcodes.field import FieldElement

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
    # know about: these two, and no other, cross a module boundary
    shared = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "mrcodes"):
                shared.update(alias.name for alias in node.names if alias.name.startswith("_"))
    assert shared == {"_check_int", "_choose_set"}


def _callers(node: ast.AST, name: str, scope: tuple = ()):
    """The qualified scope of each call of name (bare or as an attribute) under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                yield ".".join(scope)
        inner = (scope + (child.name,)
                 if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope)
        yield from _callers(child, name, inner)


def test_the_set_oracle_runs_only_where_a_family_is_made():
    # a set is proved when a family is made from it: the set constructors,
    # the certificate and the spec reader leave the oracle to the family
    callers = [(path.name, scope) for path in sorted(SRC.glob("*.py"))
               for scope in _callers(ast.parse(path.read_text(), filename=str(path)),
                                     "verify_progression_free")]
    assert callers == [("family.py", "ZeroSumFamily.__post_init__")]


_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
           "lshift", "rshift", "and", "xor", "or")
ARITHMETIC = ({f"__{side}{op}__" for op in _BINARY for side in ("", "r", "i")}
              | {"__neg__", "__pos__", "__abs__", "__invert__"})


def test_field_elements_keep_only_the_decoders_arithmetic():
    # the codec and the tests' references (tests/reference.py) compute on
    # ints mod q: only mrcode._row_reduce runs element arithmetic, x * y,
    # x - y and x.inv(), so outside src/ only tests/test_field.py does, and
    # ROADMAP direction 2 removes those too.  A new operator needs a caller
    # in src/ first
    defined = set(vars(FieldElement))
    assert defined & ARITHMETIC == {"__mul__", "__sub__"}
    assert "inv" in defined


def test_the_references_read_only_public_data():
    # the tests' oracles share no algorithm with the library: they import no
    # private name of mrcodes, read no private attribute (such as
    # code._rows) and run no element arithmetic (inv, one, zero)
    found = []
    tree = ast.parse(Path(__file__).with_name("reference.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mrcodes"):
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and (node.attr.startswith("_")
                                                  or node.attr in ("inv", "one", "zero")):
            found.append("." + node.attr)
    assert found == []
