"""Property over the whole public API: every name in mrcodes.__all__, and
every public method and operator of Field, FieldElement and
ProgressionFreeSet (called directly, dunders included), has a valid base
call on the (2, 101) code, and with any one of its parameters replaced by a
value of the wrong type (bool, float, NaN, str, bytes, None, list, dict, an
element of another field) the call raises only MrCodesError subclasses.
Accepting the value is allowed: the report records take anything, and an
operator may return NotImplemented, so that Python tries the other operand;
a TypeError raised inside it is an escape.  A name or method with no base
call fails the sweep, so new API is covered from its first release.  No
large int is substituted where an int means work.  A path parameter skips
True, which open() would take as a file descriptor:
test_a_descriptor_is_not_a_spec_path runs that case in a child process,
whose stdout the call would close."""

import inspect
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import mrcodes
from mrcodes import (Field, FieldElement, ProgressionFreeSet, alon_construct, code_to_dict,
                     construct, make_field)
from mrcodes.errors import MrCodesError

ROOT = Path(__file__).resolve().parents[1]
WRONG = [True, 1.5, math.nan, "x", b"x", None, [1], {"a": 1}, make_field(13).element(7)]


def _base_calls(spec_path: Path) -> dict[str, dict]:
    """Keyword arguments of a valid call for each public name."""
    code = construct(2, 101)[0]
    family = code.family
    codeword = [s.value for s in mrcodes.encode(code, [1, 2, 3])]
    mrcodes.save_code(code, spec_path)
    return {
        "AlonMeta": asdict(alon_construct(1000, 2).alon_meta),
        "FamilyParams": dict(N=family.params.N, r=2, lam=family.params.lam,
                             delta=family.params.delta),
        "Field": dict(q=101),
        "FieldElement": dict(value=7, field=code.field),
        "MrCode": dict(field=code.field, family=family),
        "MrReport": dict(mode="exhaustive"),
        "ProgressionFreeSet": dict(r=2, elements=family.D.elements, method=family.D.method),
        "SimReport": dict(trials=0, p=0.1, seed=0),
        "ZeroSumFamily": dict(params=family.params, D=family.D),
        "alon_construct": dict(m=1000, r=2),
        "build_code": dict(field=code.field, family=family),
        "build_family": dict(params=family.params, D=family.D),
        "choose_params": dict(r=2, q=101),
        "code_from_dict": dict(doc=code_to_dict(code)),
        "code_to_dict": dict(code=code),
        "construct": dict(r=2, q=101),
        "decode": dict(code=code, received=[None] + codeword[1:]),
        "encode": dict(code=code, message=[1, 2, 3]),
        "exact_failure_probability": dict(code=code, p=0.1),
        "exhaustive_best": dict(m=5, r=2),
        "is_correctable": dict(code=code, erased=[0]),
        "load_code": dict(path=spec_path),
        "local_repair": dict(code=code, received=[None] + codeword[1:], erased_index=0),
        "make_field": dict(q=101),
        "save_code": dict(code=code, path=spec_path),
        "scaling_table": dict(r=2, q_list=[101]),
        "simulate": dict(code=code, p=0.1, trials=10, seed=0),
        "verify_mr": dict(code=code, mode="auto"),
        "verify_progression_free": dict(candidate=(1, 2), r=2),
    }


def _escapes(name, func, base) -> list:
    """The (name, parameter, value, exception) of each wrong-typed call that
    raises something other than an MrCodesError."""
    func(**base)  # the base call is valid
    escapes = []
    for param in inspect.signature(func).parameters:
        for value in WRONG:
            if param == "path" and value is True:
                continue
            try:
                func(**{**base, param: value})
            except MrCodesError:
                pass
            except Exception as exc:  # the escape is the finding
                escapes.append((name, param, value, type(exc).__name__))
    return escapes


def test_wrong_typed_arguments_raise_only_typed_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a str or bytes path writes a file here
    spec_path = tmp_path / "spec.json"
    table = _base_calls(spec_path)
    assert sorted(set(mrcodes.__all__) - table.keys()) == []
    escapes = []
    for name in mrcodes.__all__:
        escapes += _escapes(name, getattr(mrcodes, name), table[name])
    assert escapes == []


_FIELD = make_field(101)
_SET = ProgressionFreeSet(2, (1, 2), "exhaustive")
# an instance of each class, and the keyword arguments of a valid call for
# each of its methods; making, freezing and private helpers are left out
_MACHINERY = {"__init__", "__post_init__", "__setattr__", "__delattr__"}
_METHODS = {
    Field: (_FIELD, {"element": dict(value=7), "__eq__": dict(other=_FIELD),
                     "__hash__": {}, "__repr__": {}}),
    FieldElement: (_FIELD.element(7), {
        **{op: dict(other=3) for op in ("__add__", "__radd__", "__sub__", "__rsub__",
                                        "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                                        "__eq__")},
        "__pow__": dict(e=2), "__neg__": {}, "inv": {}, "__bool__": {}, "__hash__": {},
        "__repr__": {}}),
    ProgressionFreeSet: (_SET, {"__eq__": dict(other=_SET), "__len__": {}, "__iter__": {},
                                "__hash__": {}, "__repr__": {}}),
}


@pytest.mark.parametrize("cls", list(_METHODS), ids=lambda cls: cls.__name__)
def test_methods_and_operators_raise_only_typed_errors(cls):
    instance, table = _METHODS[cls]
    methods = {name for name, value in vars(cls).items()
               if callable(value) and name not in _MACHINERY
               and (name.startswith("__") or not name.startswith("_"))}
    assert methods == table.keys()
    escapes = []
    for name, base in table.items():
        escapes += _escapes(name, getattr(instance, name), base)
    assert escapes == []


def test_a_descriptor_is_not_a_spec_path():
    # open() takes an int (or bool) as a file descriptor: save_code(code, True)
    # would write into fd 1 and close it, and load_code(True) would close it
    script = """
import os
from mrcodes import construct, load_code, save_code
from mrcodes.errors import BadParams
code = construct(2, 101)[0]
for call in (lambda: save_code(code, True), lambda: save_code(code, 1),
             lambda: load_code(True), lambda: load_code(1)):
    try:
        call()
    except BadParams:
        pass
    else:
        raise SystemExit("a descriptor was taken as a spec path")
os.fstat(1)
print("fd 1 open")
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "fd 1 open\n", "")
