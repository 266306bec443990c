"""Property: whatever the flags, symbol stream or spec file, `main` returns
0, 1 or 2 (or argparse exits with code 2), no other exception escapes, and
every nonzero return prints a line starting with `error:` to stderr."""

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from mrcodes.cli import main
from mrcodes.codespec import code_to_dict
from mrcodes.pipeline import construct

_Q = [-7, 0, 1, 2, 3, 4, 13, 97, 100, 101, 211, 401, 1000, 1601, 9973, 10000]
_FUZZ = settings(deadline=None, max_examples=150, derandomize=True)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    doc = code_to_dict(construct(2, 101)[0])
    (path / "spec.json").write_text(json.dumps(doc))
    return path, doc


def _run(argv, stdin=""):
    """main(argv) with the given stdin; checks the property and returns the
    exit code."""
    err = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, (argv, exc.code)
        return 2
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert err.getvalue().startswith("error:"), (argv, err.getvalue())
    return code


_floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 0.5, 1.0]))


@st.composite
def _flag_commands(draw):
    r = str(draw(st.integers(-2, 6)))
    q = str(draw(st.sampled_from(_Q)))
    command = draw(st.sampled_from(["construct", "scaling", "simulate"]))
    if command == "construct":
        argv = ["construct", "--r", r, "--q", q]
        target_n = draw(st.none() | st.integers(-5, 40))
        if target_n is not None:
            argv += ["--target-n", str(target_n)]
        return argv + ["--out", draw(st.sampled_from(["out.json", "missing/out.json", "."]))]
    if command == "scaling":
        qs = draw(st.lists(st.sampled_from(_Q), max_size=3))
        return ["scaling", "--r", r, "--q-list", ",".join(map(str, qs))]
    return ["simulate", "--spec", "spec.json", "--p", repr(draw(_floats)),
            "--trials", str(draw(st.integers(-5, 40))), "--seed", str(draw(st.integers()))]


def _in(path, argv):
    """argv with the file names made relative to path."""
    names = {"out.json", "missing/out.json", "spec.json", "."}
    return [str(path / a) if a in names else a for a in argv]


@_FUZZ
@given(argv=_flag_commands())
def test_flags(workdir, argv):
    _run(_in(workdir[0], argv))


_tokens = st.one_of(st.sampled_from(["?", "x", "-1", "1e3", "0x1", "101", "3.0", "٣", ""]),
                    st.integers(-3, 130).map(str))
_erasures = st.one_of(st.none(),
                      st.lists(st.integers(-2, 8), max_size=4).map(lambda xs: ",".join(map(str, xs))),
                      st.text(alphabet="0123456789,- x", max_size=8))


@_FUZZ
@given(command=st.sampled_from(["encode", "decode", "repair"]),
       tokens=st.lists(_tokens, max_size=20),
       seps=st.lists(st.sampled_from([" ", "\n", "\t", "  "]), min_size=20, max_size=20),
       erasures=_erasures)
def test_symbol_streams(workdir, command, tokens, seps, erasures):
    argv = [command, "--spec", str(workdir[0] / "spec.json")]
    if erasures is not None and command != "encode":
        argv += ["--erasures", erasures]
    _run(argv, "".join(t + s for t, s in zip(tokens, seps)))


_values = st.sampled_from([None, True, False, -1, 0, 1, 2, 3, 101, 10**20, 1.5, math.nan,
                           "", "x", "101", "1e3", [], [0], [[1]], {}, {"num": 1},
                           {"num": 1, "den": 0}, {"num": 0, "den": 1}])


@_FUZZ
@given(data=st.data())
def test_spec_mutations(workdir, data):
    path, doc = workdir
    key = data.draw(st.sampled_from(sorted(doc)))
    mutated = dict(doc)
    if data.draw(st.booleans()):
        del mutated[key]
    else:
        mutated[key] = data.draw(_values)
    spec = path / "mutated.json"
    spec.write_text(json.dumps(mutated))
    _run(["verify", str(spec)])
    _run(["encode", "--spec", str(spec)], "1 2 3\n")
