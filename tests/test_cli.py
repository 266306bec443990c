import argparse
import dataclasses
import io
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mrcodes.cli
import mrcodes.family
import mrcodes.mrcode
from mrcodes.cli import decode_file, encode_file, main, repair_file
from mrcodes.codespec import code_from_dict, code_to_dict, load_code, save_code
from mrcodes.errors import (BadParams, MultipleErasuresInGroup, NotCorrectable, ParseError,
                            PropertyViolation, TooLarge)
from mrcodes.family import FamilyParams, build_family
from mrcodes.field import make_field
from mrcodes.mrcode import build_code, verify_mr
from mrcodes.pipeline import choose_params, construct, exact_failure_probability, scaling_table
from mrcodes.progfree import ProgressionFreeSet
from reference import matrix, rank_scan

ROOT = Path(__file__).resolve().parents[1]
BENCH_SPEC = ROOT / "bench" / "data" / "r2_q1601.json"


def _hand_picked_code():
    """A code over GF(1601) with a D that construct never picks: its inputs
    pass every check, and only verify_mr proves it."""
    D = ProgressionFreeSet(2, (1, 2, 4, 5), "user_supplied")
    return build_code(make_field(1601), build_family(choose_params(2, 1601), D))


@pytest.fixture(scope="module")
def code6():
    return construct(2, 101)[0]


@pytest.fixture()
def spec_path(code6, tmp_path):
    path = tmp_path / "spec.json"
    save_code(code6, path)
    return path


class TestCodeSpec:
    def test_round_trip(self, code6):
        doc = code_to_dict(code6)
        rebuilt = code_from_dict(json.loads(json.dumps(doc)))
        assert [[e.value for e in row] for row in rebuilt.G] == \
               [[e.value for e in row] for row in code6.G]
        assert rebuilt.family.elements == code6.family.elements

    def test_save_load(self, code6, spec_path):
        loaded = load_code(spec_path)
        assert loaded.n == 6 and loaded.field.q == 101

    def test_tampered_G_rejected(self, code6):
        doc = code_to_dict(code6)
        doc["G"][0][0] = (doc["G"][0][0] + 1) % 101
        with pytest.raises(PropertyViolation):
            code_from_dict(doc)

    def test_schema_fields(self, code6):
        doc = code_to_dict(code6)
        assert doc["derived"] == {"n": 6, "k": 3, "h": 1}
        assert doc["lambda"] == {"num": 1, "den": 16}
        assert doc["rng"].startswith("mt19937")

    def test_fractions_past_2_to_53_are_strings(self):
        # only a hand-built FamilyParams reaches such ints; q, G and the rest
        # stay below 2^32 and are written as numbers
        lam, delta = Fraction(2**54 + 1, 2**58), Fraction(2**54 + 1, 2**60)
        params = FamilyParams(N=1600, r=2, lam=lam, delta=delta)
        code = build_code(make_field(1601),
                          build_family(params, ProgressionFreeSet(2, (1, 2), "user_supplied")))
        doc = code_to_dict(code)
        assert doc["lambda"] == {"num": str(2**54 + 1), "den": str(2**58)}
        assert doc["delta"] == {"num": str(2**54 + 1), "den": str(2**60)}
        assert (doc["q"], doc["l"], doc["d"], doc["D"]) == (1601, 100, 25, [1, 2])
        assert code_from_dict(json.loads(json.dumps(doc))) == code


class TestStreams:
    def test_encode(self, code6):
        out = io.StringIO()
        encode_file(code6, io.StringIO("1 0 0\n"), out)
        assert out.getvalue() == "2 27 58 4 54 65\n"

    def test_decode_round_trip(self, code6):
        out = io.StringIO()
        decode_file(code6, io.StringIO("? ? 58 4 54 65\n"), out)
        assert out.getvalue() == "1 0 0\n"

    def test_decode_full_group_erased(self, code6):
        with pytest.raises(NotCorrectable, match="block 0"):
            decode_file(code6, io.StringIO("? ? ? 4 54 65\n"), io.StringIO())

    def test_decode_with_erasure_list(self, code6):
        out = io.StringIO()
        decode_file(code6, io.StringIO("2 27 58 4 54 65\n"), out, erasures=[0, 3])
        assert out.getvalue() == "1 0 0\n"

    def test_repair(self, code6):
        out = io.StringIO()
        repair_file(code6, io.StringIO("? 27 58 4 54 ?\n"), out)
        assert out.getvalue() == "2 27 58 4 54 65\n"

    def test_repair_two_in_group(self, code6):
        with pytest.raises(MultipleErasuresInGroup, match="block 0"):
            repair_file(code6, io.StringIO("? ? 58 4 54 65\n"), io.StringIO())

    def test_multiblock(self, code6):
        out = io.StringIO()
        encode_file(code6, io.StringIO("1 0 0\n0 0 1\n"), out)
        assert out.getvalue().splitlines() == ["2 27 58 4 54 65", "7 88 80 63 4 5"]

    @pytest.mark.parametrize("text,msg", [
        ("1 x 0", "not an integer"),
        ("1 1_0 0", "not an integer: '1_0'"),
        ("1 +1 0", r"not an integer: '\+1'"),
        ("1 \u0663 0", "not an integer: '\u0663'"),  # ARABIC-INDIC DIGIT THREE
        ("1 \uff11 0", "not an integer: '\uff11'"),  # FULLWIDTH DIGIT ONE
        ("1 101 0", "outside"),
        ("1 0", "incomplete final block"),
        ("? 0 0", "erasure mark"),
    ])
    def test_parse_errors(self, code6, text, msg):
        with pytest.raises(ParseError, match=msg):
            encode_file(code6, io.StringIO(text), io.StringIO())

    def test_parse_error_position(self, code6):
        with pytest.raises(ParseError) as err:
            encode_file(code6, io.StringIO("1 0 0\n1 abc 0\n"), io.StringIO())
        assert err.value.line == 2 and err.value.column == 3


class TestMain:
    def test_construct_and_verify(self, tmp_path, capsys):
        out = tmp_path / "spec.json"
        assert main(["construct", "--r", "2", "--q", "101", "--out", str(out)]) == 0
        assert main(["verify", str(out), "--exhaustive"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["mode"] == "exhaustive"
        assert report["mds_subsets_checked"] == 20

    def test_verify_reports_a_failing_code(self, spec_path, capsys, off_group_subset):
        # a report with a violation goes to stdout with "ok": false, and the
        # exit code is 1: only the kernel's audit can find one
        assert main(["verify", str(spec_path), "--exhaustive"]) == 1
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["ok"], report["mode"], err) == (False, "exhaustive", "")
        assert report["violations"] == [[list(off_group_subset), 2, 3]]

    def test_verify_past_the_kernel_guard(self, tmp_path, capsys):
        # n = 60 at r = 14: auto certifies by the family lemma, --exhaustive
        # passes on the kernel's refusal, and there is no sampled mode
        out = tmp_path / "r14.json"
        assert main(["construct", "--r", "14", "--q", "4294967291", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["mode"] == "certificate"
        assert report["mds_subsets_checked"] == math.comb(60, 15)
        assert main(["verify", str(out), "--exhaustive"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: the lookup kernel's cost for n=60, r=14 ")
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(out), "--sampled"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("r,q,checked", [
        (2, 101, "n=6 k=3 r=2 q=101; verification certificate, the transversals"),
        (14, 4294967291, "n=60 k=15 r=14 q=4294967291; verification certificate, "
                         "the transversals"),
    ], ids=["exhaustive", "certificate"])
    def test_construct_says_what_it_checked(self, tmp_path, capsys, r, q, checked):
        # construct certifies on both sides of the kernel's guard, and a
        # certificate enumerates no subsets, so its line counts none
        out = tmp_path / "code.json"
        assert main(["construct", "--r", str(r), "--q", str(q), "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", f"wrote {out}: {checked}\n")

    def test_encode_decode_pipe(self, spec_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 0 0\n"))
        assert main(["encode", "--spec", str(spec_path)]) == 0
        codeword = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(codeword))
        assert main(["decode", "--spec", str(spec_path), "--erasures", "1,4"]) == 0
        assert capsys.readouterr().out == "1 0 0\n"

    def test_decode_failure_exit_code(self, spec_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("? ? ? 4 54 65\n"))
        assert main(["decode", "--spec", str(spec_path)]) == 1
        assert "block 0" in capsys.readouterr().err

    def test_parse_error_exit_code(self, spec_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 nope 0\n"))
        assert main(["encode", "--spec", str(spec_path)]) == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--r", "2"])  # missing --q/--out
        assert exc.value.code == 2

    def test_simulate(self, spec_path, capsys):
        assert main(["simulate", "--spec", str(spec_path), "--p", "0.1",
                     "--trials", "200", "--seed", "7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 200 and report["seed"] == 7
        c = report["counts"]
        assert (c["intact"] + c["local_only"] + c["global_decodes"]
                + c["failures"]) == 200

    def test_scaling(self, capsys):
        assert main(["scaling", "--r", "2", "--q-list", "101,211"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["q"] for row in rows] == [101, 211]


class TestFlagErrors:
    @pytest.mark.parametrize("command", ["decode", "repair"])
    @pytest.mark.parametrize("flag,msg", [
        ("99", "--erasures: index 99 outside [0, 6)"),
        ("1,x", "--erasures: not a comma-separated integer list: '1,x'"),
        ("+1", "--erasures: not a comma-separated integer list: '+1'"),
        ("1_0", "--erasures: not a comma-separated integer list: '1_0'"),
    ])
    def test_erasures(self, spec_path, capsys, monkeypatch, command, flag, msg):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 27 58 4 54 65\n"))
        assert main([command, "--spec", str(spec_path), "--erasures", flag]) == 2
        assert capsys.readouterr().err == f"error: {msg}\n"

    @pytest.mark.parametrize("command", ["decode", "repair"])
    def test_erasures_checked_on_an_empty_stream(self, spec_path, capsys, monkeypatch, command):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main([command, "--spec", str(spec_path), "--erasures", "9"]) == 2
        assert capsys.readouterr() == ("", "error: --erasures: index 9 outside [0, 6)\n")

    def test_erasures_error_has_no_position(self, code6):
        with pytest.raises(ParseError, match="^--erasures: index 6 ") as err:
            decode_file(code6, io.StringIO("2 27 58 4 54 65\n"), io.StringIO(),
                        erasures=[6])
        assert err.value.line is None and err.value.column is None

    def test_q_list(self, capsys):
        for q_list in ("101,x", "+101", "1_01"):
            assert main(["scaling", "--r", "2", "--q-list", q_list]) == 2
            assert capsys.readouterr().err == (f"error: --q-list: not a comma-separated "
                                               f"integer list: {q_list!r}\n")

    @pytest.mark.parametrize("value", ["+2", "1_01", "\u0663", "\uff11"],
                             ids=["plus", "underscore", "arabic-indic", "fullwidth"])
    @pytest.mark.parametrize("command,flag", [
        ("construct", "--r"), ("construct", "--q"), ("construct", "--target-n"),
        ("scaling", "--r"), ("simulate", "--trials"), ("simulate", "--seed"),
    ])
    def test_integer_flags(self, spec_path, tmp_path, capsys, command, flag, value):
        # an integer flag is an _INT too, though Python's int() reads each of
        # these values: argparse's usage error, exit 2, and nothing run
        args = {"construct": {"--r": "2", "--q": "101", "--out": str(tmp_path / "x.json")},
                "scaling": {"--r": "2", "--q-list": "101"},
                "simulate": {"--spec": str(spec_path), "--p": "0.1", "--trials": "10"}}[command]
        argv = [command, *(item for key, text in (args | {flag: value}).items()
                           for item in (key, text))]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mrcodes ") and err.endswith(
            f"error: argument {flag}: not an integer: {value!r}\n")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("value", ["1_0e-1", "\u0660.1", "+0.1", "nan", "inf", "0.1 ",
                                       "0x1p-3", "1e", ".", "1e400", "9" * 400],
                             ids=["underscore", "arabic-indic", "plus", "nan", "inf", "space",
                                  "hex", "no-exponent", "no-digits", "overflow",
                                  "long-overflow"])
    def test_p_flag(self, spec_path, capsys, value):
        # --p is a finite ASCII decimal (_FLOAT), though Python's float()
        # reads the first six values and the last two (as inf):
        # argparse's usage error, exit 2, and nothing run (nan and inf no
        # longer reach simulate's range check)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--spec", str(spec_path), "--p", value, "--trials", "10"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: mrcodes ") and err.endswith(
            f"error: argument --p: not a finite decimal number: {value!r}\n")

    @pytest.mark.parametrize("p", [0.0, 1e-05, 0.1, 1.0, 5e-324, 0.30000000000000004])
    def test_p_flag_takes_each_float_repr(self, spec_path, capsys, p):
        assert main(["simulate", "--spec", str(spec_path), "--p", repr(p),
                     "--trials", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == p

    def test_p_syntax_covers_every_finite_float_repr(self):
        # random bit patterns reach every exponent, both signs and subnormals
        rng = random.Random(1)
        values = [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
                  for _ in range(2000)]
        for x in [v for v in values if math.isfinite(v)] + [-0.0, 1e16, 1e22, 2.0**-1074]:
            assert repr(mrcodes.cli._float(repr(x))) == repr(x)


class _ClosedPipe(io.StringIO):
    """A stdout whose reader is gone: write, or flush, raises BrokenPipeError."""

    def __init__(self, method):
        super().__init__()
        setattr(self, method, self._broken)

    def _broken(self, *args):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedStdout:
    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_one_error_line(self, capsys, monkeypatch, method):
        # an unbuffered stdout fails at a write, a buffered one at main's flush
        monkeypatch.setattr("sys.stdout", _ClosedPipe(method))
        assert main(["scaling", "--r", "2", "--q-list", "101,211"]) == 1
        assert capsys.readouterr().err == "error: stdout closed before all output was written\n"

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_no_traceback_at_exit(self, unbuffered):
        # the pipe's read end is closed before the process starts, so its
        # first write (unbuffered) or the flush before exit (buffered) fails;
        # the interpreter's own final flush then finds fd 1 on devnull
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED=unbuffered)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "mrcodes.cli", "scaling", "--r", "2", "--q-list", "101"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (
            1, "error: stdout closed before all output was written\n")


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


@pytest.mark.parametrize("mangle", [
    lambda doc: _without(doc, "lambda"),
    lambda doc: _without(doc, "G"),
    lambda doc: doc | {"r": "2"},
    lambda doc: doc | {"r": True},
    lambda doc: doc | {"r": None},
    lambda doc: doc | {"G": 5},
    lambda doc: doc | {"G": [1, 2, 3]},
    lambda doc: doc | {"G": "abc"},
    lambda doc: doc | {"lambda": [1, 16]},
    lambda doc: doc | {"delta": {"num": 1, "den": 0}},
    lambda doc: doc | {"D": []},
    lambda doc: doc | {"exponents": None},
    lambda doc: [doc],
    lambda doc: doc | {"D_method": "bogus"},
    lambda doc: doc | {"D_method": 7},
    lambda doc: doc | {"D_alon_meta": {"h": 4, "t": 1, "B": 1, "size_bound": 0.5}},
    lambda doc: doc | {"q": math.inf},
    lambda doc: doc | {"q": -math.inf},
    lambda doc: doc | {"D": [1, math.inf]},
    lambda doc: doc | {"D": [1.0, 2.0]},
    lambda doc: doc | {"lambda": {"num": math.inf, "den": 16}},
    lambda doc: doc | {"delta": {"num": 1, "den": -math.inf}},
], ids=["no-lambda", "no-G", "r-str", "r-bool", "r-null", "G-int", "G-flat", "G-str",
        "lambda-list", "delta-den-0", "D-empty", "exponents-null", "not-object",
        "D-method-bogus", "D-method-int", "alon-meta-on-exhaustive-set", "q-inf",
        "q-neg-inf", "D-inf", "D-float", "lambda-num-inf", "delta-den-neg-inf"])
def test_malformed_spec_is_typed_error(code6, tmp_path, capsys, mangle):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mangle(code_to_dict(code6))))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_code_past_the_length_bound_is_too_large(tmp_path, capsys):
    # q = 1000000007 gives n = 1008: a size limit, not a disagreement
    message = "n=1008 exceeds the desk-scale bound 1000"
    with pytest.raises(TooLarge, match=message):
        construct(2, 1000000007)
    assert main(["construct", "--r", "2", "--q", "1000000007",
                 "--out", str(tmp_path / "spec.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_oversized_D_is_refused_before_the_set_oracle(code6, tmp_path, capsys, monkeypatch):
    # a spec hand-edited to hold 400 elements in D (n = 1200): build_family
    # refuses the length before the oracle's |D|^r enumeration, from the
    # library and from the command line alike
    calls = []
    real = mrcodes.family.verify_progression_free
    monkeypatch.setattr(mrcodes.family, "verify_progression_free",
                        lambda *args: calls.append(args) or real(*args))
    message = "n=1200 exceeds the desk-scale bound 1000"
    doc = code_to_dict(code6) | {"D": list(range(1, 401))}
    with pytest.raises(TooLarge, match=f"^{message}$"):
        build_family(code6.family.params, ProgressionFreeSet(2, tuple(doc["D"]), "user_supplied"))
    with pytest.raises(TooLarge, match=f"^{message}$"):
        code_from_dict(doc)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


@pytest.mark.parametrize("D", [(1, 1), (2, 1)], ids=["repeated", "unsorted"])
def test_D_not_strictly_increasing_is_refused_before_the_set_oracle(code6, tmp_path, capsys,
                                                                    monkeypatch, D):
    # both lie in [1, d = 2]: (1, 1) would repeat every exponent, and
    # (2, 1) would list its transversals out of order
    calls = []
    monkeypatch.setattr(mrcodes.family, "verify_progression_free",
                        lambda *args: calls.append(args))
    message = f"D={D} is not strictly increasing"
    with pytest.raises(BadParams, match=f"^{re.escape(message)}$"):
        build_family(code6.family.params, ProgressionFreeSet(2, D, "user_supplied"))
    path = tmp_path / "unsorted.json"
    path.write_text(json.dumps(code_to_dict(code6) | {"D": list(D)}))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


@pytest.mark.parametrize("q,edit,key", [
    (500009, lambda D: dataclasses.replace(D, alon_meta=dataclasses.replace(
        D.alon_meta, h=99, B=7, size_bound=123.0)), "D_alon_meta"),
    (500009, lambda D: dataclasses.replace(D, alon_meta=None), "D_alon_meta"),
    (500009, lambda D: dataclasses.replace(D, elements=D.elements[1:]), "D"),
    (101, lambda D: dataclasses.replace(D, method="alon"), "D_alon_meta"),
    (53, lambda D: dataclasses.replace(D, method="alon"), "D_alon_meta"),
], ids=["meta-edited", "meta-missing", "D-not-a-prefix", "digit-0-only", "d-1"])
def test_digit_set_spec_is_rederived(tmp_path, capsys, q, edit, key):
    # a code built on the edited set passes build_family and build_code, and
    # its spec agrees with itself key for key; only re-deriving the digit
    # set refuses it, in save_code before the file is opened and in the
    # reader (d = 2 at q = 101 leaves the digit construction only the digit
    # 0, and it refuses d = 1 at q = 53)
    code = construct(2, q)[0]
    edited = build_code(code.field, build_family(code.family.params, edit(code.family.D)))
    path = tmp_path / "digits.json"
    path.write_text("kept")
    with pytest.raises(PropertyViolation, match=f"^spec key {key!r} "):
        save_code(edited, path)
    assert path.read_text() == "kept"
    path.write_text(json.dumps(code_to_dict(edited)))
    with pytest.raises(PropertyViolation, match=f"^spec key {key!r} "):
        load_code(path)
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: spec key {key!r} ")


@pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
def test_unreadable_spec_is_typed_error(tmp_path, capsys, name):
    assert main(["verify", str(tmp_path / name)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: spec ") and "Traceback" not in err


def test_spec_not_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: spec ")


@pytest.mark.parametrize("argv", [
    ["construct", "--r", "1", "--q", "101", "--out", "{tmp}/x.json"],
    ["scaling", "--r", "1", "--q-list", "101"],
    ["scaling", "--r", "1", "--q-list", ","],
    ["construct", "--r", "2", "--q", "101", "--target-n", "5", "--out", "{tmp}/x.json"],
    ["construct", "--r", "2", "--q", "101", "--target-n", "0", "--out", "{tmp}/x.json"],
    ["construct", "--r", "2", "--q", "101", "--target-n", "-3", "--out", "{tmp}/x.json"],
    ["simulate", "--spec", "{spec}", "--p", "1.5", "--trials", "10"],
    ["simulate", "--spec", "{spec}", "--p", "0.1", "--trials", "-3"],
    ["construct", "--r", "2", "--q", "101", "--out", "{tmp}/missing/dir/x.json"],
], ids=["construct-r1", "scaling-r1", "scaling-r1-no-q", "target-n-5", "target-n-0", "target-n-neg",
        "p-1.5", "trials-neg", "out-missing-dir"])
def test_out_of_range_parameters_are_typed_errors(spec_path, tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path, spec=spec_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("key,value", [
    ("N", 101),
    ("l", 7),
    ("d", 3),
    ("blocks", [[1, 2], [7, 8], [90, 92]]),
    ("transversals", [[2, 8, 90], [1, 7, 92]]),
    ("exponents", [7, 1, 92, 2, 8, 90]),
    ("G", [[3, 27, 58, 4, 54, 65], [4, 22, 31, 16, 88, 84], [7, 88, 80, 63, 4, 5]]),
    ("repair_groups", [[0, 1, 3], [2, 4, 5]]),
    ("derived", {"n": 6, "k": 3, "h": 2}),
    ("rng", "pcg64"),
    ("comment", "an extra key"),
    ("q", "101"),
    ("gamma", 3),
    ("q", 101.0),
    ("gamma", 2.0),
    ("N", 100.0),
    ("schema_version", True),
    ("lambda", {"num": 1.0, "den": 16}),
    ("lambda", {"num": True, "den": 16}),
    ("lambda", {"num": "1", "den": 16}),
    ("delta", {"num": 1, "den": 48.0}),
], ids=["N", "l", "d", "blocks", "transversals", "exponents", "G", "repair_groups",
        "derived", "rng", "extra-key", "q-str", "gamma", "q-float", "gamma-float",
        "N-float", "schema-version-bool", "lambda-num-float", "lambda-num-bool",
        "lambda-num-str", "delta-den-float"])
def test_spec_key_disagreeing_with_rebuilt_code(code6, tmp_path, capsys, key, value):
    # a value equal to the written one but of another JSON type (a float or
    # a bool for an int, at the top level or as a part of lambda or delta)
    # disagrees too: save_code never writes it
    doc = code_to_dict(code6)
    assert json.dumps(doc.get(key)) != json.dumps(value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc | {key: value}))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: spec keys {[key]!r} do not match the code "
                                       f"rebuilt from its inputs\n")


@pytest.mark.parametrize("source", ["bench", (2, 101), (3, 653), (2, 1601), (2, 500009),
                                    (2, 500009, 9), (4, 1283), (3, 5003)],
                         ids=["bench-r2-q1601", "r2-q101", "r3-q653", "r2-q1601",
                              "r2-q500009", "r2-q500009-trimmed", "r4-q1283", "r3-q5003"])
def test_spec_round_trip(source):
    if source == "bench":
        doc = json.loads(BENCH_SPEC.read_text())
        code = code_from_dict(doc)
    else:
        code = construct(*source)[0]
        doc = json.loads(json.dumps(code_to_dict(code)))
    assert code_to_dict(code_from_dict(doc)) == doc
    assert code_from_dict(code_to_dict(code)) == code


@pytest.mark.parametrize("target_n", [None, 15])
def test_digit_built_code_saves_and_loads(tmp_path, target_n):
    # save_code's digit-set check passes the sets construct builds, trimmed or not
    code = construct(2, 500009, target_n=target_n)[0]
    assert code.family.D.method == "alon"
    path = tmp_path / "digits.json"
    save_code(code, path)
    assert load_code(path) == code


def test_spec_with_another_primitive_gamma_is_refused(code6, tmp_path, capsys):
    # 3 is primitive mod 101 but make_field picks 2: a spec written for
    # gamma = 3, G included, is not the code its inputs rebuild
    doc = code_to_dict(code6)
    q, r = doc["q"], doc["r"]

    def generator(gamma):  # column (x, ..., x^r, x^(r+1) + (-1)^(r+1)), x = gamma^a
        rows = [[pow(gamma, (i + 1) * a, q) for a in doc["exponents"]] for i in range(r + 1)]
        return rows[:r] + [[(x + (-1) ** (r + 1)) % q for x in rows[r]]]

    assert doc["gamma"] == 2 and generator(2) == doc["G"] != generator(3)
    doc["gamma"], doc["G"] = 3, generator(3)
    path = tmp_path / "gamma3.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'gamma'" in err


def test_spec_with_bad_params_keeps_its_message(code6, tmp_path, capsys):
    # BadParams is also a ValueError; loading must not re-wrap it as a
    # malformed-spec Mismatch
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(code_to_dict(code6) | {"r": 1}))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == "error: r must be >= 2\n"


@pytest.mark.parametrize("D,line", [
    ([], "error: D=() is not a nonempty subset of [1, d=2]\n"),
    ([0, 1], "error: D=(0, 1) is not a nonempty subset of [1, d=2]\n"),
    ([1, 5], "error: D=(1, 5) is not a nonempty subset of [1, d=2]\n"),
], ids=["empty", "zero", "past-d"])
def test_spec_D_outside_1_to_d_is_named(code6, tmp_path, capsys, D, line):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(code_to_dict(code6) | {"D": D}))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("mode", ["exhaustive"])
@pytest.mark.parametrize("spec", ["bench-r2-q1601", "r3-q653", "hand-picked-D"])
def test_verify_output_matches_rank_scan(tmp_path, capsys, spec, mode):
    if spec == "bench-r2-q1601":
        path = BENCH_SPEC
    else:
        path = tmp_path / "spec.json"
        save_code(construct(3, 653)[0] if spec == "r3-q653" else _hand_picked_code(), path)
    assert main(["verify", str(path), f"--{mode}"]) == 0
    code = load_code(path)
    report = rank_scan(matrix(code), code.repair_groups, code.field.q)
    expected = json.dumps({"ok": report.ok, "mode": report.mode,
                           "mds_subsets_checked": report.mds_subsets_checked,
                           "deficient_subsets": report.deficient_subsets,
                           "violations": report.violations,
                           "local_distance_ok": report.local_distance_ok}, indent=2)
    assert capsys.readouterr().out == expected + "\n"


def test_the_kernel_runs_once_per_proof(tmp_path, monkeypatch, capsys):
    # the lookup kernel runs once per exhaustive audit and nowhere else:
    # construct, with or without a target length, `mrcodes verify` and the
    # closed form certify by the family lemma, and building and loading
    # prove D with the set oracle only
    runs = []
    real = mrcodes.mrcode._identity_subsets
    monkeypatch.setattr(mrcodes.mrcode, "_identity_subsets",
                        lambda *args: runs.append(1) or real(*args))

    def kernel_runs(call):
        runs.clear()
        call()
        return len(runs)

    code = construct(2, 1601)[0]
    path = tmp_path / "spec.json"
    save_code(code, path)
    assert kernel_runs(lambda: construct(2, 1601)) == 0
    assert kernel_runs(lambda: build_family(code.family.params, code.family.D)) == 0
    assert kernel_runs(lambda: construct(2, 1601, target_n=15)) == 0
    assert kernel_runs(lambda: code_from_dict(code_to_dict(code))) == 0
    assert kernel_runs(lambda: load_code(path)) == 0
    assert kernel_runs(lambda: verify_mr(code)) == 0
    assert kernel_runs(lambda: exact_failure_probability(code, 0.1)) == 0
    assert kernel_runs(lambda: scaling_table(2, [101, 1601])) == 0
    assert kernel_runs(lambda: main(["verify", str(path)])) == 0
    assert kernel_runs(lambda: verify_mr(code, mode="exhaustive")) == 1
    assert kernel_runs(lambda: main(["verify", str(path), "--exhaustive"])) == 1
    capsys.readouterr()


def test_unhandled_command_is_parse_error(monkeypatch, capsys):
    parser = argparse.ArgumentParser()
    parser.set_defaults(command="bogus")
    monkeypatch.setattr(mrcodes.cli, "_build_parser", lambda: parser)
    assert main([]) == 2
    assert capsys.readouterr().err == "error: unhandled command 'bogus'\n"
