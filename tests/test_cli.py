import argparse
import io
import json
from pathlib import Path

import pytest

import mrcodes.cli
from mrcodes.cli import decode_file, encode_file, main, repair_file
from mrcodes.codespec import code_from_dict, code_to_dict, load_code, save_code
from mrcodes.errors import (MultipleErasuresInGroup, NotCorrectable, ParseError,
                            PropertyViolation)
from mrcodes.mrcode import _rank_scan
from mrcodes.pipeline import construct

BENCH_SPEC = Path(__file__).resolve().parents[1] / "bench" / "data" / "r2_q1601.json"


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
    ])
    def test_erasures(self, spec_path, capsys, monkeypatch, command, flag, msg):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 27 58 4 54 65\n"))
        assert main([command, "--spec", str(spec_path), "--erasures", flag]) == 2
        assert capsys.readouterr().err == f"error: {msg}\n"

    def test_erasures_error_has_no_position(self, code6):
        with pytest.raises(ParseError, match="^--erasures: index 6 ") as err:
            decode_file(code6, io.StringIO("2 27 58 4 54 65\n"), io.StringIO(),
                        erasures=[6])
        assert err.value.line is None and err.value.column is None

    def test_q_list(self, capsys):
        assert main(["scaling", "--r", "2", "--q-list", "101,x"]) == 2
        assert capsys.readouterr().err.startswith("error: --q-list: ")


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
], ids=["no-lambda", "no-G", "r-str", "r-bool", "r-null", "G-int", "G-flat", "G-str",
        "lambda-list", "delta-den-0", "D-empty", "exponents-null", "not-object"])
def test_malformed_spec_is_typed_error(code6, tmp_path, capsys, mangle):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mangle(code_to_dict(code6))))
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


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
    ["construct", "--r", "2", "--q", "101", "--target-n", "5", "--out", "{tmp}/x.json"],
    ["construct", "--r", "2", "--q", "101", "--target-n", "0", "--out", "{tmp}/x.json"],
    ["construct", "--r", "2", "--q", "101", "--target-n", "-3", "--out", "{tmp}/x.json"],
    ["simulate", "--spec", "{spec}", "--p", "1.5", "--trials", "10"],
    ["simulate", "--spec", "{spec}", "--p", "0.1", "--trials", "-3"],
    ["construct", "--r", "2", "--q", "101", "--out", "{tmp}/missing/dir/x.json"],
], ids=["construct-r1", "scaling-r1", "target-n-5", "target-n-0", "target-n-neg",
        "p-1.5", "trials-neg", "out-missing-dir"])
def test_out_of_range_parameters_are_typed_errors(spec_path, tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path, spec=spec_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_spec_with_bad_params_keeps_its_message(code6, tmp_path, capsys):
    # BadParams is also a ValueError; loading must not re-wrap it as a
    # malformed-spec Mismatch
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(code_to_dict(code6) | {"r": 1}))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err == "error: r must be >= 2\n"


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize("spec", ["bench-r2-q1601", "r3-q653"])
def test_verify_output_matches_rank_scan(tmp_path, capsys, spec, mode):
    if spec == "r3-q653":
        path = tmp_path / "spec.json"
        save_code(construct(3, 653)[0], path)
    else:
        path = BENCH_SPEC
    assert main(["verify", str(path), f"--{mode}"]) == 0
    report = _rank_scan(load_code(path), mode=mode)
    expected = json.dumps({"ok": report.ok, "mode": report.mode,
                           "mds_subsets_checked": report.mds_subsets_checked,
                           "deficient_subsets": report.deficient_subsets,
                           "violations": report.violations,
                           "local_distance_ok": report.local_distance_ok}, indent=2)
    assert capsys.readouterr().out == expected + "\n"


def test_unhandled_command_is_parse_error(monkeypatch, capsys):
    parser = argparse.ArgumentParser()
    parser.set_defaults(command="bogus")
    monkeypatch.setattr(mrcodes.cli, "_build_parser", lambda: parser)
    assert main([]) == 2
    assert capsys.readouterr().err == "error: unhandled command 'bogus'\n"
