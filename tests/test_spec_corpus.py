"""Stored specs written by an earlier version: each must keep loading.

tests/data/specs/good/ holds one spec per path code_from_dict takes, each
beside the `mrcodes verify` stdout it gave when written.  Under the lookup
kernel's guard that stdout is in mode "exhaustive": `mrcodes verify
--exhaustive` still gives it byte for byte, and `mrcodes verify` gives it
with that mode line reading "certificate", its only change.  refused/ holds
specs that must fail, each beside its error class and message prefix
("Class: prefix").  Files are added to the corpus, never rewritten: a
change that must rewrite one breaks the spec format.
"""

import json
from pathlib import Path

import pytest

import mrcodes.errors
from mrcodes.cli import main
from mrcodes.codespec import code_to_dict, load_code

SPECS = Path(__file__).resolve().parent / "data" / "specs"
GOOD = sorted((SPECS / "good").glob("*.json"))
REFUSED = sorted((SPECS / "refused").glob("*.json"))


def test_corpus_covers_each_set_path():
    methods = {json.loads(p.read_text())["D_method"] for p in GOOD}
    assert methods == {"exhaustive", "alon", "user_supplied"}
    modes = {json.loads(p.with_suffix(".verify.out").read_text())["mode"] for p in GOOD}
    assert modes == {"exhaustive", "certificate"}  # specs on both sides of the kernel's guard
    assert len(GOOD) >= 7 and len(REFUSED) >= 4


@pytest.mark.parametrize("path", GOOD, ids=lambda p: p.stem)
def test_stored_spec_loads_as_written(path, capsys):
    text = path.read_text()
    code = load_code(path)
    assert json.dumps(code_to_dict(code), indent=2) + "\n" == text
    stored = path.with_suffix(".verify.out").read_text()
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == stored.replace('"mode": "exhaustive"',
                                                     '"mode": "certificate"')
    if json.loads(stored)["mode"] == "exhaustive":  # under the kernel's guard
        assert stored.count('"mode": "exhaustive"') == 1
        assert main(["verify", str(path), "--exhaustive"]) == 0
        assert capsys.readouterr().out == stored


@pytest.mark.parametrize("path", REFUSED, ids=lambda p: p.stem)
def test_refused_spec_fails_with_its_stored_error(path, capsys):
    name, prefix = path.with_suffix(".error").read_text().rstrip("\n").split(": ", 1)
    with pytest.raises(getattr(mrcodes.errors, name)) as refused:
        load_code(path)
    assert type(refused.value).__name__ == name
    assert str(refused.value).startswith(prefix)
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {prefix}")
