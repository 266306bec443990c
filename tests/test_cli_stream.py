"""The stream commands against the tokenizer they replaced, and their use of
the public codec calls (which the benchmark's fault and tracing hooks wrap)."""

import io
import re
from typing import Iterator, Optional, Sequence, TextIO

import pytest
from hypothesis import given, settings, strategies as st

import mrcodes.cli
from mrcodes.cli import _check_erasures, decode_file, encode_file, repair_file
from mrcodes.errors import (Inconsistent, MrCodesError, MultipleErasuresInGroup,
                            NotCorrectable, ParseError)
from mrcodes.mrcode import MrCode, decode, encode, local_repair
from mrcodes.pipeline import construct

CODE = construct(2, 101)[0]  # n = 6, k = 3, groups (0, 1, 2) and (3, 4, 5)

# --- reference: the regex tokenizer and stream loops the CLI used before ---

_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"-?[0-9]+")  # an optional '-', then ASCII digits


def _tokens(stream: TextIO) -> Iterator[tuple[str, int, int]]:
    for line_no, line in enumerate(stream, start=1):
        for match in _TOKEN.finditer(line):
            yield match.group(), line_no, match.start() + 1


def _blocks(stream: TextIO, size: int, q: int, allow_erasures: bool):
    """Group the token stream into symbol blocks of the given size."""
    block: list[Optional[int]] = []
    last_pos = (1, 1)
    for tok, line, col in _tokens(stream):
        last_pos = (line, col)
        if tok == "?":
            if not allow_erasures:
                raise ParseError("erasure mark '?' not allowed here", line, col)
            block.append(None)
        else:
            if not _INT.fullmatch(tok):
                raise ParseError(f"not an integer: {tok!r}", line, col)
            value = int(tok)
            if not 0 <= value < q:
                raise ParseError(f"symbol {value} outside [0, {q})", line, col)
            block.append(value)
        if len(block) == size:
            yield block
            block = []
    if block:
        raise ParseError(f"incomplete final block: got {len(block)} of {size} symbols",
                         *last_pos)


def _reference_encode_file(code: MrCode, instream: TextIO, outstream: TextIO) -> None:
    for block in _blocks(instream, code.k, code.field.q, allow_erasures=False):
        codeword = encode(code, block)
        outstream.write(" ".join(str(s.value) for s in codeword) + "\n")


def _reference_decode_file(code: MrCode, instream: TextIO, outstream: TextIO,
                           erasures: Sequence[int] = ()) -> None:
    _check_erasures(erasures, code.n)
    for index, block in enumerate(_blocks(instream, code.n, code.field.q,
                                          allow_erasures=True)):
        for idx in erasures:
            block[idx] = None
        try:
            message = decode(code, block)
        except (NotCorrectable, Inconsistent) as exc:
            raise type(exc)(f"block {index}: {exc}") from None
        outstream.write(" ".join(str(s.value) for s in message) + "\n")


def _reference_repair_file(code: MrCode, instream: TextIO, outstream: TextIO,
                           erasures: Sequence[int] = ()) -> None:
    _check_erasures(erasures, code.n)
    for index, block in enumerate(_blocks(instream, code.n, code.field.q,
                                          allow_erasures=True)):
        for idx in erasures:
            block[idx] = None
        try:
            for pos, symbol in enumerate(block):
                if symbol is None:
                    block[pos] = local_repair(code, block, pos).value
        except MultipleErasuresInGroup as exc:
            raise MultipleErasuresInGroup(f"block {index}: {exc}") from None
        outstream.write(" ".join(str(s) for s in block) + "\n")


# --- differential test ---

_ODD = ["?", "+7", "1_0", "-1", "101", "-0", "x", "1e3", "0x1", "3.0", "٣", "?5", "12?"]
_SEPS = [" ", "  ", "\t", "\n", "\n\n", " \n", "\x1c", "\u3000", "\xa0", "\r", "\x0b"]


@st.composite
def _streams(draw):
    """Codewords written as tokens (so both 3- and 6-symbol blocks parse),
    with some tokens replaced by odd or other symbols, a trailing partial
    block and mixed whitespace, blank lines included."""
    tokens = []
    for message in draw(st.lists(st.lists(st.integers(0, 100), min_size=3, max_size=3),
                                 max_size=4)):
        tokens += [str(s.value) for s in encode(CODE, message)]
    for _ in range(draw(st.integers(0, 3))):
        if tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.sampled_from(_ODD) | st.integers(0, 100).map(str))
    tokens += draw(st.lists(st.sampled_from(["5", "?", "x", "100"]), max_size=2))
    seps = draw(st.lists(st.sampled_from(_SEPS), min_size=len(tokens) + 1,
                         max_size=len(tokens) + 1))
    return seps[0] + "".join(tok + sep for tok, sep in zip(tokens, seps[1:]))


def _outcome(fn, text, *args):
    """(stdout text, exception type, message, line, column) of one call."""
    out = io.StringIO()
    try:
        fn(CODE, io.StringIO(text), out, *args)
    except MrCodesError as exc:
        return (out.getvalue(), type(exc), str(exc),
                getattr(exc, "line", None), getattr(exc, "column", None))
    return out.getvalue(), None, None, None, None


@settings(deadline=None, max_examples=150, derandomize=True)
@given(text=_streams(),
       erasures=st.lists(st.integers(0, 6), max_size=3, unique=True))
def test_stream_commands_match_reference(text, erasures):
    assert _outcome(encode_file, text) == _outcome(_reference_encode_file, text)
    for new, old in ((decode_file, _reference_decode_file),
                     (repair_file, _reference_repair_file)):
        assert _outcome(new, text, erasures) == _outcome(old, text, erasures)


@pytest.mark.parametrize("text", [
    "1 2 3 4 x 5 6\n",          # a block written before the bad token
    "1 2\n\n 3 4 5\n6",         # blocks across lines, then a partial block
    "1 2 3\n4\n\n",             # partial block, trailing blank lines
    "1\x1c2\u30003 ?\n",   # Unicode whitespace; '?' refused by encode
    "1 2 3 4 5 101\n",          # q itself is out of range
    "? ? ? 1 2 3\n",            # decode: the survivors are one repair group
])
def test_stream_errors_match_reference(text):
    assert _outcome(encode_file, text) == _outcome(_reference_encode_file, text)
    assert _outcome(decode_file, text) == _outcome(_reference_decode_file, text)


# --- the CLI goes through the public codec calls ---

def test_one_public_call_per_block_and_erasure(monkeypatch):
    calls = {"encode": 0, "decode": 0, "local_repair": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(mrcodes.cli, name, counting(name, getattr(mrcodes.cli, name)))
    messages = [[1, 2, 3], [4, 5, 6], [0, 0, 100], [7, 8, 9]]
    codewords = [[s.value for s in encode(CODE, m)] for m in messages]
    encode_file(CODE, io.StringIO("\n".join(" ".join(map(str, m)) for m in messages)),
                io.StringIO())
    assert calls["encode"] == 4
    text = "\n".join(" ".join(map(str, c)) for c in codewords)
    decode_file(CODE, io.StringIO(text), io.StringIO(), erasures=[0, 1, 4])
    assert calls["decode"] == 4
    rows = [[str(s) for s in c] for c in codewords]
    rows[0][5] = "?"
    out = io.StringIO()
    repair_file(CODE, io.StringIO("\n".join(map(" ".join, rows))), out, erasures=[1])
    assert out.getvalue() == "".join(" ".join(map(str, c)) + "\n" for c in codewords)
    assert calls["local_repair"] == 4 + 1  # one per block, plus the '?'
