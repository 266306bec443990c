"""Command-line interface.

Subcommands: construct, verify, encode, decode, repair, simulate, scaling.
Symbol streams are whitespace-separated decimal integers in [0, q), with
'?' marking an erased symbol; one block per encode/decode unit.  An integer,
in a stream, an integer flag, --erasures or --q-list, is an optional '-'
then ASCII digits (_INT): '+7', '1_0' and non-ASCII digits are refused.
--p is a finite ASCII decimal (_FLOAT): '1_0e-1', 'inf' and '1e400' are not.
Machine output goes to stdout, diagnostics to stderr.  Exit codes: 0 ok,
1 verification/decoding failure or a closed stdout, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from dataclasses import asdict
from typing import Callable, Iterator, Optional, Sequence, TextIO

from .codespec import load_code, save_code
from .errors import (Inconsistent, MrCodesError, MultipleErasuresInGroup,
                     NotCorrectable, ParseError)
from .mrcode import MrCode, decode, encode, local_repair, verify_mr
from .pipeline import construct, scaling_table, simulate

_TOKEN = re.compile(r"\S+")  # finds a bad token's column
_INT = re.compile(r"-?[0-9]+")
_FLOAT = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")  # any finite repr(float)
_DIGITS_LINE = re.compile(r"[0-9\s]*")  # a line of nonnegative _INT tokens only


def _checked(tokens: list[str], q: int, allow_erasures: bool) -> tuple[list, Optional[str]]:
    """The symbols before the first bad token, and what is wrong with it."""
    values: list[Optional[int]] = []
    for tok in tokens:
        if tok == "?":
            if not allow_erasures:
                return values, "erasure mark '?' not allowed here"
            value = None
        else:
            if not _INT.fullmatch(tok):
                return values, f"not an integer: {tok!r}"
            value = int(tok)
            if not 0 <= value < q:
                return values, f"symbol {value} outside [0, {q})"
        values.append(value)
    return values, None


def _blocks(stream: TextIO, size: int, q: int, allow_erasures: bool) -> Iterator[list]:
    """Group the symbols of stream (ints, None for '?') into blocks of size.

    Each line is split once (str.split breaks where the regex \\s matches)
    and its symbols checked once: all together when the line holds only
    ASCII digits and whitespace and its largest symbol is below q, else
    token by token (_checked).  A bad token raises ParseError at its line
    and column once the blocks before it are yielded; a partial final block
    raises at the last token.
    """
    block: list[Optional[int]] = []
    for line_no, line in enumerate(stream, start=1):
        tokens = line.split()
        if not tokens:
            continue
        last = line_no, line
        valid = False
        if _DIGITS_LINE.fullmatch(line):
            values = list(map(int, tokens))
            valid = max(values) < q
        message = None
        if not valid:
            values, message = _checked(tokens, q, allow_erasures)
        block += values
        while len(block) >= size:
            yield block[:size]
            del block[:size]
        if message:
            raise ParseError(message, line_no, [*_TOKEN.finditer(line)][len(values)].start() + 1)
    if block:
        raise ParseError(f"incomplete final block: got {len(block)} of {size} symbols",
                         last[0], [*_TOKEN.finditer(last[1])][-1].start() + 1)


def _check_erasures(erasures: Sequence[int], n: int) -> None:
    """ParseError unless every index is in [0, n): checked once, before any
    block is read, so an empty stream is refused too."""
    for idx in erasures:
        if not 0 <= idx < n:
            raise ParseError(f"--erasures: index {idx} outside [0, {n})")


def encode_file(code: MrCode, instream: TextIO, outstream: TextIO) -> None:
    for block in _blocks(instream, code.k, code.field.q, allow_erasures=False):
        outstream.write(" ".join([str(s.value) for s in encode(code, block)]) + "\n")


def _each_block(code: MrCode, instream: TextIO, outstream: TextIO, erasures: Sequence[int],
                solve: Callable[[list], list],
                prefixed: tuple[type[MrCodesError], ...]) -> None:
    """Write solve(block) for each n-symbol block, with the --erasures
    columns marked erased; an error of a prefixed class names its block."""
    _check_erasures(erasures, code.n)
    for index, block in enumerate(_blocks(instream, code.n, code.field.q,
                                          allow_erasures=True)):
        for idx in erasures:
            block[idx] = None
        try:
            symbols = solve(block)
        except prefixed as exc:
            raise type(exc)(f"block {index}: {exc}") from None
        outstream.write(" ".join(map(str, symbols)) + "\n")


def decode_file(code: MrCode, instream: TextIO, outstream: TextIO,
                erasures: Sequence[int] = ()) -> None:
    _each_block(code, instream, outstream, erasures,
                lambda block: [s.value for s in decode(code, block)],
                (NotCorrectable, Inconsistent))


def repair_file(code: MrCode, instream: TextIO, outstream: TextIO,
                erasures: Sequence[int] = ()) -> None:
    """Fill erased positions by local repair only (one erasure per group)."""
    def repaired(block: list) -> list:
        for pos in [j for j, s in enumerate(block) if s is None]:
            block[pos] = local_repair(code, block, pos).value
        return block

    _each_block(code, instream, outstream, erasures, repaired, (MultipleErasuresInGroup,))


def _int(text: str) -> int:
    """An integer flag's _INT value; argparse makes a refusal its usage error."""
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _float(text: str) -> float:
    """--p's finite _FLOAT value; argparse makes a refusal its usage error."""
    if not (_FLOAT.fullmatch(text) and math.isfinite(float(text))):
        raise argparse.ArgumentTypeError(f"not a finite decimal number: {text!r}")
    return float(text)


def _int_list(flag: str, text: Optional[str]) -> list[int]:
    """The comma-separated _INT integers of a flag's value, blanks skipped."""
    try:
        return [_int(t.strip()) for t in (text or "").split(",") if t.strip()]
    except argparse.ArgumentTypeError:
        raise ParseError(f"{flag}: not a comma-separated integer list: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mrcodes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code and write its JSON spec")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)
    p.add_argument("--target-n", type=_int, default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="re-verify a stored spec")
    p.add_argument("spec")
    p.add_argument("--exhaustive", action="store_true")

    for name in ("encode", "decode", "repair"):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True)
        if name != "encode":
            p.add_argument("--erasures", default=None,
                           help="comma-separated column indices erased in every block")

    p = sub.add_parser("simulate", help="Monte-Carlo erasure trials")
    p.add_argument("--spec", required=True)
    p.add_argument("--p", type=_float, required=True)
    p.add_argument("--trials", type=_int, required=True)
    p.add_argument("--seed", type=_int, default=0)

    p = sub.add_parser("scaling", help="field-size scaling table (indicative)")
    p.add_argument("--r", type=_int, required=True)
    p.add_argument("--q-list", required=True, help="comma-separated primes")

    return parser


def _run(args) -> int:
    if args.command == "construct":
        code, _ = construct(args.r, args.q, target_n=args.target_n)
        save_code(code, args.out)
        print(f"wrote {args.out}: n={code.n} k={code.k} r={code.r} q={code.field.q}; "
              "verification certificate, the transversals", file=sys.stderr)
    elif args.command == "verify":
        code = load_code(args.spec)  # proves D, so the certificate is exact
        report = verify_mr(code, mode="exhaustive" if args.exhaustive else "auto")
        print(json.dumps({"ok": report.ok} | asdict(report), indent=2))
        return 0 if report.ok else 1
    elif args.command == "encode":
        encode_file(load_code(args.spec), sys.stdin, sys.stdout)
    elif args.command in ("decode", "repair"):
        each_file = decode_file if args.command == "decode" else repair_file
        each_file(load_code(args.spec), sys.stdin, sys.stdout,
                  _int_list("--erasures", args.erasures))
    elif args.command == "simulate":
        report = simulate(load_code(args.spec), args.p, args.trials, args.seed)
        print(json.dumps(asdict(report) | {"failure_rate": report.failure_rate}, indent=2))
    elif args.command == "scaling":
        print(json.dumps(scaling_table(args.r, _int_list("--q-list", args.q_list)), indent=2))
    else:
        raise ParseError(f"unhandled command {args.command!r}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()  # a closed stdout raises here, not at the interpreter's exit
        return status
    except MrCodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 1
    except BrokenPipeError:
        # as Python's signal docs advise: fd 1 on devnull lets the final flush pass
        with contextlib.suppress(OSError):  # io.UnsupportedOperation: no fd
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before all output was written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
