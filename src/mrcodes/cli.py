"""Command-line interface.

Subcommands: construct, verify, encode, decode, repair, simulate, scaling.
Symbol streams are whitespace-separated decimal integers in [0, q), with
'?' marking an erased symbol; one block per encode/decode unit.  Machine
output goes to stdout, diagnostics to stderr.  Exit codes: 0 ok,
1 verification/decoding failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
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


def _checked(tokens: list[str], q: int, allow_erasures: bool) -> tuple[list, Optional[str]]:
    """The symbols before the first bad token, and what is wrong with it."""
    values: list[Optional[int]] = []
    for tok in tokens:
        if tok == "?":
            if not allow_erasures:
                return values, "erasure mark '?' not allowed here"
            value = None
        else:
            try:
                value = int(tok)
            except ValueError:
                return values, f"not an integer: {tok!r}"
            if not 0 <= value < q:
                return values, f"symbol {value} outside [0, {q})"
        values.append(value)
    return values, None


def _blocks(stream: TextIO, size: int, q: int, allow_erasures: bool) -> Iterator[list]:
    """Group the symbols of stream (ints, None for '?') into blocks of size.

    Each line is split once (str.split breaks where the regex \\s matches)
    and its symbols checked once: all together when the line holds only
    integers in range, else token by token (_checked).  A bad token raises
    ParseError at its line and column once the blocks before it are
    yielded; a partial final block raises at the last token.
    """
    block: list[Optional[int]] = []
    for line_no, line in enumerate(stream, start=1):
        tokens = line.split()
        if not tokens:
            continue
        last = line_no, line
        valid = False
        if "?" not in line:
            try:
                values = list(map(int, tokens))
                valid = 0 <= min(values) <= max(values) < q
            except ValueError:
                pass
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


def _parse_erasures(text: Optional[str]) -> list[int]:
    if not text:
        return []
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ParseError(f"--erasures: not a comma-separated integer list: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mrcodes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code and write its JSON spec")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--target-n", type=int, default=None)
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
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scaling", help="field-size scaling table (indicative)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q-list", required=True, help="comma-separated primes")

    return parser


def _run(args) -> int:
    if args.command == "construct":
        code, _ = construct(args.r, args.q, target_n=args.target_n)
        save_code(code, args.out)
        print(f"wrote {args.out}: n={code.n} k={code.k} r={code.r} q={code.field.q}; "
              "verification certificate, the transversals", file=sys.stderr)
        return 0

    if args.command == "verify":
        code = load_code(args.spec)  # proves D, so the certificate is exact
        report = verify_mr(code, mode="exhaustive" if args.exhaustive else "auto")
        json.dump({"ok": report.ok} | asdict(report), sys.stdout, indent=2)
        print()
        return 0 if report.ok else 1

    if args.command == "encode":
        encode_file(load_code(args.spec), sys.stdin, sys.stdout)
        return 0

    if args.command == "decode":
        decode_file(load_code(args.spec), sys.stdin, sys.stdout,
                    _parse_erasures(args.erasures))
        return 0

    if args.command == "repair":
        repair_file(load_code(args.spec), sys.stdin, sys.stdout,
                    _parse_erasures(args.erasures))
        return 0

    if args.command == "simulate":
        report = simulate(load_code(args.spec), args.p, args.trials, args.seed)
        json.dump(asdict(report) | {"failure_rate": report.failure_rate},
                  sys.stdout, indent=2)
        print()
        return 0

    if args.command == "scaling":
        try:
            q_list = [int(t) for t in args.q_list.split(",") if t.strip()]
        except ValueError:
            raise ParseError(f"--q-list: not a comma-separated integer list: "
                             f"{args.q_list!r}") from None
        json.dump(scaling_table(args.r, q_list), sys.stdout, indent=2)
        print()
        return 0

    raise ParseError(f"unhandled command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MrCodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
