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
from typing import Iterator, Optional, Sequence, TextIO

from .codespec import load_code, save_code
from .errors import (Inconsistent, MrCodesError, MultipleErasuresInGroup,
                     NotCorrectable, ParseError)
from .mrcode import MrCode, decode, encode, local_repair, verify_mr
from .pipeline import construct, scaling_table, simulate

_TOKEN = re.compile(r"\S+")


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
            try:
                value = int(tok)
            except ValueError:
                raise ParseError(f"not an integer: {tok!r}", line, col) from None
            if not 0 <= value < q:
                raise ParseError(f"symbol {value} outside [0, {q})", line, col)
            block.append(value)
        if len(block) == size:
            yield block
            block = []
    if block:
        raise ParseError(f"incomplete final block: got {len(block)} of {size} symbols",
                         *last_pos)


def _apply_erasures(block: list, erasures: Sequence[int], n: int) -> list:
    for idx in erasures:
        if not 0 <= idx < n:
            raise ParseError(f"--erasures: index {idx} outside [0, {n})")
        block[idx] = None
    return block


def encode_file(code: MrCode, instream: TextIO, outstream: TextIO) -> None:
    for block in _blocks(instream, code.k, code.field.q, allow_erasures=False):
        codeword = encode(code, block)
        outstream.write(" ".join(str(s.value) for s in codeword) + "\n")


def decode_file(code: MrCode, instream: TextIO, outstream: TextIO,
                erasures: Sequence[int] = ()) -> None:
    for index, block in enumerate(_blocks(instream, code.n, code.field.q,
                                          allow_erasures=True)):
        _apply_erasures(block, erasures, code.n)
        try:
            message = decode(code, block)
        except (NotCorrectable, Inconsistent) as exc:
            raise type(exc)(f"block {index}: {exc}") from None
        outstream.write(" ".join(str(s.value) for s in message) + "\n")


def repair_file(code: MrCode, instream: TextIO, outstream: TextIO,
                erasures: Sequence[int] = ()) -> None:
    """Fill erased positions by local repair only (one erasure per group)."""
    for index, block in enumerate(_blocks(instream, code.n, code.field.q,
                                          allow_erasures=True)):
        _apply_erasures(block, erasures, code.n)
        try:
            for pos, symbol in enumerate(block):
                if symbol is None:
                    block[pos] = local_repair(code, block, pos).value
        except MultipleErasuresInGroup as exc:
            raise MultipleErasuresInGroup(f"block {index}: {exc}") from None
        outstream.write(" ".join(str(s) for s in block) + "\n")


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
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--sampled", action="store_true")

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
        code, report = construct(args.r, args.q, target_n=args.target_n)
        save_code(code, args.out)
        print(f"wrote {args.out}: n={code.n} k={code.k} r={code.r} q={code.field.q}; "
              f"verification {report.mode}, {report.mds_subsets_checked} subsets",
              file=sys.stderr)
        return 0

    if args.command == "verify":
        code = load_code(args.spec)  # re-derives G and re-runs the family oracles
        mode = "exhaustive" if args.exhaustive else "sampled" if args.sampled else "auto"
        report = verify_mr(code, mode=mode)
        json.dump({"ok": report.ok, "mode": report.mode,
                   "mds_subsets_checked": report.mds_subsets_checked,
                   "deficient_subsets": report.deficient_subsets,
                   "violations": report.violations,
                   "local_distance_ok": report.local_distance_ok},
                  sys.stdout, indent=2)
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
