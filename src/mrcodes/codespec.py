"""JSON persistence for a fully constructed code instance.

A spec's inputs are schema_version, q, r, lambda, delta, D, D_method and
D_alon_meta (digit-built D only); every other key, gamma among them (make_field
picks it), is derived data, stored so that files are human-diffable fixtures.
A spec is valid exactly when save_code would write it for the rebuilt code
and, when D_method is "alon", D is a prefix (construct's target_n trims D)
of the set alon_construct(d, r) builds and D_alon_meta is that set's;
save_code checks that rule too, so it writes no spec load_code refuses.  An
"exhaustive" label is not re-derived: the size sweep costs about 1 ms per
load in a fresh process (a repeat would hit a cache); the rest takes 0.2 ms.

A top-level key matches only when its value equals the rebuilt document's
and has its type, so "q": 101.0, "gamma": 2.0 and "schema_version": true
are refused; D's entries, and lambda's and delta's num and den, must have
their written types too.  Other nested values (G, blocks, derived, ...)
are compared by value only: a recursive type scan of them took load_code
of bench/data/r2_q1601.json (n = 30) from about 133 to 185 us (Python 3.11
on an Intel Xeon, medians of 300 loads).

Field refuses q > 2^32, so the only ints a spec can hold past 2^53 are the
numerators and denominators of lambda and delta in a hand-built
FamilyParams; those four are written as decimal strings when they pass it,
to keep the format safe for JSON readers with double-precision number
parsing.  Every other int is written as it is.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from fractions import Fraction

from .errors import BadParams, Mismatch, ParamsTooSmall, PropertyViolation
from .family import FamilyParams, build_family
from .field import make_field
from .mrcode import MrCode, build_code
from .progfree import AlonMeta, ProgressionFreeSet, alon_construct

SCHEMA_VERSION = 1

# simulate() seeds this generator; documented here so reports are
# reproducible across runs of the same implementation
RNG_NAME = "mt19937 (Python `random` module)"

_SAFE_INT = 1 << 53


def _enc(v: int):
    return str(v) if abs(v) > _SAFE_INT else v


def code_to_dict(code: MrCode) -> dict:
    if not isinstance(code, MrCode):
        raise BadParams(f"code={code!r} is not an MrCode")
    fam = code.family
    params = fam.params
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rng": RNG_NAME,
        "q": code.field.q,
        "gamma": code.field.gamma,
        "r": code.r,
        "N": code.field.N,
        "lambda": {"num": _enc(params.lam.numerator), "den": _enc(params.lam.denominator)},
        "delta": {"num": _enc(params.delta.numerator), "den": _enc(params.delta.denominator)},
        "l": params.l,
        "d": params.d,
        "D": list(fam.D.elements),
        "D_method": fam.D.method,
        "blocks": [list(b) for b in fam.blocks],
        "transversals": [list(t) for t in fam.transversals],
        "exponents": list(fam.elements),
        "G": [list(row) for row in code._rows],
        "repair_groups": [list(g) for g in code.repair_groups],
        "derived": {"n": code.n, "k": code.k, "h": code.h},
    }
    if fam.D.alon_meta is not None:
        doc["D_alon_meta"] = asdict(fam.D.alon_meta)
    return doc


def code_from_dict(doc: dict) -> MrCode:
    """Rebuild a code from its spec's inputs: Mismatch if one is missing or
    of the wrong type, PropertyViolation naming the keys where the spec is
    not the rebuilt code's document."""
    if not isinstance(doc, dict):
        raise Mismatch(f"spec is a {type(doc).__name__}, not a JSON object")
    try:
        return _code_from_doc(doc)
    except BadParams:
        raise  # already typed, though also a ValueError
    except (KeyError, IndexError, OverflowError, TypeError, ValueError,
            ZeroDivisionError) as exc:  # OverflowError: int() of an Infinity
        raise Mismatch(f"malformed spec: {type(exc).__name__}: {exc}") from None


def _code_from_doc(doc: dict) -> MrCode:
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise Mismatch(f"unsupported schema_version {doc.get('schema_version')}")
    r = doc["r"]
    field = make_field(int(doc["q"]))
    params = FamilyParams(
        N=field.N, r=r,
        lam=Fraction(int(doc["lambda"]["num"]), int(doc["lambda"]["den"])),
        delta=Fraction(int(doc["delta"]["num"]), int(doc["delta"]["den"])),
    )
    meta = None
    if "D_alon_meta" in doc:
        m = doc["D_alon_meta"]
        meta = AlonMeta(h=m["h"], t=m["t"], B=m["B"], size_bound=m["size_bound"])
    D = ProgressionFreeSet(r=r, elements=tuple(doc["D"]),
                           method=doc["D_method"], alon_meta=meta)
    if D.method == "alon":
        _check_digit_set(D, params.d)
    code = build_code(field, build_family(params, D))
    rebuilt = code_to_dict(code)
    differ = sorted(key for key in doc.keys() | rebuilt.keys()
                    if key not in doc or key not in rebuilt or doc[key] != rebuilt[key]
                    or type(doc[key]) is not type(rebuilt[key]) or key in ("lambda", "delta")
                    and any(type(doc[key][p]) is not type(v) for p, v in rebuilt[key].items()))
    if differ:
        raise PropertyViolation(f"spec keys {differ} do not match the code rebuilt "
                                f"from its inputs")
    return code


def _check_digit_set(D: ProgressionFreeSet, d: int) -> None:
    """PropertyViolation, naming the key, unless D_alon_meta is the meta of
    alon_construct(d, r) and D a prefix of its set."""
    try:
        derived = alon_construct(d, D.r)
    except (BadParams, ParamsTooSmall):  # no digit set for this d
        derived = None
    if derived is None or D.alon_meta != derived.alon_meta:
        raise PropertyViolation(f"spec key 'D_alon_meta' is not the digit construction's "
                                f"for d={d}, r={D.r}")
    if D.elements != derived.elements[:len(D)]:
        raise PropertyViolation(f"spec key 'D' is not a prefix of the digit set "
                                f"for d={d}, r={D.r}")


def _check_path(path) -> None:
    """BadParams unless path names a file: open() would take an int (or a
    bool) as a file descriptor, and close it."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise BadParams(f"spec path {path!r} is not a str, bytes or os.PathLike")


def save_code(code: MrCode, path) -> None:
    doc = code_to_dict(code)
    _check_path(path)
    if code.family.D.method == "alon":
        _check_digit_set(code.family.D, code.family.params.d)
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise Mismatch(f"spec {path} cannot be written: {exc.strerror or exc}") from None


def load_code(path) -> MrCode:
    _check_path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise Mismatch(f"spec {path} cannot be read: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise Mismatch(f"spec {path} is not valid JSON: {exc}") from None
    return code_from_dict(doc)
