"""End-to-end pipeline: parameters -> set (progfree._choose_set picks D) ->
family -> code -> verification, plus the erasure simulation harness and the
field-size scaling report.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from numbers import Real
from typing import Optional

from .codespec import RNG_NAME
from .errors import (BadParams, FieldTooSmall, NotCorrectable, PropertyViolation,
                     TargetUnreachable)
from .family import FamilyParams, build_family
from .field import Field, _check_int, make_field
from .mrcode import MrCode, MrReport, build_code, decode, encode, verify_mr
from .progfree import _choose_set


def choose_params(r: int, q: int) -> FamilyParams:
    """Default family parameters: lambda = 1/(2 r^3), delta = lambda/(r+1).

    Both sit strictly inside the required ranges; d scales like N/r^4.
    """
    return _params_over(make_field(q), r)


def _check_r(r) -> None:
    """BadParams unless r is an int >= 2."""
    _check_int("r", r)
    if r < 2:
        raise BadParams("r must be >= 2")


def _params_over(field: Field, r: int) -> FamilyParams:
    """choose_params for a field already built (and so q already checked)."""
    _check_r(r)
    den = 2 * r**3 * (r + 1)  # delta = lambda/(r+1) = 1/den
    if field.N < den:  # d = floor(N/den) = 0
        raise FieldTooSmall(f"q={field.q} gives d=0 for r={r}; need N >= {den}")
    return FamilyParams(N=field.N, r=r, lam=Fraction(1, 2 * r**3), delta=Fraction(1, den))


def construct(r: int, q: int, target_n: Optional[int] = None) -> tuple[MrCode, MrReport]:
    """Full construction pipeline: the field, its parameters, a set D, the
    family on D and the code, returned with verify_mr's certificate.  The
    family proves D when it is made, raising BadSet if D fails the set
    oracle, so the certificate is exact and no verdict is re-checked here;
    a target_n past the n that D reaches raises TargetUnreachable."""
    field = make_field(q)
    params = _params_over(field, r)
    if target_n is not None:  # before D is chosen, which can take seconds at large q
        _check_int("target_n", target_n)
        if target_n <= 0 or target_n % (r + 1) != 0:
            raise BadParams(f"target_n={target_n} is not a positive multiple of r+1={r + 1}")
    D = _choose_set(params.d, r)
    if target_n is not None:
        n = len(D) * (r + 1)
        if n < target_n:
            raise TargetUnreachable(f"construction reaches n={n} < target {target_n}")
        # progfree's constructors list D ascending: these are its smallest b
        D = replace(D, elements=D.elements[:target_n // (r + 1)])
    code = build_code(field, build_family(params, D))
    return code, verify_mr(code)


@dataclass
class SimReport:
    trials: int
    p: float
    seed: int
    rng: str = dc_field(init=False, default=RNG_NAME)
    counts: dict = dc_field(default_factory=dict)
    avg_symbols_read_per_repair: float = 0.0

    @property
    def failure_rate(self) -> float:
        return self.counts["failures"] / self.trials if self.trials else 0.0


def _check_p(p) -> None:
    if type(p) is bool or not isinstance(p, Real) or not 0 <= p <= 1:
        raise BadParams(f"p={p!r} outside [0, 1]")


def simulate(code: MrCode, p: float, trials: int, seed: int) -> SimReport:
    """Monte-Carlo erasure trials with i.i.d. per-symbol loss probability p.

    Every trial with an erasure goes through decode; groups with exactly
    one erasure are counted as local repairs (r symbols read each), not
    performed.  They count in failed trials too: a lone erasure is
    repairable from its r group peers whether or not the message decodes.
    Deterministic given the seed (Mersenne Twister).
    """
    if not isinstance(code, MrCode):
        raise BadParams(f"code={code!r} is not an MrCode")
    _check_p(p)
    _check_int("trials", trials)
    _check_int("seed", seed)
    if trials < 0:
        raise BadParams(f"trials={trials} is negative")
    rng = random.Random(seed)
    q, k, n, r = code.field.q, code.k, code.n, code.r
    counts = {"intact": 0, "local_only": 0, "global_decodes": 0,
              "failures": 0, "locally_repaired_groups": 0}
    for _ in range(trials):
        message = [rng.randrange(q) for _ in range(k)]
        codeword = encode(code, message)
        erased = [rng.random() < p for _ in range(n)]
        received = [None if e else s for s, e in zip(codeword, erased)]
        per_group = [sum(erased[j] for j in g) for g in code.repair_groups]
        counts["locally_repaired_groups"] += per_group.count(1)
        if not any(erased):
            counts["intact"] += 1
            continue
        try:
            recovered = decode(code, received)
        except NotCorrectable:
            counts["failures"] += 1
            continue
        values = [x.value for x in recovered]
        if values != message:
            raise PropertyViolation(f"decode returned {values} for message {message}")
        counts["global_decodes" if max(per_group) > 1 else "local_only"] += 1
    repaired = counts["locally_repaired_groups"]
    return SimReport(trials=trials, p=p, seed=seed, counts=counts,
                     avg_symbols_read_per_repair=float(r) if repaired else 0.0)


def exact_failure_probability(code: MrCode, p: float) -> float:
    """Sum of p^|E| (1-p)^(n-|E|) over the incorrectable erasure patterns E,
    in closed form.  Exact reference for simulate().

    By the family lemma (see verify_mr) the deficient k-subsets of every
    MrCode are its repair groups, which split the columns.  So k+1 survivors
    hold k independent columns (swap one of a deficient subset for the
    outside one), and E fails exactly when under k symbols survive or the k
    survivors are a repair group.
    """
    _check_p(p)
    if not isinstance(code, MrCode):
        raise BadParams(f"code={code!r} is not an MrCode")
    n, k = code.n, code.k
    return float(sum(math.comb(n, s) * (1 - p)**s * p**(n - s) for s in range(k))
                 + len(code.repair_groups) * (1 - p)**k * p**(n - k))


def scaling_table(r: int, q_list) -> list[dict]:
    """Field-size scaling rows for fixed locality r.

    Indicative only: the asymptotic field-size claim is not testable at desk
    scale; rows report log q / log n and the construction's length bound
    ln q - 3 ln r - 5 sqrt(ln(q/r^4) ln r) for comparison.
    """
    if not isinstance(q_list, Iterable):
        raise BadParams(f"q_list={q_list!r} is not a collection")
    _check_r(r)  # once, so an empty q_list is no way round it
    rows = []
    for q in q_list:
        code, report = construct(r, q)
        n = code.n
        ratio = math.log(q) / math.log(n) if n > 1 else float("inf")
        lower = math.log(q) - 3 * math.log(r) - 5 * math.sqrt(
            max(math.log(q / r**4), 0.0) * math.log(r)
        )
        rows.append({"q": q, "r": r, "n": n, "log_q_over_log_n": ratio,
                     "log_n_lower_bound": lower, "verification": report.mode,
                     "note": "indicative -- asymptotic claim not testable at desk scale"})
    return rows
