"""Reference answers the benchmark checks mrcodes against.

Everything here is plain-integer arithmetic on the stored JSON spec and the
closed-form rules of the construction; nothing calls into mrcodes, so a
wrong answer from the package cannot also corrupt its own check.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())


class Spec:
    """The parts of a stored code spec the oracles need, read as plain ints."""

    def __init__(self, path: Path):
        doc = json.loads(path.read_text())
        self.q = int(doc["q"])
        self.r = int(doc["r"])
        self.G = [[int(x) for x in row] for row in doc["G"]]
        self.k = len(self.G)
        self.n = len(self.G[0])
        self.groups = [tuple(g) for g in doc["repair_groups"]]
        self._group_sets = {frozenset(g) for g in self.groups}

    def encode(self, message) -> list[int]:
        """message * G mod q."""
        q, G = self.q, self.G
        return [sum(m * G[i][j] for i, m in enumerate(message)) % q
                for j in range(self.n)]

    def correctable(self, erased) -> bool:
        """Closed-form MR rule: at least r+1 survivors, and the survivors are
        not exactly one repair group."""
        survivors = frozenset(range(self.n)) - frozenset(erased)
        return len(survivors) >= self.r + 1 and survivors not in self._group_sets

    def max_per_group(self, erased) -> int:
        erased = set(erased)
        return max(sum(j in erased for j in g) for g in self.groups)


def code_digest(doc: dict) -> str:
    """sha256 of a code_to_dict document in canonical JSON form."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def simulate_counts(spec: Spec, p: float, trials: int, seed: int) -> tuple[dict, float, list]:
    """Counts that mrcodes.simulate(code, p, trials, seed) reported at the
    seed commit, by replaying its Mersenne Twister draws (k message symbols,
    then n erasure coins per trial) and classifying each pattern by the
    closed-form rule.  Also returns the erasure patterns that reach the
    decoder, as bitmasks, for the pattern-repeat share."""
    rng = random.Random(seed)
    n, r = spec.n, spec.r
    counts = {"intact": 0, "local_only": 0, "global_decodes": 0,
              "failures": 0, "locally_repaired_groups": 0}
    repairs = 0
    decoded = []
    for _ in range(trials):
        for _ in range(spec.k):
            rng.randrange(spec.q)
        erased = [rng.random() < p for _ in range(n)]
        per_group = [sum(erased[j] for j in g) for g in spec.groups]
        single = per_group.count(1)
        counts["locally_repaired_groups"] += single
        repairs += single
        if not any(erased):
            counts["intact"] += 1
            continue
        pattern = [j for j in range(n) if erased[j]]
        decoded.append(bitmask(pattern))
        if not spec.correctable(pattern):
            counts["failures"] += 1
        elif max(per_group) > 1:
            counts["global_decodes"] += 1
        else:
            counts["local_only"] += 1
    return counts, (r if repairs else 0.0), decoded


def bitmask(indices) -> int:
    """An erasure pattern as an int, which the cyclic GC does not track, so
    that patterns kept for the whole run do not slow collections inside
    mrcodes."""
    return sum(1 << j for j in indices)


def repeat_share(keys) -> float | None:
    """Share of keys already seen earlier in the sequence; None if empty."""
    seen = set()
    repeats = 0
    total = 0
    for key in keys:
        total += 1
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats / total if total else None
