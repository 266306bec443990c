"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. A smoke run of every workload, untraced and traced, must finish with no
   failed operation and emit exactly the metric names and units that
   BENCHMARK.json lists (end_to_end untraced, per_layer traced).
2. With a decode that returns a wrong message, or an encode that flips one
   symbol (faults.py), the error rate of the stream and random-erasures
   workloads must be above 0.
3. The simulate() oracle must reproduce the counts recorded at the seed
   commit in expected.json.

Exit code 0 when every check passes.  Takes about a minute, most of it the
construct workload.
"""

from __future__ import annotations

import json
import sys

import run
from oracles import EXPECTED, Spec, simulate_counts

SMOKE = dict(run.SIZES, blocks=20, cases=40, trials=50, import_repeats=2,
             cli_setup_repeats=1, load_repeats=2)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            line, report = run.run(workload, seed=1, seconds=0.1, trace=bool(trace), sizes=SMOKE)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace={trace}: metric names/units differ: "
                                f"missing {sorted(set(wanted[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted[trace]))}")
            if line["failed"] or not line["correct"]:
                problems.append(f"{workload} trace={trace}: {line['failed']} failed: "
                                f"{report['errors']}")
            print(f"smoke {workload} trace={trace}: {line['attempted']} ops, "
                  f"{line['failed']} failed", file=sys.stderr)

    for workload in ("stream", "random-erasures"):
        for fault in ("decode", "encode"):
            line, report = run.run(workload, seed=1, seconds=0.1, trace=False, sizes=SMOKE,
                                   fault=fault)
            rate = report["error_rate"]["value"]
            print(f"fault {fault} on {workload}: error_rate {rate:.3f}", file=sys.stderr)
            if not rate:
                problems.append(f"{workload}: injected {fault} fault went unnoticed")

    sim = EXPECTED["simulate"]
    spec = Spec(run.BENCH_DIR / sim["spec"])
    for seed, counts in sim["counts_by_seed"].items():
        replayed = simulate_counts(spec, sim["p"], sim["trials"], int(seed))[0]
        if replayed != counts:
            problems.append(f"simulate oracle, seed {seed}: {replayed} != recorded {counts}")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
