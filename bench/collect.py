"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads construct,stream]
                             [--trace 0|1] [--out summary.json]

Runs `bench/run.py` once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json.  For every metric it prints the median and
the quartile spread (Q3 - Q1) / median next to a third of the metric's bound,
which is the steadiness target for the end-to-end metrics.  --out writes the
medians, quartiles, and every run's result line and report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        lines, reports = [], []
        for seed in seed_list(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            out = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not out:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            lines.append(json.loads(out[-1]))
            reports.append(json.loads(out[-2])["report"])
            print(f"{workload} seed {seed}: correct={lines[-1]['correct']} "
                  f"failed={lines[-1]['failed']}/{lines[-1]['attempted']}", file=sys.stderr)
        metrics = {}
        for name, entry in lines[0]["metrics"].items():
            metrics[name] = summarise([ln["metrics"][name]["value"] for ln in lines])
            metrics[name]["unit"] = entry["unit"]
            bound = bounds.get(name)
            s = metrics[name]
            target = f"  target < {bound / 3:.4f}" if bound else ""
            spread = f"{s['spread']:.4f}" if s["spread"] is not None else "n/a"
            print(f"{workload:16s} {name:40s} median {s['median']:.6g} {entry['unit']:6s} "
                  f"spread {spread}{target}")
        summary[workload] = {"metrics": metrics, "runs": lines, "reports": reports}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
