"""mrcodes benchmark: three closed-loop workloads with one caller each.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

  construct        construct(2, 1601), construct(2, 500009) and
                   construct(3, 5003), each built and verified from scratch.
  stream           the mrcodes CLI, one child process at a time, on the stored
                   (r=2, q=1601, n=30) spec in data/: `encode` of B blocks,
                   `decode --erasures P` and `repair --erasures P1`.
  random-erasures  the same spec loaded in-process: encode then decode per
                   call over a fixed class mix of erasure patterns, then one
                   simulate() call.

A pass is one fixed unit of work on fresh inputs drawn from --seed; passes
repeat until --seconds is spent.  Every output is checked against oracles.py.
The last stdout line is the result: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer metrics of tracer.py.  The line before it is a
JSON report with each workload's own metrics, its input properties, the
machine and the first errors.  Exit code 2 means the benchmark could not
start (no mrcodes sources next to it).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import faults
import tracer as tracing
from speed import Speed
from oracles import EXPECTED, Spec, bitmask, code_digest, repeat_share, simulate_counts

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = BENCH_DIR / "data" / "r2_q1601.json"
CHILD = BENCH_DIR / "cli_child.py"
WORK_DIR = ROOT / ".bench_work"

INSTANCES = {"r2_q1601": (2, 1601), "r2_q500009": (2, 500009), "r3_q5003": (3, 5003)}
CLASS_MIX = {"local": 4, "global": 4, "uncorrectable": 1, "corrupted": 1}
SIM_P = 0.1
CHILD_TIMEOUT_S = 60
CASES_PER_SEGMENT = 250   # random-erasures calls between two speed samples

SIZES = {
    "blocks": 1000,            # stream: blocks per CLI call
    "cases": 500,              # random-erasures: encode+decode calls per pass
    "trials": 1000,            # random-erasures: simulate() trials per pass
    "import_repeats": 15,      # construct set-up samples
    "cli_setup_repeats": 9,    # stream set-up samples
    "load_repeats": 40,        # random-erasures set-up samples
}

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"))

perf = time.perf_counter


def import_mrcodes():
    """Fresh import of the package from this checkout's src/; returns the
    package and the seconds the import took."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "mrcodes" or n.startswith("mrcodes.")]:
        del sys.modules[name]
    t0 = perf()
    mc = importlib.import_module("mrcodes")
    elapsed = perf() - t0
    if Path(mc.__file__).resolve().parent != SRC / "mrcodes":
        raise RuntimeError(f"imported mrcodes from {mc.__file__}, not from {SRC}")
    return mc, elapsed


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(sorted_values):
    """Highest of p99.9/p99/p95/p90 with at least 10 samples beyond it."""
    n = len(sorted_values)
    for pct in (99.9, 99, 95, 90):
        if n - math.ceil(pct / 100 * n) >= 10:
            return pct, percentile(sorted_values, pct)
    return None, None


class Outcome:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.errors) < 5:
                self.errors.append(what)


class Workload:
    name = ""
    bytes_in = 0     # CLI stdin and stdout bytes, stream only
    bytes_out = 0

    def __init__(self, mc, seed: int, sizes: dict, out: Outcome, speed: Speed, fault=None):
        self.mc = mc
        self.sizes = sizes
        self.out = out
        self.speed = speed
        self.fault = fault
        self.rng = random.Random(f"{self.name}:{seed}")
        self.wall = 0.0     # seconds inside mrcodes calls in this pass

    def setup(self, repeats: int, tracer=None) -> list[tuple[float, float]]:
        """Set up `repeats` times; returns the wall seconds of each, and the
        same at the reference machine speed (speed.py)."""
        since = self.speed.sample()
        times = []
        for _ in range(repeats):
            elapsed = self.setup_once(tracer)
            end = self.speed.sample()
            times.append((elapsed, self.speed.scale(elapsed, since)))
            since = end
        return times

    def setup_once(self, tracer) -> float:
        raise NotImplementedError

    def run_pass(self, tracer) -> None:
        """One pass, calling segment() after each timed stretch."""
        raise NotImplementedError

    def segment(self, seconds: float) -> None:
        """Account the timed stretch of mrcodes calls that just ended."""
        self.wall += seconds
        self.speed.sample()

    def one_pass(self, tracer) -> tuple[float, float]:
        """Run a pass; returns its seconds in mrcodes calls, at wall time and
        at the reference speed."""
        self.wall = 0.0
        since = self.speed.sample()
        self.run_pass(tracer)
        return self.wall, self.speed.scale(self.wall, since)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def report(self) -> dict:
        """The workload's own metrics and input properties."""
        raise NotImplementedError


class Construct(Workload):
    name = "construct"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.times = {inst: [] for inst in INSTANCES}
        self.instances = {}

    def setup(self, repeats, tracer=None):
        # set-up is the package import; it cannot be traced because a fresh
        # import replaces the modules the tracer has wrapped
        return [] if tracer is not None else super().setup(repeats)

    def setup_once(self, tracer):
        self.mc, elapsed = import_mrcodes()
        return elapsed

    def run_pass(self, tracer):
        for inst, (r, q) in INSTANCES.items():
            if tracer:
                tracer.set_tag(inst)
            t0 = perf()
            try:
                code, report = self.mc.construct(r, q)
            except Exception as exc:
                code, report = None, exc
            elapsed = perf() - t0
            if tracer:
                tracer.set_tag(None)
            self.segment(elapsed)
            if code is None:
                self.out.check(False, f"{inst}: construct raised {report!r}")
                continue
            self.times[inst].append(elapsed)
            digest = code_digest(self.mc.code_to_dict(code))
            deficient = sorted(tuple(s) for s in report.deficient_subsets)
            self.out.check(report.ok, f"{inst}: report not ok: {report.violations[:3]}")
            self.out.check(deficient == sorted(code.repair_groups),
                           f"{inst}: deficient subsets {deficient[:3]} are not the repair groups")
            self.out.check(digest == EXPECTED["construct_sha256"][inst],
                           f"{inst}: code_to_dict digest {digest} differs from the seed commit")
            self.instances[inst] = {
                "n": code.n, "D_size": len(code.family.D), "D_method": code.family.D.method,
                "verify_mode": report.mode, "subsets_checked": report.mds_subsets_checked,
            }

    def report(self):
        per_pass = [sum(ts) for ts in zip(*self.times.values())]
        return {
            "metrics": {
                "construct_s": {"value": statistics.median(per_pass) if per_pass else None,
                                "unit": "s", "samples": len(per_pass)},
                **{f"construct_s.{inst}": {"value": statistics.median(ts), "unit": "s"}
                   for inst, ts in self.times.items() if ts},
            },
            "properties": {"instances": self.instances, "decode_pattern_repeat_share": None},
        }


class Stream(Workload):
    name = "stream"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spec = Spec(SPEC_PATH)
        per_group = [g[0] for g in self.spec.groups]
        self.repair_erasures = per_group                                    # P1
        self.decode_erasures = sorted(per_group + [self.spec.groups[0][1],
                                                   self.spec.groups[1][1]])  # P
        self.rates = {"encode": [], "decode": [], "repair": []}

    def peak_rss_mb(self):
        # the CLI child is the process a user of this path runs
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def cli(self, args, data: str, tracer, tag=None):
        """Run one CLI child to completion; returns (exit code, stdout,
        stderr, seconds from spawn to exit)."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("MRBENCH_")}
        if self.fault:
            env["MRBENCH_FAULT"] = self.fault
        trace_file = None
        if tracer:
            WORK_DIR.mkdir(exist_ok=True)
            trace_file = WORK_DIR / f"child-{os.getpid()}.json"
            env["MRBENCH_TRACE_OUT"] = str(trace_file)
            if tag:
                env["MRBENCH_TAG"] = tag
        payload = data.encode()
        spawn_ns = time.perf_counter_ns()
        proc = subprocess.Popen([sys.executable, str(CHILD), *args], cwd=ROOT, env=env,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            stdout, stderr = proc.communicate(payload, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
        elapsed = (time.perf_counter_ns() - spawn_ns) / 1e9
        if trace_file is not None and trace_file.exists():
            doc = json.loads(trace_file.read_text())
            trace_file.unlink()
            tracer.merge(doc, spawn_ns, doc["main_ns"])
        self.bytes_in += len(payload)
        self.bytes_out += len(stdout)
        return proc.returncode, stdout.decode(), stderr.decode(), elapsed

    def check_lines(self, what, rc, stdout, stderr, expected):
        if rc != 0:
            self.out.check(False, f"{what}: exit {rc}: {stderr.strip()[-200:]}", len(expected))
            return
        lines = stdout.splitlines()
        for i, want in enumerate(expected):
            got = lines[i] if i < len(lines) else None
            self.out.check(got == " ".join(map(str, want)),
                           f"{what} block {i}: got {got!r}, want {want}")
        self.out.check(len(lines) == len(expected),
                       f"{what}: {len(lines)} output lines for {len(expected)} blocks")

    def setup_once(self, tracer):
        rc, stdout, stderr, elapsed = self.cli(["encode", "--spec", str(SPEC_PATH)], "", tracer)
        self.out.check(rc == 0 and stdout == "", f"empty encode: exit {rc}, stdout {stdout[:80]!r}")
        return elapsed

    def run_pass(self, tracer):
        spec = self.spec
        messages = [[self.rng.randrange(spec.q) for _ in range(spec.k)]
                    for _ in range(self.sizes["blocks"])]
        codewords = [spec.encode(m) for m in messages]
        encode_in = "".join(" ".join(map(str, m)) + "\n" for m in messages)
        codeword_in = "".join(" ".join(map(str, c)) + "\n" for c in codewords)
        spec_arg = ["--spec", str(SPEC_PATH)]
        for what, args, data, expected, tag in (
            ("encode", ["encode", *spec_arg], encode_in, codewords, None),
            ("decode", ["decode", *spec_arg, "--erasures",
                        ",".join(map(str, self.decode_erasures))],
             codeword_in, messages, "global"),
            ("repair", ["repair", *spec_arg, "--erasures",
                        ",".join(map(str, self.repair_erasures))],
             codeword_in, codewords, None),
        ):
            rc, stdout, stderr, elapsed = self.cli(args, data, tracer, tag)
            self.segment(elapsed)
            self.rates[what].append(len(messages) / elapsed)
            self.check_lines(what, rc, stdout, stderr, expected)

    def report(self):
        blocks = self.sizes["blocks"]
        return {
            "metrics": {f"{what}_cw_per_s": {"value": statistics.median(r), "unit": "codewords/s",
                                             "samples": len(r)}
                        for what, r in self.rates.items() if r},
            "properties": {
                "blocks_per_call": blocks,
                "decode_erasures": self.decode_erasures,
                "repair_erasures": self.repair_erasures,
                # each CLI process decodes every block with the same pattern
                "decode_pattern_repeat_share": (blocks - 1) / blocks,
                "class_mix": {"decode": {"global": 1.0}, "repair": {"local": 1.0}},
            },
        }


class RandomErasures(Workload):
    name = "random-erasures"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.spec = Spec(SPEC_PATH)
        self.code = None
        self.latency = {c: [] for c in CLASS_MIX}
        self.encode_s: list[float] = []
        self.sim_rates: list[float] = []
        self.patterns: list[int] = []   # bitmask of every decode call, in call order
        self.phase1_patterns: list[int] = []
        self.sim_patterns: list[int] = []
        self.sim_counts = {"intact": 0, "local_only": 0, "global_decodes": 0, "failures": 0}

    def setup_once(self, tracer):
        t0 = perf()
        code = self.mc.load_code(SPEC_PATH)
        elapsed = perf() - t0
        self.out.check([[e.value for e in row] for row in code.G] == self.spec.G,
                       "load_code: G differs from the stored spec")
        self.code = code
        return elapsed

    def erasures(self, cls):
        """An erasure pattern of the given class, and the position of an
        altered symbol (corrupted class only)."""
        spec, rng = self.spec, self.rng
        n = spec.n
        if cls == "local":
            while True:
                erased = [g[rng.randrange(len(g))] for g in spec.groups if rng.random() < 0.75]
                if erased:
                    return erased, None
        if cls == "global":
            while True:
                u = rng.uniform(0.15, 0.6)
                erased = [j for j in range(n) if rng.random() < u]
                if spec.max_per_group(erased) >= 2 and spec.correctable(erased):
                    return erased, None
        if cls == "uncorrectable":
            if rng.random() < 0.5:
                survivors = set(rng.choice(spec.groups))
            else:
                survivors = set(rng.sample(range(n), rng.randint(0, spec.r)))
            return [j for j in range(n) if j not in survivors], None
        erased = rng.sample(range(n), rng.randint(0, 2))
        altered = rng.choice([j for j in range(n) if j not in erased])
        return erased, altered

    def run_pass(self, tracer):
        spec, rng, mc, code = self.spec, self.rng, self.mc, self.code
        errors = mc.errors
        classes = [c for c, w in CLASS_MIX.items()
                   for _ in range(self.sizes["cases"] * w // sum(CLASS_MIX.values()))]
        rng.shuffle(classes)
        stretch = 0.0
        for i, cls in enumerate(classes, start=1):
            message = [rng.randrange(spec.q) for _ in range(spec.k)]
            codeword = spec.encode(message)
            erased, altered = self.erasures(cls)
            received = list(codeword)
            for j in erased:
                received[j] = None
            if altered is not None:
                received[altered] = (received[altered] + rng.randrange(1, spec.q)) % spec.q
            if tracer:
                tracer.set_tag(cls)
            t0 = perf()
            try:
                encoded = [s.value for s in mc.encode(code, message)]
            except Exception as exc:
                encoded = exc
            t1 = perf()
            try:
                decoded = [s.value for s in mc.decode(code, received)]
            except Exception as exc:
                decoded = exc
            t2 = perf()
            stretch += t2 - t0
            self.encode_s.append(t1 - t0)
            self.latency[cls].append(t2 - t1)
            pattern = bitmask(erased)
            self.patterns.append(pattern)
            self.phase1_patterns.append(pattern)
            self.out.check(encoded == codeword, f"encode {message}: got {encoded!r}")
            if altered is not None:
                expected, want = errors.Inconsistent, "Inconsistent"
            elif spec.correctable(erased):
                expected, want = None, message
            else:
                expected, want = errors.NotCorrectable, "NotCorrectable"
            if expected is None:
                ok = decoded == message
            else:
                ok = type(decoded) is expected
            self.out.check(ok, f"{cls} decode of pattern {sorted(erased)}: got {decoded!r}, "
                               f"want {want}")
            if i % CASES_PER_SEGMENT == 0 or i == len(classes):
                if tracer:
                    tracer.set_tag(None)
                self.segment(stretch)
                stretch = 0.0

        trials = self.sizes["trials"]
        sim_seed = rng.randrange(2**31)
        t0 = perf()
        try:
            report = mc.simulate(code, SIM_P, trials, sim_seed)
        except Exception as exc:
            report = exc
        elapsed = perf() - t0
        self.segment(elapsed)
        self.sim_rates.append(trials / elapsed)
        counts, avg_read, patterns = simulate_counts(spec, SIM_P, trials, sim_seed)
        self.patterns.extend(patterns)
        self.sim_patterns.extend(patterns)
        for key in self.sim_counts:
            self.sim_counts[key] += counts[key]
        self.out.check(not isinstance(report, Exception) and report.counts == counts
                       and report.avg_symbols_read_per_repair == avg_read,
                       f"simulate seed {sim_seed}: got {report!r}, want counts {counts}")

    def report(self):
        everything = sorted(x for lat in self.latency.values() for x in lat)
        tail_pct, tail = tail_percentile(everything)
        calls = len(everything)
        sim_trials = sum(self.sim_counts.values())
        metrics = {
            "decode_p50_ms": {"value": percentile(everything, 50) * 1e3, "unit": "ms",
                              "samples": calls},
            "encode_p50_ms": {"value": statistics.median(self.encode_s) * 1e3, "unit": "ms",
                              "samples": len(self.encode_s)},
            "sim_trials_per_s": {"value": statistics.median(self.sim_rates), "unit": "trials/s",
                                 "samples": len(self.sim_rates)},
            **{f"decode_p50_ms.{c}": {"value": statistics.median(lat) * 1e3, "unit": "ms",
                                      "samples": len(lat)}
               for c, lat in self.latency.items() if lat},
        }
        if tail_pct is not None:
            metrics[f"decode_p{tail_pct:g}_ms"] = {"value": tail * 1e3, "unit": "ms",
                                                  "samples": calls}
        return {
            "metrics": metrics,
            "properties": {
                "class_mix": {c: len(lat) / calls for c, lat in self.latency.items()},
                "simulate_trial_mix": {k: v / sim_trials for k, v in self.sim_counts.items()},
                "decode_pattern_repeat_share": repeat_share(self.patterns),
                "decode_pattern_repeat_share.per_call_loop": repeat_share(self.phase1_patterns),
                "decode_pattern_repeat_share.simulate": repeat_share(self.sim_patterns),
            },
        }


WORKLOADS = {w.name: w for w in (Construct, Stream, RandomErasures)}


def measure(wl: Workload, seconds: float, tracer=None) -> list[tuple]:
    """Run passes until `seconds` would be exceeded (at least one); returns
    (mrcodes wall seconds, the same scaled, pass wall seconds, span index
    range) per pass."""
    deadline = perf() + seconds
    passes = []
    while True:
        lo = tracer.mark() if tracer else 0
        t0 = perf()
        program, scaled = wl.one_pass(tracer)
        wall = perf() - t0
        passes.append((program, scaled, wall, (lo, tracer.mark() if tracer else 0)))
        if perf() + wall > deadline:
            return passes


def machine_info() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "loadavg_at_start": os.getloadavg(),
        "limits": "no kernel or cgroup setting is changed: CPU frequency, other "
                  "tenants of the machine and the page cache are not controlled",
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: dict = SIZES, fault: str | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report)."""
    machine = machine_info()
    mc, _ = import_mrcodes()
    out = Outcome()
    speed = Speed()
    wl = WORKLOADS[workload](mc, seed, sizes, out, speed, fault)
    repeats = {"construct": sizes["import_repeats"], "stream": sizes["cli_setup_repeats"],
               "random-erasures": sizes["load_repeats"]}[workload]
    setup_s = wl.setup(repeats if not trace else 1)
    undo = faults.inject(fault) if fault else []
    try:
        if not trace:
            passes = measure(wl, seconds)
            own = wl.report()
            values = {"setup_s": statistics.median(s[1] for s in setup_s),
                      "pass_s": statistics.median(p[1] for p in passes),
                      "peak_rss_mb": wl.peak_rss_mb()}
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        else:
            untraced = measure(wl, seconds / 2)
            own = wl.report()   # the workload's own metrics come from untraced passes
            wl.bytes_in = wl.bytes_out = 0
            tracer = tracing.Tracer()
            tracer.install()
            try:
                lo = tracer.mark()
                wl.setup(1, tracer)
                setup_range = (lo, tracer.mark())
                passes = measure(wl, seconds / 2, tracer)
            finally:
                tracer.uninstall()
            values = tracing.layer_metrics(
                tracer, [p[3] for p in passes], setup_range,
                pass_walls=[p[2] for p in passes], traced_prog=[p[1] for p in passes],
                untraced_prog=[p[1] for p in untraced],
                extra={"bytes_in": wl.bytes_in, "bytes_out": wl.bytes_out})
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in tracing.PER_LAYER}
            passes = untraced + passes
    finally:
        tracing.unpatch(undo)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": sizes, "passes": len(passes),
        "pass_s": {"wall": [p[0] for p in passes], "scaled": [p[1] for p in passes]},
        "setup_s": {"wall": [s[0] for s in setup_s], "scaled": [s[1] for s in setup_s]},
        "reference_s": speed.samples,
        "error_rate": {"value": out.failed / out.attempted if out.attempted else None,
                       "unit": "failed/attempted"},
        "errors": out.errors, **own, "machine": machine,
    }
    report["metrics"]["peak_rss_mb"] = {"value": wl.peak_rss_mb(), "unit": "MB"}
    line = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
            "metrics": metrics}
    return line, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mrcodes" / "__init__.py").is_file():
        print(f"error: no mrcodes sources at {SRC}", file=sys.stderr)
        return 2
    line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
