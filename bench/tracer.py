"""Span tracing of mrcodes, installed from the benchmark's side.

`Tracer.install()` wraps every public function of each mrcodes module at
each site where a caller looks it up: the package modules import names
directly (`from .mrcode import decode`), so one function object can sit in
several module namespaces, and each of those references is replaced by the
same wrapper.  A wrapper records one span (name, parent, start, end) plus
the number of `FieldElement` objects built so far, and keeps it in memory.
A span's self time is its duration minus the durations of its child spans.

Spans recorded in a CLI child process (see cli_child.py) are written to a
file and merged into the parent's tracer with `merge()`.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from array import array
from math import comb

LAYERS = ("field", "progfree", "family", "mrcode", "pipeline", "codespec", "cli")
INSTANCES = ("r2_q1601", "r2_q500009", "r3_q5003")
CLASSES = ("local", "global", "uncorrectable", "corrupted")

# (name, unit) of every per-layer metric; values are per traced pass unless
# the unit is per call (us) or the name says otherwise.
PER_LAYER = (
    [("field.make_field_s", "s"),
     ("field.elements_per_encode", "count"),
     ("field.elements_per_decode", "count"),
     ("progfree.exhaustive_best_s", "s"),
     ("progfree.exhaustive_best_calls", "count"),
     ("progfree.exhaustive_best_repeat_ratio", "ratio"),
     ("progfree.alon_construct_s", "s"),
     ("progfree.verify_progression_free_calls", "count"),
     ("progfree.verify_progression_free_s", "s"),
     ("family.build_family_s", "s"),
     ("family.build_family_calls", "count"),
     ("family.zero_sum_subsets", "count"),
     ("mrcode.verify_mr_s", "s"),
     ("mrcode.verify_mr_share", "ratio"),
     ("mrcode.verify_subsets_checked", "count"),
     ("mrcode.build_code_s", "s"),
     ("mrcode.rank_calls_per_decode", "count"),
     ("mrcode.is_correctable_s", "s")]
    + [(f"mrcode.decode_us.{c}", "us") for c in CLASSES]
    + [("mrcode.local_repair_us", "us"),
       ("mrcode.encode_us", "us"),
       ("mrcode.decode_pattern_repeat_share", "ratio")]
    + [(f"pipeline.construct_s.{i}", "s") for i in INSTANCES]
    + [("pipeline.simulate_s", "s"),
       ("pipeline.simulate_decode_share", "ratio"),
       ("codespec.load_code_s", "s"),
       ("codespec.spec_bytes", "B")]
    + [(f"cli.{c}_file_self_s", "s") for c in ("encode", "decode", "repair")]
    + [("cli.process_start_s", "s"),
       ("cli.bytes_in", "B"),
       ("cli.bytes_out", "B")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("bench.wall_s", "s"),
       ("bench.overhead_s", "s"),
       ("bench.tracing_overhead_s", "s")]
)


def mrcodes_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mrcodes" or name.startswith("mrcodes."))]


def patch_everywhere(original, replacement) -> list:
    """Point every mrcodes module attribute bound to `original` at
    `replacement`; returns the undo list for `unpatch`."""
    undo = []
    for mod in mrcodes_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def unpatch(undo) -> None:
    for obj, attr, original in reversed(undo):
        setattr(obj, attr, original)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _decode_probe(args, kwargs, result):
    code = _arg(args, kwargs, 0, "code")
    received = _arg(args, kwargs, 1, "received")
    erased = tuple(j for j, s in enumerate(received) if s is None)
    per_group = [sum(received[j] is None for j in g) for g in code.repair_groups]
    survivors = frozenset(range(len(received))) - frozenset(erased)
    if len(survivors) < code.r + 1 or any(survivors == frozenset(g)
                                           for g in code.repair_groups):
        cls = "uncorrectable"
    else:
        cls = "global" if max(per_group) > 1 else "local"
    return [erased, cls]


# Values recorded per call at the layer boundary, after the call returns
# (result is None when it raised).
PROBES = {
    "mrcode.decode": _decode_probe,
    "mrcode.verify_mr": lambda a, kw, res: res.mds_subsets_checked if res else 0,
    "progfree.exhaustive_best": lambda a, kw, res: [_arg(a, kw, 0, "m"), _arg(a, kw, 1, "r")],
    "family.verify_zero_sum_property": lambda a, kw, res: comb(
        len(tuple(_arg(a, kw, 0, "elements"))), _arg(a, kw, 3, "r") + 1),
    "codespec.load_code": lambda a, kw, res: os.path.getsize(_arg(a, kw, 0, "path")),
}


class Tracer:
    FIELDS = ("name", "parent", "start", "end", "elem0", "elem1", "tag", "proc")

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.elem0 = array("q")   # FieldElement constructions at span start
        self.elem1 = array("q")   # ... and at span end
        self.tag = array("i")     # benchmark-set label (instance, class), -1 if none
        self.proc = array("i")    # 0 in-process, one id per merged child
        self.probes: dict[int, object] = {}
        self.stack: list[int] = []
        self.elements = 0
        self.current_tag = -1
        self._procs = 0
        self._undo: list = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_tag(self, tag) -> None:
        self.current_tag = -1 if tag is None else self.intern(tag)

    def mark(self) -> int:
        return len(self.name)

    def _wrap(self, span_name: str, fn):
        nid = self.intern(span_name)
        probe = PROBES.get(span_name)
        clock = time.perf_counter_ns
        t = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(t.name)
            t.name.append(nid)
            t.parent.append(t.stack[-1] if t.stack else -1)
            t.tag.append(t.current_tag)
            t.proc.append(0)
            t.elem0.append(t.elements)
            t.elem1.append(0)
            t.end.append(0)
            t.stack.append(i)
            result = None
            t.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t.end[i] = clock()
                t.elem1[i] = t.elements
                t.stack.pop()
                if probe is not None:
                    t.probes[i] = probe(args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every mrcodes layer module and count
        FieldElement constructions."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"mrcodes.{layer}")
            if mod is None:   # the parent process never imports mrcodes.cli
                continue
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for fn, wrapper in wrappers.items():
            self._undo += patch_everywhere(fn, wrapper)
        element_cls = sys.modules["mrcodes.field"].FieldElement
        post_init = element_cls.__post_init__

        def counting_post_init(obj):
            self.elements += 1
            post_init(obj)

        element_cls.__post_init__ = counting_post_init
        self._undo.append((element_cls, "__post_init__", post_init))

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def dump(self) -> dict:
        doc = {f: list(getattr(self, f)) for f in self.FIELDS}
        doc["names"] = self.names
        doc["probes"] = [[i, v] for i, v in self.probes.items()]
        return doc

    def merge(self, doc: dict, spawn_ns: int, main_ns: int) -> None:
        """Append a child process's spans, plus one synthetic
        `cli.process_start` span from spawn to the child's entry into main."""
        self._procs += 1
        proc = self._procs
        remap = [self.intern(n) for n in doc["names"]]
        base = len(self.name)
        self.name.append(self.intern("cli.process_start"))
        self.parent.append(-1)
        self.start.append(spawn_ns)
        self.end.append(main_ns)
        self.elem0.append(0)
        self.elem1.append(0)
        self.tag.append(-1)
        self.proc.append(proc)
        offset = base + 1
        count = len(doc["name"])
        self.name.extend(remap[x] for x in doc["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in doc["parent"])
        self.start.extend(doc["start"])
        self.end.extend(doc["end"])
        self.elem0.extend(doc["elem0"])
        self.elem1.extend(doc["elem1"])
        self.tag.extend(remap[x] if x >= 0 else -1 for x in doc["tag"])
        self.proc.extend([proc] * count)
        for i, v in doc["probes"]:
            self.probes[i + offset] = v


def layer_metrics(t: Tracer, passes: list[tuple[int, int]], setup: tuple[int, int],
                  pass_walls: list[float], traced_prog: list[float],
                  untraced_prog: list[float], extra: dict) -> dict:
    """Per-layer metrics from the spans of the traced passes (`passes` are
    [lo, hi) span index ranges) and of one traced set-up (`setup`).  Times
    are wall times, except the tracing overhead, which compares the pass
    times scaled to the reference speed (speed.py)."""
    npass = len(passes)
    ids = {n: i for i, n in enumerate(t.names)}
    dur = [e - s for s, e in zip(t.start, t.end)]
    child = [0] * len(dur)
    for i, p in enumerate(t.parent):
        if p >= 0:
            child[p] += dur[i]
    by_name: dict[int, list[int]] = {}
    for lo, hi in passes:
        for i in range(lo, hi):
            by_name.setdefault(t.name[i], []).append(i)

    def spans(name):
        return by_name.get(ids.get(name, -2), [])

    def total_s(name):
        return sum(dur[i] for i in spans(name)) / 1e9 / npass

    def per_pass(value):
        return value / npass

    def median_us(idx):
        return statistics.median(dur[i] for i in idx) / 1e3 if idx else 0.0

    def has_ancestor(i, nid):
        p = t.parent[i]
        while p >= 0:
            if t.name[p] == nid:
                return True
            p = t.parent[p]
        return False

    def elements_per(name):
        idx = spans(name)
        return sum(t.elem1[i] - t.elem0[i] for i in idx) / len(idx) if idx else 0.0

    m = {}
    m["field.make_field_s"] = total_s("field.make_field")
    m["field.elements_per_encode"] = elements_per("mrcode.encode")
    m["field.elements_per_decode"] = elements_per("mrcode.decode")

    calls = 0
    repeats = 0
    for lo, hi in passes:
        seen = set()
        for i in spans("progfree.exhaustive_best"):
            if not lo <= i < hi:
                continue
            key = tuple(t.probes[i])
            calls += 1
            repeats += key in seen
            seen.add(key)
    m["progfree.exhaustive_best_s"] = total_s("progfree.exhaustive_best")
    m["progfree.exhaustive_best_calls"] = per_pass(calls)
    m["progfree.exhaustive_best_repeat_ratio"] = repeats / calls if calls else 0.0
    m["progfree.alon_construct_s"] = total_s("progfree.alon_construct")
    m["progfree.verify_progression_free_calls"] = per_pass(
        len(spans("progfree.verify_progression_free")))
    m["progfree.verify_progression_free_s"] = total_s("progfree.verify_progression_free")

    m["family.build_family_s"] = total_s("family.build_family")
    m["family.build_family_calls"] = per_pass(len(spans("family.build_family")))
    m["family.zero_sum_subsets"] = per_pass(
        sum(t.probes[i] for i in spans("family.verify_zero_sum_property")))

    construct_s = total_s("pipeline.construct")
    m["mrcode.verify_mr_s"] = total_s("mrcode.verify_mr")
    m["mrcode.verify_mr_share"] = m["mrcode.verify_mr_s"] / construct_s if construct_s else 0.0
    m["mrcode.verify_subsets_checked"] = per_pass(
        sum(t.probes[i] for i in spans("mrcode.verify_mr")))
    m["mrcode.build_code_s"] = total_s("mrcode.build_code")

    decodes = spans("mrcode.decode")
    decode_id = ids.get("mrcode.decode", -2)
    ranks_in_decode = sum(has_ancestor(i, decode_id) for i in spans("mrcode.rank"))
    m["mrcode.rank_calls_per_decode"] = ranks_in_decode / len(decodes) if decodes else 0.0
    m["mrcode.is_correctable_s"] = total_s("mrcode.is_correctable")
    by_class = {c: [] for c in CLASSES}
    for i in decodes:
        tag = t.names[t.tag[i]] if t.tag[i] >= 0 else None
        by_class[tag if tag in by_class else t.probes[i][1]].append(i)
    for c in CLASSES:
        m[f"mrcode.decode_us.{c}"] = median_us(by_class[c])
    m["mrcode.local_repair_us"] = median_us(spans("mrcode.local_repair"))
    m["mrcode.encode_us"] = median_us(spans("mrcode.encode"))
    seen = set()
    repeats = 0
    for i in decodes:
        key = (t.proc[i], tuple(t.probes[i][0]))
        repeats += key in seen
        seen.add(key)
    m["mrcode.decode_pattern_repeat_share"] = repeats / len(decodes) if decodes else 0.0

    for inst in INSTANCES:
        tag = ids.get(inst, -2)
        m[f"pipeline.construct_s.{inst}"] = sum(
            dur[i] for i in spans("pipeline.construct") if t.tag[i] == tag) / 1e9 / npass
    m["pipeline.simulate_s"] = total_s("pipeline.simulate")
    simulate_id = ids.get("pipeline.simulate", -2)
    in_sim = sum(dur[i] for i in decodes if has_ancestor(i, simulate_id))
    sim_total = sum(dur[i] for i in spans("pipeline.simulate"))
    m["pipeline.simulate_decode_share"] = in_sim / sim_total if sim_total else 0.0

    load_id = ids.get("codespec.load_code", -2)
    loads = [i for i in range(*setup) if t.name[i] == load_id] + spans("codespec.load_code")
    m["codespec.load_code_s"] = median_us(loads) / 1e6
    m["codespec.spec_bytes"] = t.probes[loads[0]] if loads else 0

    for c in ("encode", "decode", "repair"):
        m[f"cli.{c}_file_self_s"] = sum(dur[i] - child[i]
                                        for i in spans(f"cli.{c}_file")) / 1e9 / npass
    starts = spans("cli.process_start")
    m["cli.process_start_s"] = sum(dur[i] for i in starts) / 1e9 / len(starts) if starts else 0.0
    m["cli.bytes_in"] = per_pass(extra.get("bytes_in", 0))
    m["cli.bytes_out"] = per_pass(extra.get("bytes_out", 0))

    layer_self = dict.fromkeys(LAYERS, 0)
    for nid, idx in by_name.items():
        layer_self[t.names[nid].split(".")[0]] += sum(dur[i] - child[i] for i in idx)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / 1e9 / npass
    self_total = sum(layer_self.values())
    wall = sum(pass_walls)
    m["bench.wall_s"] = wall / npass
    m["bench.overhead_s"] = (wall - self_total / 1e9) / npass
    m["bench.tracing_overhead_s"] = (statistics.median(traced_prog)
                                     - statistics.median(untraced_prog))
    return m
