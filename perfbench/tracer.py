"""Spans around the public functions of each logcharts module.

The traced run replaces every public function of the layer modules with a
wrapper that records one span per call: name, start, end, parent span and
op id.  A function is replaced in every ``logcharts`` module namespace that
holds it, because modules bind each other's functions by name (``monoid``
binds ``smith_normal_form``; ``fibers`` and ``strata`` bind ``stalk``;
``fibers`` and ``profin`` bind ``mu``).  Wrappers return the wrapped
function's result unchanged.

Spans are kept in memory in flat arrays and written out when the run ends.
Self time is a span's duration minus the part covered by its children,
accumulated as each span closes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

# The layers, in the order the package builds on them.
LAYERS = ("abgrp", "ratlp", "monoid", "profin", "strata", "fibers",
          "semialg", "exactnum", "cli")

# Methods that carry a per-layer metric of their own.
METHODS = {
    "profin": {"FiniteAbelianProSystem": ("level", "transition_consistent")},
}

# Root span of one benchmark operation; its self time is harness time and
# work in code that no wrapper covers.
OP_SPAN = "op"


def _degree_bound_arg(args, kwargs):
    if len(args) > 1:
        return args[1]
    return kwargs.get("degree_bound", "default")


class Tracer:
    """In-memory span recorder with per-name call counts and self time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.op_total_s = 0.0
        self.ops = 0
        # Distinct keys seen within the current op, and their running sums.
        self._validate_keys: set = set()
        self._stalk_keys: set = set()
        self.validate_distinct = 0
        self.stalk_distinct = 0
        # Kummer root choices kept versus scanned (n ** generator count).
        self.kummer_kept = 0
        self.kummer_scanned = 0
        self._op_frame: list | None = None
        self._op_start = 0.0
        self._observers = {
            "monoid.validate": self._observe_validate,
            "monoid.stalk": self._observe_stalk,
            "fibers.kn_kummer_fiber": self._observe_kummer,
        }

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    # -- spans -----------------------------------------------------------

    def _open(self, nid: int) -> list:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, nid: int, frame: list, t0: float, t1: float):
        self._stack.pop()
        idx = frame[0]
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        duration = t1 - t0
        self.calls[nid] += 1
        self.self_s[nid] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def call(self, nid: int, observer, fn, args, kwargs):
        frame = self._open(nid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            t1 = time.perf_counter()
            self._close(nid, frame, t0, t1)
            if observer is not None:
                observer(args, kwargs, None)
            raise
        t1 = time.perf_counter()
        self._close(nid, frame, t0, t1)
        if observer is not None:
            observer(args, kwargs, result)
        return result

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self._validate_keys.clear()
        self._stalk_keys.clear()
        self._op_frame = self._open(self.name_id(OP_SPAN))
        self._op_start = time.perf_counter()

    def end_op(self):
        t1 = time.perf_counter()
        self._close(self.name_id(OP_SPAN), self._op_frame, self._op_start, t1)
        self.op_total_s += t1 - self._op_start
        self.ops += 1
        self.validate_distinct += len(self._validate_keys)
        self.stalk_distinct += len(self._stalk_keys)
        self._op_frame = None

    # -- counters that need the arguments or the result ------------------

    def _observe_validate(self, args, kwargs, result):
        self._validate_keys.add((args[0], _degree_bound_arg(args, kwargs)))

    def _observe_stalk(self, args, kwargs, result):
        m, f = args[0], args[1]
        self._stalk_keys.add((m.spec, m.degree_bound, f.support))

    def _observe_kummer(self, args, kwargs, result):
        if result is None:
            return
        m, n = args[0], int(args[2] if len(args) > 2 else kwargs["n"])
        self.kummer_kept += len(result)
        self.kummer_scanned += n ** m.generator_count

    # -- installing and removing wrappers --------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        observer = self._observers.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(nid, observer, fn, args, kwargs)

        return wrapper

    def install(self):
        """Wrap every public function of every layer module, everywhere it
        is bound inside the ``logcharts`` package."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"logcharts.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                replacements[obj] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._installed.append((cls, method, original))
                    setattr(cls, method,
                            self._wrap(f"{layer}.{cls_name}.{method}", original))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "logcharts"
                                      or mod_name.startswith("logcharts.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._installed.append((module, attr, obj))
                    setattr(module, attr, replacements[obj])

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def stats(self) -> dict:
        """Aggregated counts, mergeable across processes."""
        return {
            "ops": self.ops,
            "op_total_s": self.op_total_s,
            "names": {name: [self.calls[i], self.self_s[i]]
                      for i, name in enumerate(self.names)},
            "validate_distinct": self.validate_distinct,
            "stalk_distinct": self.stalk_distinct,
            "kummer_kept": self.kummer_kept,
            "kummer_scanned": self.kummer_scanned,
            "spans": len(self.span_name),
        }

    def write_spans(self, path_stem: str):
        """Write the spans as a JSON index plus one binary file of five
        consecutive native arrays: name id, parent, op id, start, end."""
        with open(path_stem + ".bin", "wb") as handle:
            for arr in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                arr.tofile(handle)
        with open(path_stem + ".json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "count": len(self.span_name),
                       "arrays": [["name", "i"], ["parent", "i"], ["op", "i"],
                                  ["start", "d"], ["end", "d"]]}, handle)


def merge_stats(parts: list[dict]) -> dict:
    out = {"ops": 0, "op_total_s": 0.0, "names": {}, "validate_distinct": 0,
           "stalk_distinct": 0, "kummer_kept": 0, "kummer_scanned": 0, "spans": 0}
    for part in parts:
        for key in ("ops", "op_total_s", "validate_distinct", "stalk_distinct",
                    "kummer_kept", "kummer_scanned", "spans"):
            out[key] += part[key]
        for name, (calls, self_s) in part["names"].items():
            acc = out["names"].setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
    return out


# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "ratlp.solve.calls": ("count", "lower"),
    "ratlp.in_cone.calls": ("count", "lower"),
    "ratlp.strict_functional.calls": ("count", "lower"),
    "ratlp.self_ms": ("ms", "lower"),
    "ratlp.share": ("ratio", "lower"),
    "monoid.validate.calls": ("count", "lower"),
    "monoid.validate.distinct_ratio": ("ratio", "higher"),
    "monoid.stalk.calls": ("count", "lower"),
    "monoid.stalk.distinct_ratio": ("ratio", "higher"),
    "monoid.faces.calls": ("count", "lower"),
    "monoid.self_ms": ("ms", "lower"),
    "monoid.share": ("ratio", "lower"),
    "abgrp.snf.calls": ("count", "lower"),
    "abgrp.snf.self_ms": ("ms", "lower"),
    "abgrp.share": ("ratio", "lower"),
    "profin.level.calls": ("count", "lower"),
    "profin.transition.calls": ("count", "lower"),
    "profin.self_ms": ("ms", "lower"),
    "profin.share": ("ratio", "lower"),
    "strata.stratify.self_ms": ("ms", "lower"),
    "strata.share": ("ratio", "lower"),
    "fibers.kummer.kept_ratio": ("ratio", "higher"),
    "fibers.torsor.self_ms": ("ms", "lower"),
    "fibers.vfe.self_ms": ("ms", "lower"),
    "fibers.share": ("ratio", "lower"),
    "semialg.check_membership.calls": ("count", "lower"),
    "semialg.self_ms": ("ms", "lower"),
    "semialg.share": ("ratio", "lower"),
    "exactnum.calls": ("count", "lower"),
    "exactnum.self_ms": ("ms", "lower"),
    "exactnum.share": ("ratio", "lower"),
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.process_ms": ("ms", "lower"),
    "cli.main_self_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "trace.untraced_ops_per_s": ("ops/s", "higher"),
    "trace.traced_ops_per_s": ("ops/s", "higher"),
}

# Counted functions behind the call and self-time metrics.
_COUNTED = {
    "ratlp.solve.calls": "ratlp.solve_standard_form",
    "ratlp.in_cone.calls": "ratlp.in_cone",
    "ratlp.strict_functional.calls": "ratlp.strict_functional",
    "monoid.validate.calls": "monoid.validate",
    "monoid.stalk.calls": "monoid.stalk",
    "monoid.faces.calls": "monoid.faces",
    "abgrp.snf.calls": "abgrp.smith_normal_form",
    "profin.level.calls": "profin.FiniteAbelianProSystem.level",
    "profin.transition.calls": "profin.FiniteAbelianProSystem.transition_consistent",
    "semialg.check_membership.calls": "semialg.check_membership",
}
_SELF_MS = {
    "abgrp.snf.self_ms": "abgrp.smith_normal_form",
    "strata.stratify.self_ms": "strata.stratify",
    "fibers.torsor.self_ms": "fibers.torsor_check",
    "fibers.vfe.self_ms": "fibers.verify_fiber_equivalence",
    "cli.main_self_ms": "cli.main",
}

# Which workload each metric's function must be called on (coverage check):
# the workload whose end-to-end metrics the layer metric should move.
COVERAGE = {
    "ratlp.solve_standard_form": ("charts", "compare"),
    "ratlp.in_cone": ("charts", "compare"),
    "ratlp.strict_functional": ("charts", "compare"),
    "monoid.validate": ("charts", "compare"),
    "monoid.stalk": ("charts", "compare"),
    "monoid.faces": ("charts", "compare"),
    "abgrp.smith_normal_form": ("charts", "compare"),
    "profin.FiniteAbelianProSystem.level": ("compare",),
    "profin.FiniteAbelianProSystem.transition_consistent": ("compare",),
    "strata.stratify": ("charts",),
    "fibers.kn_kummer_fiber": ("torsor",),
    "fibers.algebraic_kummer_fiber": ("torsor",),
    "fibers.torsor_check": ("torsor",),
    "fibers.verify_fiber_equivalence": ("compare",),
    "semialg.check_membership": ("torsor",),
    "exactnum.*": ("torsor",),
    "cli.main": ("cli",),
}


def uncovered(workload: str, stats: dict) -> list[str]:
    """Functions this workload must call at least once but did not."""
    missing = []
    for name, workloads in COVERAGE.items():
        if workload not in workloads:
            continue
        if name.endswith(".*"):
            prefix = name[:-1]
            calls = sum(c for n, (c, _) in stats["names"].items() if n.startswith(prefix))
        else:
            calls = stats["names"].get(name, [0, 0.0])[0]
        if calls == 0:
            missing.append(name)
    return missing


def layer_metrics(stats: dict, total_s: float) -> dict:
    """Per-op layer metrics from merged stats; ``total_s`` is the time the
    shares are taken of."""
    ops = max(stats["ops"], 1)
    names = stats["names"]
    out = {}

    def calls(name):
        return names.get(name, [0, 0.0])[0]

    def self_s(name):
        return names.get(name, [0, 0.0])[1]

    for metric, name in _COUNTED.items():
        out[metric] = calls(name) / ops
    for metric, name in _SELF_MS.items():
        out[metric] = 1000.0 * self_s(name) / ops
    for layer in LAYERS:
        layer_s = sum(s for n, (_, s) in names.items() if n.split(".", 1)[0] == layer)
        if layer != "cli":
            out[f"{layer}.self_ms"] = 1000.0 * layer_s / ops
        if f"{layer}.share" in PER_LAYER:
            out[f"{layer}.share"] = layer_s / total_s if total_s > 0 else 0.0
    out["exactnum.calls"] = sum(c for n, (c, _) in names.items()
                                if n.startswith("exactnum.")) / ops
    validate_calls = calls("monoid.validate")
    stalk_calls = calls("monoid.stalk")
    out["monoid.validate.distinct_ratio"] = (
        stats["validate_distinct"] / validate_calls if validate_calls else 0.0)
    out["monoid.stalk.distinct_ratio"] = (
        stats["stalk_distinct"] / stalk_calls if stalk_calls else 0.0)
    out["fibers.kummer.kept_ratio"] = (
        stats["kummer_kept"] / stats["kummer_scanned"] if stats["kummer_scanned"] else 0.0)
    return {k: v for k, v in out.items() if k in PER_LAYER}
