"""One benchmark process: set up a workload, then run its timed loop.

Started by ``run.py`` from the root of a checkout, with ``src`` on
PYTHONPATH.  It prints ``READY`` as soon as set-up is done (the parent
times set-up from its own start of this process to that line), and with
``--setup-only`` it exits there.  Otherwise it runs whole cycles of the
workload's operations, one at a time, until ``--seconds`` have passed, and
prints one JSON object as its last line.

With ``--trace 1`` it first runs one cycle untraced, then installs the
span wrappers and runs cycles traced; the first traced cycle must give the
same outputs as the untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# A run stops at the first cycle boundary after --seconds, and in any case
# at the first op boundary after this many seconds, so it ends in time.
HARD_LIMIT_S = 120.0
# A timed run holds at least this many cycles.
MIN_CYCLES = 3
PROBES = 5


def known_defects():
    with open(os.path.join(HERE, "known_defects.json"), encoding="utf-8") as handle:
        return json.load(handle)["defects"]


def explain(op, failure, defects):
    """The id of the known defect that explains this failure, or None."""
    for defect in defects:
        if failure != defect["failure"] or op["family"] not in defect["families"]:
            continue
        params = op.get("params", {})
        if all(params.get(k) in allowed for k, allowed in defect.get("when", {}).items()):
            return defect["id"]
    return None


def tail_percentile(cycle_len):
    """The highest whole percentile with at least ten samples beyond it in
    MIN_CYCLES cycles, the fewest a timed run holds.  It depends only on the
    workload's inputs, so it stays the same when the code gets faster."""
    return max(50, math.floor(100 * (1 - 10 / (MIN_CYCLES * cycle_len))))


def nearest_rank(sorted_values, pct):
    index = max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)
    return sorted_values[index]


def run_loop(wl, state, ops, seconds, trace=None, digests=False, max_cycles=None,
             calibrated=True, min_cycles=MIN_CYCLES):
    """Run whole cycles of ``ops`` until ``seconds`` have passed and at
    least ``min_cycles`` cycles have run.

    With ``calibrated``, latencies are also given at reference speed (see
    calibrate.py); the traced run, whose spans would absorb the kernel's
    time, uses raw times throughout.
    """
    latencies, windows, failures, outs = [], [], [], []
    cycles = 0
    partial = False
    speed = calibrate.Speedometer()
    # Ops that run in this process are sampled by the timer; a child process
    # is bracketed by samples instead (see calibrate.py).
    timer = calibrated and not wl.children
    with speed if timer else contextlib.nullcontext():
        start = time.perf_counter()
        while True:
            for i, op in enumerate(ops):
                if trace is not None:
                    trace.begin_op(len(latencies))
                if calibrated and wl.children:
                    speed.sample()
                spent0 = speed.spent
                t0 = time.perf_counter()
                try:
                    outcome = wl.execute(state, op)
                except Exception as err:  # the op's failure is the measured outcome
                    outcome = err
                t1 = time.perf_counter()
                if trace is not None:
                    trace.end_op()
                latencies.append(t1 - t0 - (speed.spent - spent0))
                windows.append((t0, t1))
                failure = wl.check(op, outcome)
                if failure is not None:
                    failures.append((i, failure))
                if digests:
                    outs.append(hashlib.sha256(wl.digest(outcome).encode()).hexdigest())
                if t1 - start >= HARD_LIMIT_S and i + 1 < len(ops):
                    partial = True
                    break
            cycles += 1
            if calibrated and wl.children:
                speed.sample()
            elapsed = time.perf_counter() - start
            if partial or (max_cycles and cycles >= max_cycles) or (
                    elapsed >= seconds and cycles >= min_cycles):
                break
    busy = elapsed - speed.spent
    if calibrated:
        factors = [speed.factor(a, b) for a, b in windows]
        scaled = [lat * f for lat, f in zip(latencies, factors)]
        # Time between ops (checks, bookkeeping) scales by the median factor.
        busy_scaled = sum(scaled) + (busy - sum(latencies)) * statistics.median(factors)
    else:
        scaled, busy_scaled = latencies, busy
    return {"latencies": latencies, "scaled": scaled, "failures": failures,
            "wall_s": elapsed, "busy_s": busy, "busy_scaled_s": busy_scaled,
            "cycles": cycles, "partial": partial, "digests": outs,
            "calibration_s": speed.samples_s}


def summarize(ops, loop, defects):
    lat = sorted(loop["scaled"])
    raw = sorted(loop["latencies"])
    pct = tail_percentile(len(ops))
    n = len(lat)
    by_kind, unexplained = {}, 0
    for i, failure in loop["failures"]:
        op = ops[i]
        defect = explain(op, failure, defects)
        key = f"{op['family']} | {failure} | {defect or 'UNEXPLAINED'}"
        by_kind[key] = by_kind.get(key, 0) + 1
        if defect is None:
            unexplained += 1
    return {
        "attempted": n,
        "failed_all": len(loop["failures"]),
        "failed_unexplained": unexplained,
        "failed_share": len(loop["failures"]) / n,
        "failures": by_kind,
        "cycles": loop["cycles"],
        "partial_cycle": loop["partial"],
        "cycle_ops": len(ops),
        "wall_s": loop["wall_s"],
        "ops_per_s": n / loop["busy_scaled_s"],
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * nearest_rank(lat, pct),
        "raw_ops_per_s": n / loop["busy_s"],
        "raw_op_p50_ms": 1000 * statistics.median(raw),
        "raw_op_tail_ms": 1000 * nearest_rank(raw, pct),
        "calibration_ms": (1000 * statistics.median(loop["calibration_s"])
                           if loop["calibration_s"] else None),
        "tail_percentile": pct,
        "tail_samples_beyond": n - math.ceil(pct / 100 * n),
    }


def probe_ms(argv, env):
    """Median wall time of a few cold child processes."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def traced_run(wl, state, ops, seconds, defects, out_stem):
    env = dict(os.environ)
    interpreter_ms = probe_ms([sys.executable, "-c", "pass"], env)
    import_ms = probe_ms([sys.executable, "-c", "import logcharts.cli"], env) - interpreter_ms

    plain = run_loop(wl, state, ops, 0, digests=True, max_cycles=1, calibrated=False)
    if wl.name == "cli":
        trace = None
        state["trace_dir"] = os.path.dirname(out_stem)
    else:
        trace = tracing.Tracer()
        trace.install()
    try:
        traced = run_loop(wl, state, ops, seconds, trace=trace, digests=True,
                          calibrated=False, min_cycles=1)
    finally:
        if trace is not None:
            trace.uninstall()
    first = traced["digests"][:len(ops)]
    mismatched = sum(1 for a, b in zip(plain["digests"], first) if a != b)

    if trace is None:
        stats = tracing.merge_stats(state["trace_parts"])
        total_s = sum(traced["latencies"])
    else:
        stats = trace.stats()
        trace.write_spans(out_stem + "-spans")
        total_s = stats["op_total_s"]
    metrics = tracing.layer_metrics(stats, total_s)
    metrics["cli.interpreter_ms"] = interpreter_ms
    metrics["cli.import_ms"] = import_ms
    metrics["cli.process_ms"] = (1000 * total_s / len(traced["latencies"])
                                 if wl.name == "cli" else 0.0)
    # Overhead on the same ops: the first traced cycle against the untraced one.
    untraced_rate = len(ops) / sum(plain["latencies"])
    traced_rate = len(ops) / sum(traced["latencies"][:len(ops)])
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_ratio"] = traced_rate / untraced_rate
    missing = tracing.uncovered(wl.name, stats)
    summary = summarize(ops, traced, defects)
    return {
        "summary": summary,
        "metrics": metrics,
        "uncovered": missing,
        "output_mismatches": mismatched,
        "spans": stats["spans"],
        "correct": summary["failed_unexplained"] == 0 and not missing and mismatched == 0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-stem", default=None)
    args = parser.parse_args(argv)

    import logcharts
    import logcharts.cli  # noqa: F401  (binds every module the wrappers cover)

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    state = wl.setup(logcharts, inputs, ROOT)
    print("READY", flush=True)
    if args.setup_only:
        wl.teardown(state)
        return 0

    ops = inputs["ops"]
    defects = known_defects()
    # Keep the set-up's objects out of the collector's later full passes,
    # whose cost would otherwise land on whichever op triggers them.
    gc.freeze()
    try:
        if args.trace:
            result = traced_run(wl, state, ops, args.seconds, defects, args.out_stem)
        else:
            loop = run_loop(wl, state, ops, args.seconds)
            summary = summarize(ops, loop, defects)
            who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
            summary["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
            result = {"summary": summary, "correct": summary["failed_unexplained"] == 0}
    finally:
        wl.teardown(state)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
