"""logcharts benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a logcharts checkout; it needs nothing but the
standard library and ``src/logcharts``.  Workloads: compare, torsor,
charts, cli (see perfbench/README.md).  Each run sets the workload up
several times in fresh processes (``setup_s`` is the median), then runs it
in one more process for ``--seconds`` seconds of whole cycles.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` the
per-layer metrics of a traced run and the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, stamped with
the Python version, CPU count, platform, commit and seed, goes to
``perfbench/out/``.  Exits 2 without a result when the checkout has no
``src/logcharts`` or a process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("compare", "torsor", "charts", "cli")
# Set-up-only processes per run; the timed process adds one more sample.
SETUPS = 5
# Kernel samples taken before and after each worker, while no other of the
# benchmark's processes runs.
CALIBRATION_SAMPLES = 3
CHILD_TIMEOUT_S = 170

sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("LOGCHARTS_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, extra):
    """Start one worker; return (seconds until READY at reference speed,
    remaining stdout)."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + extra
    speed = calibrate.Speedometer()
    for _ in range(CALIBRATION_SAMPLES):
        speed.sample()
    proc = None
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        for _ in range(CALIBRATION_SAMPLES):
            speed.sample()
        ready_s = (t1 - t0) * speed.factor(t0, t1)
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}) during "
                         f"{'set-up' if line.strip() != 'READY' else 'the run'}")
    return ready_s, rest


def source_digest():
    """sha256 over the package sources, a commit stand-in outside git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "logcharts")
    for base, dirs, files in sorted(os.walk(pkg)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def stamp(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def metric(value, unit, samples, **extra):
    return dict({"value": value, "unit": unit, "samples": samples}, **extra)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "logcharts", "__init__.py")):
        print(f"error: no logcharts sources under {SRC}", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts: the calibration
    # kernel (calibrate.py) then samples the CPU that the measured work,
    # including each cli child, runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    try:
        # setup_s is an end-to-end metric; the traced run does not report it.
        setups = [start_worker(args, ["--setup-only"])[0]
                  for _ in range(0 if args.trace else SETUPS)]
        ready_s, rest = start_worker(args, ["--out-stem", stem])
        setups.append(ready_s)
        result = json.loads(rest.strip().splitlines()[-1])
    except (BenchError, subprocess.TimeoutExpired, ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    summary = result["summary"]
    n = summary["attempted"]
    if args.trace:
        detailed = {name: metric(value, tracing.PER_LAYER[name][0], summary["attempted"])
                    for name, value in sorted(result["metrics"].items())}
    else:
        detailed = {
            "setup_s": metric(statistics.median(setups), "s", len(setups)),
            "ops_per_s": metric(summary["ops_per_s"], "ops/s", n),
            "op_p50_ms": metric(summary["op_p50_ms"], "ms", n),
            "op_tail_ms": metric(summary["op_tail_ms"], "ms", n,
                                 percentile=summary["tail_percentile"],
                                 samples_beyond=summary["tail_samples_beyond"]),
            "failed_share": metric(summary["failed_share"], "ratio", n),
            "peak_rss_mb": metric(summary["peak_rss_mb"], "MiB", 1),
        }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {summary['cycles']} x {summary['cycle_ops']} ops  "
          f"wall {summary['wall_s']:.2f} s")
    for name, m in detailed.items():
        extra = f"  p{m['percentile']}, {m['samples_beyond']} beyond" if "percentile" in m else ""
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}{extra}")
    print(f"  failed {summary['failed_all']} of {n} "
          f"({summary['failed_unexplained']} not explained by a known defect)")
    for kind, count in sorted(summary["failures"].items()):
        print(f"    {count:5d}  {kind}")
    if args.trace:
        print(f"  spans {result['spans']}  output mismatches {result['output_mismatches']}  "
              f"uncovered {result['uncovered'] or 'none'}")

    record = {"stamp": stamp(args), "setup_samples_s": setups, "metrics": detailed,
              "summary": summary, "correct": result["correct"]}
    for key in ("uncovered", "output_mismatches", "spans"):
        if key in result:
            record[key] = result[key]
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    names = tracing.PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": n,
        "failed": summary["failed_unexplained"],
        "metrics": {name: {"value": detailed[name]["value"], "unit": detailed[name]["unit"]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
