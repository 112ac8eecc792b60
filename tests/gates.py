"""The CI gates.  .github/workflows/tier1.yml runs `python tests/gates.py` from the repository
root, as any checkout can.  Each gate prints one line: PASS or FAIL, its name, what it
measured and its bound.  Every gate runs even after one fails; the exit is 1 if any did.
Last, the script writes one summary record of its runs to RECORD, which git ignores, and
prints a line naming it; a change copies it to BENCH_<n>.json at the root, its "before"."""

import ast, glob, json, os, pathlib, platform, signal, subprocess, sys, tempfile, threading, time

PY, DIRS = sys.executable, ["src", "tests", "perfbench", "demos"]
SRC = {**os.environ, "PYTHONPATH": "src"}
PER_OP = {  # (traced workload, metric) -> the largest value per op that passes
    # A charts cycle has a fixed mix and runs whole, so its counts are exact: validate solves
    # the sharpness LP only where neither the coordinate sum nor, in rank 1, the sign grades
    # every generator (16 rank-1 stalks made it 26 LPs per 39 ops), asks in_cone only at points
    # no earlier Farkas certificate excludes, and runs one Smith form per matrix, with none for
    # the span of a supplied set whose kernel basis lies within the walk's bound, and none for a
    # dense face, which leaves nothing to project (225 per 39; 247 with the dense faces' 22).
    ("charts", "ratlp.strict_functional.calls"): 0.26,
    ("charts", "abgrp.snf.calls"): 5.77,
    ("charts", "ratlp.in_cone.calls"): 0.667,
    # An op validates the stalk once: the face's Smith form and the quotient's, no span one, and
    # on the dense face the empty quotient's alone (39 per 22 ops; 44 with a dense face's own).
    ("compare", "abgrp.snf.calls"): 1.773,
    # The coherence walk checks (m, m/2) for even m <= bound/2 and every covering pair above
    # bound/2 (5,066 per 110 ops); the full covering walk made 72.65 per op.
    ("compare", "profin.transition.calls"): 46.06,
    # The records read levels 1..bound and the walk its checks' two levels (16,360 per 110 ops,
    # 201.9 under the full covering walk).
    ("compare", "profin.level.calls"): 148.73,
    # A chart keeps one Smith form of its Kummer congruences per support, which
    # the fibers and the deck group share (3.75 per op when each solved its own).
    ("torsor", "abgrp.snf.calls"): 1,
    # A log point's turn sums are semialg._turn_offsets' integers, with no float
    # chord; semialg.check_membership computes the only chords, a floating complex
    # point's.  One unit_from_turn_float per relation row and offset (7.65) fails.
    ("torsor", "exactnum.calls"): 7.08,
    # One membership pass per fiber: the log fiber's, and stratum_of_point's for
    # the algebraic fiber, which reads its face there instead of checking again.
    ("torsor", "semialg.check_membership.calls"): 2,
}
# At the level cap, 100,000, the vertex's two towers both complete Z^2 and share one table.
COMPARE = ("import sys; from logcharts.cli import corpus_path, load_chart; from logcharts"
           ".fibers import verify_fiber_equivalence as compare; from logcharts.monoid import "
           "face_with_support, validate; m = validate(load_chart(corpus_path('plane_axes')).spec)"
           "; sys.exit(0 if compare(m, face_with_support(m, ()), 100_000)[0] else 1)")


RECORD = "out/bench.json"
RECORD_KEYS = ("commit", "python", "cpus", "indicative", "workloads", "gates")
WORKLOAD_KEYS = ("ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "shares", "per_op")
GATES = []  # every gate's record, in the order they ran


def gate(ok: bool, name: str, measured: str, bound: str) -> bool:
    GATES.append({"name": name, "passed": ok, "measured": measured, "bound": bound})
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {measured} (bound: {bound})", flush=True)
    return ok


def child(argv, timeout=None, env=None, stdout=None):
    """Run argv; return its exit code ("timeout" once killed at `timeout`
    seconds), its seconds and its own peak RSS in MiB, read by wait4: in one
    process, RUSAGE_CHILDREN is the largest child so far, pytest included."""
    start, proc = time.monotonic(), subprocess.Popen(argv, env=env, stdout=stdout)
    timer = threading.Timer(timeout or threading.TIMEOUT_MAX, os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    seconds, proc.returncode = time.monotonic() - start, os.waitstatus_to_exitcode(status)
    timed_out = timeout and seconds >= timeout and proc.returncode == -signal.SIGKILL
    return "timeout" if timed_out else proc.returncode, seconds, usage.ru_maxrss / 1024  # KiB


def exits_0(name, argv, env=None, timeout=None, peak=None) -> bool:
    code, seconds, mib = child(argv, timeout, env, subprocess.DEVNULL if peak else None)
    bound = "exit 0" + (f", {timeout} s" if timeout else "") + (f", {peak} MiB" if peak else "")
    return gate(code == 0 and (peak is None or mib <= peak), name,
                f"exit {code} in {seconds:.1f} s, peak {mib:.0f} MiB", bound)


def syntax_310() -> bool:
    """CI's oldest Python is 3.10, which need not be the one running here."""
    errors, paths = [], sorted(p for d in DIRS for p in glob.glob(f"{d}/**/*.py", recursive=True))
    for path in paths:
        try:
            ast.parse(pathlib.Path(path).read_text(encoding="utf-8"), path, feature_version=(3, 10))
        except SyntaxError as err:
            errors.append(f"{path}:{err.lineno}: {err.msg}")
    return gate(not errors, "3.10 syntax", "; ".join(errors) or f"{len(paths)} files parse", "3.10")


def smoke(workload, trace):
    """A short perfbench run, whose last line of output is its JSON result."""
    with tempfile.TemporaryFile("w+") as out:
        code, seconds, _ = child([PY, "perfbench/run.py", "--workload", workload, "--seed", "1",
                                  "--seconds", "2", "--trace", str(trace)], stdout=out)
        out.seek(0)
        *summary, last = out.read().splitlines() or [""]
    print(*summary, sep="\n")
    result = json.loads(last) if last.startswith("{") and last.endswith("}") else {}
    return gate(code == 0 and result.get("correct") is True, f"smoke {workload} trace {trace}",
                f"exit {code} in {seconds:.1f} s, correct {json.dumps(result.get('correct'))}",
                "exit 0, correct true"), result.get("metrics", {})


def public_names() -> int:
    """The names logcharts exports, counted off `_HOMES` in its __init__ without importing it."""
    tree = ast.parse(pathlib.Path("src/logcharts/__init__.py").read_text(encoding="utf-8"))
    homes = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "_HOMES" for t in node.targets))
    return sum(map(len, ast.literal_eval(homes).values()))


def main(chart, walked) -> int:
    # Per-module and total counts, and the public names, for the round's deletion ledger.
    lines = {os.path.basename(p): pathlib.Path(p).read_text(encoding="utf-8").count("\n")
             for p in sorted(glob.glob("src/logcharts/*.py"))}
    passed = [gate(True, "lines in src/logcharts", f"{sum(lines.values())} in all, " + ", ".join(
        f"{name} {n}" for name, n in lines.items()) + f"; {public_names()} public names", "none"),
              syntax_310()]
    for name, argv, *bounds in [
        # perfbench/ and demos/ run only as subprocesses without -W error, so compile
        # every file with warnings as errors (3.12+ warns of an invalid escape).
        ("compile with warnings as errors", [PY, "-W", "error", "-m", "compileall", "-q", *DIRS]),
        ("tier-1 tests", [PY, "-m", "pytest", "-q", "--continue-on-collection-errors",
                          "--durations=10"], SRC),
        # 499,999 is the largest degree bound the 500,000-point box cap admits for <1, 2> and
        # <1, 2, 3>: a listing growing faster than the bound hits the timeout, one holding every
        # layer the peak.  <1, 2> (corank 1) takes the closed-form listing, <1, 2, 3> the walk.
        ("cold info at the largest admitted degree bound",
         [PY, "-m", "logcharts.cli", "info", chart, "--degree-bound", "499999"], SRC, 120, 100),
        ("cold info on the walk at the largest admitted degree bound",
         [PY, "-m", "logcharts.cli", "info", walked, "--degree-bound", "499999"], SRC, 120, 100),
        # 99,991 is the largest prime level the fiber cap admits on the log point: a radius
        # test on undivided exponents, or a root's normal form trying all integers, takes minutes.
        ("cold torsor at the largest prime level on a radical radius",
         [PY, "-m", "logcharts.cli", "torsor", "src/logcharts/data/charts/log_point.json", "99991",
          "--point", '{"radii": ["(99999999/99999998)^(1/64)"], "turns": ["1/3"]}'], SRC, 60, 150),
        ("comparison at the level cap", [PY, "-c", COMPARE], SRC, 60, 80),
        # A changed CLI output fails with a unified diff of each differing entry; a hanging
        # entry fails at the timeout, 30 times the corpus's 2 s.
        ("CLI golden corpus", [PY, "-W", "error", "tests/cli_golden.py", "--check"], SRC, 60),
        ("benchmark self-test", [PY, "perfbench/selftest.py"])]:
        passed.append(exits_0(name, argv, *bounds))
    # Only the untraced cli run starts `python -m logcharts.cli` itself: the traced one goes
    # through perfbench/shim.py, whose tracer imports every layer before the command runs.
    runs = {(w, t): smoke(w, t) for t in (0, 1) for w in ("torsor", "compare", "charts", "cli")}
    passed += [ok for ok, _ in runs.values()]
    for (workload, metric), bound in PER_OP.items():
        value = runs[workload, 1][1].get(metric, {}).get("value")
        passed.append(gate(value is not None and value <= bound, f"traced {workload} {metric}",
                           "no result" if value is None else f"{value:.3f} per op", f"<= {bound}"))
    print(f"{passed.count(False)} of {len(passed)} gates failed", flush=True)
    write_record(runs)
    return 1 if False in passed else 0


def write_record(runs):
    """The summary record: where and on what the gates ran, each workload's untraced
    end-to-end figures and traced layer shares and per-op counts, and every gate."""
    try:  # None outside a git checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    workloads = {}
    for workload in ("torsor", "compare", "charts", "cli"):
        plain, traced = runs[workload, 0][1], runs[workload, 1][1]
        workloads[workload] = {key: plain.get(key, {}).get("value") for key in WORKLOAD_KEYS[:4]}
        workloads[workload]["shares"] = {k: v["value"] for k, v in traced.items()
                                         if k.endswith(".share")}
        workloads[workload]["per_op"] = {k: v["value"] for k, v in traced.items()
                                         if k.endswith(".calls")}
    record = {"commit": commit, "python": platform.python_version(), "cpus": os.cpu_count(),
              "indicative": "one 2 s smoke run per workload, seed 1: indicative only; a "
                            "claimed gain needs alternating pairs of full runs",
              "workloads": workloads, "gates": GATES}
    os.makedirs(os.path.dirname(RECORD), exist_ok=True)
    pathlib.Path(RECORD).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    print(f"summary record written to {RECORD}", flush=True)


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with tempfile.TemporaryDirectory() as tmp:
        chart = pathlib.Path(tmp, "one_two.json")
        chart.write_text('{"name": "one-two", "ambient_rank": 1, "generators": [[1], [2]]}')
        walked = pathlib.Path(tmp, "one_two_three.json")
        walked.write_text('{"name": "one-two-three", "ambient_rank": 1, '
                          '"generators": [[1], [2], [3]]}')
        sys.exit(main(str(chart), str(walked)))
