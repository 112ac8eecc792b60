"""Line coverage of src/logcharts under the Tier-1 suite, with the standard library only.

    python tests/linecov.py

It writes a sitecustomize.py into a temporary directory at the front of PYTHONPATH, so every
Python process that Tier-1 starts (pytest itself, the CLI and demo subprocesses, the benchmark
runs) traces the lines of src/logcharts it executes and writes them out at exit.  conftest.py
and test_demos.py keep that entry when they prepend src.  The executable lines are those of
the compiled modules' code objects (``co_lines``).  It prints each line that never ran, then
"N of M executable lines never run", and exits 1 if N > 0 or if Tier-1 fails.  Tracing makes
the suite about four times slower; pytest does not collect this file and no gate runs it."""

import glob, json, os, subprocess, sys, tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "logcharts")

# Each traced process adds the (file, line) pairs it ran under PACKAGE to one JSON file at exit.
SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

PACKAGE, OUT = {package!r}, {out!r}
hits, owned = set(), {{}}


def _local(frame, event, arg):
    hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    mine = owned.get(name)
    if mine is None:
        mine = owned[name] = os.path.dirname(os.path.abspath(name)) == PACKAGE
    if mine:
        hits.add((name, frame.f_lineno))
        return _local
    return None


@atexit.register
def _write():
    sys.settrace(None)
    lines = {{}}
    for name, line in hits:
        lines.setdefault(os.path.abspath(name), []).append(line)
    with open(os.path.join(OUT, f"{{os.getpid()}}.json"), "w", encoding="utf-8") as f:
        json.dump(lines, f)


sys.settrace(_global)
threading.settrace(_global)
'''


def executable_lines(path):
    """The line numbers of every code object compiled from `path`."""
    with open(path, encoding="utf-8") as f:
        stack, lines = [compile(f.read(), path, "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        site, out = os.path.join(tmp, "site"), os.path.join(tmp, "hits")
        os.mkdir(site), os.mkdir(out)
        with open(os.path.join(site, "sitecustomize.py"), "w", encoding="utf-8") as f:
            f.write(SITECUSTOMIZE.format(package=PACKAGE, out=out))
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join([site, os.path.join(ROOT, "src")])}
        tier1 = subprocess.run([sys.executable, "-m", "pytest", "-q",
                                "--continue-on-collection-errors"], cwd=ROOT, env=env).returncode
        ran = {}
        for dump in glob.glob(os.path.join(out, "*.json")):
            with open(dump, encoding="utf-8") as f:
                for name, lines in json.load(f).items():
                    ran.setdefault(name, set()).update(lines)
    total, unrun = 0, []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        lines = executable_lines(path)
        total += len(lines)
        rel = os.path.relpath(path, ROOT)
        unrun += [f"{rel}:{line}" for line in sorted(lines - ran.get(path, set()))]
    for line in unrun:
        print(line)
    print(f"{len(unrun)} of {total} executable lines never run")
    return 1 if unrun or tier1 else 0


if __name__ == "__main__":
    sys.exit(main())
