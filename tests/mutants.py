"""Mutation testing of one module of src/logcharts, with the standard library alone.

    python tests/mutants.py MODULE TEST_FILE [TEST_FILE ...]

for example ``python tests/mutants.py profin tests/test_profin.py``, from the repository
root.  The mutants are read off the module's syntax tree, in source order: each comparison
flipped (< and <=, > and >=, == and !=, is and is not, in and not in), each int constant
moved by +1 and by -1, each ``and``/``or`` swapped, and each binary or augmented + and -
swapped.  The checkout is copied to a temporary directory once, and the checkout itself is
never written.  Each mutant is written into the copy as ``ast.unparse`` prints the mutated
tree, and the named test files run against it under a timeout; a timeout counts as killed.
A mutant that the named tests leave alive runs once more against the whole Tier-1 suite.
The script prints and flushes one line per mutant as soon as its verdict is in: ``killed``
by the named tests, ``tier-1`` when only the rest of Tier-1 kills it, or ``survived``;
then ``K of N killed``.  It is a tool, not a gate: it exits 0 whatever the count, and 2 when
the unmutated module fails its tests.
"""

import ast, os, shutil, signal, subprocess, sys, tempfile, time
from pathlib import Path

FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.In: ast.NotIn, ast.NotIn: ast.In}
SWAP = {ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
          ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
          ast.NotIn: "not in", ast.And: "and", ast.Or: "or", ast.Add: "+", ast.Sub: "-"}
# Fresh bytecode for every mutant: a .pyc is keyed by the source's mtime in whole seconds.
ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
       "PYTHONDONTWRITEBYTECODE": "1"}


def sites(tree):
    """(node, key) for every mutant of the tree, in source order: key is the index of
    a comparison's operator, an int constant's step, or None for a swapped operator."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            found += [(node, j) for j in range(len(node.ops))]
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found += [(node, 1), (node, -1)]
        elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
            found.append((node, None))
    return sorted(found, key=lambda site: (site[0].lineno, site[0].col_offset))


def mutate(node, key) -> str:
    """Apply one mutation in place, and say what it changed."""
    if isinstance(node, ast.Compare):
        old = type(node.ops[key])
        node.ops[key] = FLIP[old]()
        return f"{SYMBOL[old]} -> {SYMBOL[FLIP[old]]}"
    if isinstance(node, ast.Constant):
        node.value += key
        return f"{node.value - key} -> {node.value}"
    old = type(node.op)
    node.op = SWAP[old]()
    return f"{SYMBOL[old]} -> {SYMBOL[SWAP[old]]}"


def passes(argv, cwd, timeout=None) -> bool:
    """Does argv exit 0 within the timeout?  A timeout kills its whole process group."""
    proc = subprocess.Popen(argv, cwd=cwd, env=ENV, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    module, tests = argv[0], argv[1:]
    root = Path(__file__).resolve().parent.parent
    source = (root / "src" / "logcharts" / f"{module}.py").read_text(encoding="utf-8")
    total = len(sites(ast.parse(source)))
    pytest = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "checkout")
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "out"))
        target = copy / "src" / "logcharts" / f"{module}.py"

        def write(index=None) -> str:
            """Write the mutant (the unmutated module for None) and name it."""
            tree = ast.parse(source)
            label = ""
            if index is not None:
                node, key = sites(tree)[index]
                label = f"[{index + 1}/{total}] {module}.py:{node.lineno}: {mutate(node, key)}"
            target.write_text(ast.unparse(tree) + "\n", encoding="utf-8")
            return label

        def timeout(argv) -> float | None:
            """Five times the unmutated module's run plus 10 s, or None if that run fails."""
            write()
            start = time.monotonic()
            if not passes(argv, copy):
                return None
            return 5 * (time.monotonic() - start) + 10

        named = timeout(pytest + tests)
        if named is None:
            print(f"the unmutated {module} fails {' '.join(tests)}", file=sys.stderr)
            return 2
        alive = []
        for index in range(total):
            label = write(index)
            if passes(pytest + tests, copy, named):
                alive.append(index)
            else:
                print(f"killed    {label}", flush=True)
        tier1 = timeout(pytest) if alive else None
        if alive and tier1 is None:
            print(f"the unmutated {module} fails Tier-1", file=sys.stderr)
            return 2
        survivors = 0
        for index in alive:
            label = write(index)
            survived = passes(pytest, copy, tier1)
            survivors += survived
            # a mutant only the rest of Tier-1 kills names a gap in the named tests
            print(f"{'survived' if survived else 'tier-1  '}  {label}", flush=True)
    print(f"{total - survivors} of {total} killed ({len(alive)} alive after "
          f"{' '.join(tests)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
