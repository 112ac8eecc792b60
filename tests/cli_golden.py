"""The golden CLI corpus: argv -> (exit code, stdout, stderr) for each
subcommand on the four bundled corpus charts, ``torsor`` at the
vertex's distinguished point among them, for ``fiber`` and
``compare`` on every face of each, and for two ``--face`` arguments that
name no face, kept in ``tests/data/cli_golden.json``; then ``torsor`` at
an inline exact and floating log point, ``--table`` renderings of
``info``, ``compare``, ``torsor``, ``emit`` and ``fiber``, ``torsor`` at a
floating point with sixth-turn angles, which is read as exact turns and
prints as them, and ``torsor`` at a point with too few coordinates, which
is refused.  Then come an exact radical radius, its float twin, which
meets the relation only within a rounding error and is refused, and a
malformed radical.  Then ``info`` refuses a chart of ambient rank 20,000
with no generators, and one of 1,001 generators, both above the limit,
before building any matrix.  Then ``torsor`` refuses a power with
exponent 10^12 at a given point before taking it, and at the dense
stratum's distinguished point, radius 1, takes it at once.
Then come ``info``, ``strata`` and the vertex ``compare`` on the cone over
each of the 16 reflexive polygons (``tests/test_reflexive.py``), with its
degree-2 moves as relations, and the cubic for the triangle of P^2.  Last,
``torsor`` refuses a product of five radicals of coprime degrees before
forming it; ``mu``, ``fiber``, ``torsor`` and ``compare`` refuse a level
or bound of 0 with the library's message; and ``torsor`` refuses a
radical of degree 65, above the limit of its text form.  Then come
input that Python cannot decode or print, each refused with ``error: ``:
``info`` on a chart file with the Latin-1 byte 0xE9 and on one whose
generator is an integer of 5,001 digits, and ``torsor`` on the log point
at a radius of 5,001 digits, at the radius ``1e9999`` and the turn
``1e-9999``, whose numerator or denominator has more than 14,284 bits,
and at the radius ``1e9999999``, refused before its power of ten is built.
Last, ``info`` validates a chart with a generator of degree 10^30, above a
machine word.

An argv names a chart by its file stem (``a1_cone``), which :func:`run`
replaces by the path of the corpus chart, or else of the chart in
``tests/data``.  The corpus is rewritten only
when a change of output is intended, and that change is announced:

    PYTHONPATH=src python tests/cli_golden.py

``--check`` replays the corpus without writing it.  For every argv whose
record differs it names the argv, which of argv, exit, stdout and stderr
differ, and a unified diff of the expected against the actual value of
each; it then ends with ``N of M entries differ`` and exits 1:

    PYTHONPATH=src python -W error tests/cli_golden.py --check
"""

from __future__ import annotations

import contextlib
import difflib
import io
import itertools
import json
import os
import sys

from logcharts.cli import corpus_path, load_chart, main
from logcharts.monoid import faces, validate

CORPUS = ["log_point", "affine_line", "plane_axes", "a1_cone"]
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
PATH = os.path.join(DATA, "cli_golden.json")
REFLEXIVE = sorted(name[:-5] for name in os.listdir(DATA) if name.startswith("reflexive_"))


def argvs() -> list[list[str]]:
    """Every argv of the corpus, in a fixed order."""
    out = []
    for name in CORPUS:
        out += [["info", name], ["strata", name], ["mu", name, "6"],
                ["emit", name, "--target", "complex"], ["emit", name, "--target", "kn"],
                ["fiber", name, "3"], ["compare", name, "--bound", "10"],
                ["torsor", name, "3"]]
        for face in faces(validate(load_chart(corpus_path(name)).spec)):
            support = ",".join(map(str, face.support))
            out += [["fiber", name, "3", "--face", support],
                    ["compare", name, "--bound", "10", "--face", support]]
    # a generator subset that is not a face, and an index out of range
    out += [["fiber", "a1_cone", "3", "--face", "1"],
            ["compare", "a1_cone", "--face", "0,3"]]
    # z0 z2 = z1^2 at a given point, as exact turns and as floating angles
    exact = '{"radii": ["1", "2", "4"], "turns": ["1/3", "1/3", "1/3"]}'
    return out + [["torsor", "a1_cone", "2", "--point", exact],
                  ["torsor", "a1_cone", "2", "--point",
                   '{"radii": [1, 2, 4], "angles": [[1, 0], [0, 1], [-1, 0]]}'],
                  ["info", "a1_cone", "--table"],
                  ["compare", "a1_cone", "--bound", "3", "--table"],
                  ["torsor", "a1_cone", "2", "--point", exact, "--table"],
                  ["emit", "a1_cone", "--target", "kn", "--table"],
                  ["fiber", "a1_cone", "3", "--face", "0", "--table"],
                  # sixth-turn angles, read as the exact turn 1/6
                  ["torsor", "a1_cone", "5", "--point",
                   '{"radii": ["2","2","2"], "angles": [[0.5, 0.8660254037844386], '
                   '[0.5, 0.8660254037844386], [0.5, 0.8660254037844386]]}'],
                  # two coordinates on a three-generator chart
                  ["torsor", "a1_cone", "2", "--point",
                   '{"radii": ["1", "2"], "turns": ["0", "0"]}'],
                  # x z = y^2 at y = 2^(1/2): exact as a radical, not as a float
                  ["torsor", "a1_cone", "2", "--point",
                   '{"radii": ["1", "2^(1/2)", "2"], "turns": ["0", "0", "0"]}'],
                  ["torsor", "a1_cone", "2", "--point",
                   '{"radii": [1, 1.4142135623730951, 2], '
                   '"angles": [[1, 0], [1, 0], [1, 0]]}'],
                  ["torsor", "a1_cone", "2", "--point",
                   '{"radii": ["1", "2^(1/0)", "2"], "turns": ["0", "0", "0"]}'],
                  ["info", "rank_20000"], ["info", "generators_1001"],
                  # z0^(10^12) = z1: 2^(10^12) is never computed, 1^(10^12) is
                  ["torsor", "huge_exponent", "2", "--point",
                   '{"radii": ["2", "4"], "turns": ["0", "0"]}'],
                  ["torsor", "huge_exponent", "2", "--face", "0,1"]] + [
                      [command, stem, *flags] for stem in REFLEXIVE
                      for command, *flags in (["info"], ["strata"], ["compare", "--bound", "10"])] + [
                  # z0 z1 z2 z3 z4 = z5: the left side's base would have about 1.6 * 10^6 bits
                  ["torsor", "radical_product", "2", "--point",
                   '{"radii": ["2^(1/64)", "3^(1/63)", "5^(1/61)", "7^(1/59)", "11^(1/53)", "1"], '
                   '"turns": ["0", "0", "0", "0", "0", "0"]}'],
                  ["mu", "a1_cone", "0"], ["fiber", "a1_cone", "0"], ["torsor", "a1_cone", "0"],
                  ["compare", "a1_cone", "--bound", "0"],
                  ["torsor", "a1_cone", "2", "--point",
                   '{"radii": ["1", "2^(1/65)", "2"], "turns": ["0", "0", "0"]}'],
                  # input Python cannot decode or print: a Latin-1 byte, ints of 5,001
                  # digits, exact coordinates above 14,284 bits, a decimal exponent of 10^7
                  ["info", "latin1_name"], ["info", "generator_5001_digits"],
                  ["torsor", "log_point", "2", "--point",
                   '{"radii": [' + "1" * 5001 + '], "turns": ["0"]}'],
                  ["torsor", "log_point", "2", "--point", '{"radii": ["1e9999"], "turns": ["0"]}'],
                  ["torsor", "log_point", "2", "--point", '{"radii": ["1"], "turns": ["1e-9999"]}'],
                  ["torsor", "log_point", "2", "--point",
                   '{"radii": ["1e9999999"], "turns": ["0"]}'],
                  ["info", "generator_degree_10_30"]]


def run(argv) -> dict:
    """Exit code, stdout and stderr of ``logcharts`` on the argv, with the
    chart stem replaced by its path."""
    stem = argv[1]
    path = corpus_path(stem) if stem in CORPUS else os.path.join(DATA, f"{stem}.json")
    args = [argv[0], path, *argv[2:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def differences(want, got) -> list[str]:
    """Lines naming each part of two records that differs, every part
    followed by a unified diff of its expected and actual value."""
    lines = []
    for part in ("argv", "exit", "stdout", "stderr"):
        if want.get(part) != got.get(part):
            lines.append(f"{part} differs:")
            expected, actual = (str(r.get(part, "")) for r in (want, got))
            lines += difflib.unified_diff(expected.splitlines(), actual.splitlines(),
                                          "expected", "actual", lineterm="")
    return lines


def load() -> list[dict]:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    entries = [run(argv) for argv in argvs()]
    if sys.argv[1:] == ["--check"]:
        pairs = list(itertools.zip_longest(entries, load(), fillvalue={}))
        differing = 0
        for got, want in pairs:
            if got != want:
                differing += 1
                print(f"differs from {PATH}: {(got or want)['argv']}")
                print("\n".join(differences(want, got)))
        if differing:
            print(f"{differing} of {len(pairs)} entries differ")
            sys.exit(1)
        print(f"all {len(entries)} entries match {PATH}")
        sys.exit(0)
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(entries)} entries to {PATH}")
