"""The golden CLI corpus: argv -> (exit code, stdout, stderr) for each
subcommand on the four bundled corpus charts, for ``fiber`` and
``compare`` on every face of each, and for two ``--face`` arguments that
name no face, kept in ``tests/data/cli_golden.json``; then ``torsor`` at
an inline exact and floating log point, and one ``--table`` rendering.

An argv names a corpus chart by its file stem (``a1_cone``), which
:func:`run` replaces by the chart's path.  The corpus is rewritten only
when a change of output is intended, and that change is announced:

    PYTHONPATH=src python tests/cli_golden.py

``--check`` replays the corpus without writing it, and exits 1 naming the
first argv whose record differs:

    PYTHONPATH=src python -W error tests/cli_golden.py --check
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys

from logcharts.cli import corpus_path, load_chart, main
from logcharts.monoid import faces, validate

CORPUS = ["log_point", "affine_line", "plane_axes", "a1_cone"]
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")


def argvs() -> list[list[str]]:
    """Every argv of the corpus, in a fixed order."""
    out = []
    for name in CORPUS:
        out += [["info", name], ["strata", name], ["mu", name, "6"],
                ["emit", name, "--target", "complex"], ["emit", name, "--target", "kn"],
                ["fiber", name, "3"], ["compare", name, "--bound", "10"],
                ["torsor", name, "3", "--seed", "5"]]
        for face in faces(validate(load_chart(corpus_path(name)).spec)):
            support = ",".join(map(str, face.support))
            out += [["fiber", name, "3", "--face", support],
                    ["compare", name, "--bound", "10", "--face", support]]
    # a generator subset that is not a face, and an index out of range
    out += [["fiber", "a1_cone", "3", "--face", "1"],
            ["compare", "a1_cone", "--face", "0,3"]]
    # z0 z2 = z1^2 at a given point, as exact turns and as floating angles
    return out + [["torsor", "a1_cone", "2", "--point",
                   '{"radii": ["1", "2", "4"], "turns": ["1/3", "1/3", "1/3"]}'],
                  ["torsor", "a1_cone", "2", "--point",
                   '{"radii": [1, 2, 4], "angles": [[1, 0], [0, 1], [-1, 0]]}'],
                  ["info", "a1_cone", "--table"]]


def run(argv) -> dict:
    """Exit code, stdout and stderr of ``logcharts`` on the argv, with the
    chart stem replaced by its path; LOGCHARTS_* settings must be unset."""
    args = [argv[0], corpus_path(argv[1]), *argv[2:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def load() -> list[dict]:
    with open(PATH, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    for key in [k for k in os.environ if k.startswith("LOGCHARTS_")]:
        del os.environ[key]
    entries = [run(argv) for argv in argvs()]
    if sys.argv[1:] == ["--check"]:
        for got, want in itertools.zip_longest(entries, load()):
            if got != want:
                print(f"differs from {PATH}: {(got or want)['argv']}")
                sys.exit(1)
        print(f"all {len(entries)} entries match {PATH}")
        sys.exit(0)
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(entries)} entries to {PATH}")
