"""The package surface: lazy loading of the layers behind `__all__`, and a
library that draws nothing at random."""

import ast
import glob
import os
import subprocess
import sys

import pytest

import logcharts


def test_import_loads_no_layer_module():
    script = ("import sys, logcharts\n"
              "print(' '.join(m for m in sys.modules if m.startswith('logcharts.')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_public_names_resolve_bind_and_are_listed():
    names = dir(logcharts)
    namespace = {}
    exec("from logcharts import *", namespace)
    for name in logcharts.__all__:
        value = getattr(logcharts, name)
        assert namespace[name] is value, name
        assert name in names, name
        home = sys.modules[value.__module__]
        assert getattr(home, name) is value, name
    assert set(namespace) - {"__builtins__"} == set(logcharts.__all__)
    for layer in ("abgrp", "errors", "exactnum", "fibers", "monoid", "profin", "ratlp",
                  "semialg", "strata"):
        assert getattr(logcharts, layer) is sys.modules[f"logcharts.{layer}"]
    with pytest.raises(AttributeError):
        logcharts.no_such_name


def test_no_library_module_imports_random():
    # the library is deterministic: seeded draws are test data (tests/oracles.py)
    src = os.path.dirname(os.path.abspath(logcharts.__file__))
    paths = sorted(glob.glob(os.path.join(src, "*.py")))
    assert len(paths) >= 12
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.level == 0}
        assert "random" not in imported, path
