"""The CI workflow and tests/gates.py, which holds every check it runs."""

import glob
import json
import os
import re
import sys

import gates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tier1.yml")


def test_the_workflow_runs_only_the_gates_script():
    # An inline check in the workflow would run in CI alone: it goes into
    # tests/gates.py, which every checkout runs the same way.  Read as text,
    # since CI has no YAML parser; a block scalar reads as "|".
    with open(WORKFLOW, encoding="utf-8") as f:
        runs = re.findall(r"^[\s-]*run:\s*(.*?)\s*$", f.read(), re.M)
    assert runs == ["python -m pip install pytest", "python tests/gates.py"]


def test_a_child_gate_reads_its_own_peak_and_names_its_timeout():
    # run after a larger child, a small one reports its own peak, not the
    # largest child's so far
    big = gates.child([sys.executable, "-c", "b = b'x' * (64 << 20)"])
    small = gates.child([sys.executable, "-c", "pass"])
    assert big[0] == small[0] == 0
    assert big[2] > 64 > small[2]
    code, seconds, _ = gates.child([sys.executable, "-c", "import time; time.sleep(60)"], 0.5)
    assert code == "timeout" and 0.5 <= seconds < 30


def test_the_ledger_counts_the_public_names_without_importing_them(monkeypatch):
    import logcharts
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    assert gates.public_names() == len(logcharts.__all__)


def test_every_committed_bench_record_has_the_records_keys():
    # each BENCH_<n>.json at the root is a copy of the record gates.py writes,
    # whose per-op counts are the ones its PER_OP gates printed
    paths = glob.glob(os.path.join(ROOT, "BENCH_*.json"))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        assert set(gates.RECORD_KEYS) <= set(record), path
        assert set(record["workloads"]) == {"torsor", "compare", "charts", "cli"}, path
        for figures in record["workloads"].values():
            assert set(gates.WORKLOAD_KEYS) <= set(figures), path
        for entry in record["gates"]:
            assert set(entry) == {"name", "passed", "measured", "bound"}, path
            words = entry["name"].split()
            if words[0] == "traced":
                value = record["workloads"][words[1]]["per_op"][words[2]]
                assert entry["measured"] == f"{value:.3f} per op", (path, entry)
