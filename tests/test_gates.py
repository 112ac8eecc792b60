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


def test_every_mutant_ledger_entry_has_a_module_a_label_and_a_verdict():
    # tests/data/mutants.json holds one entry per surviving mutant, labelled as
    # tests/mutants.py prints it: equivalent with its argument, a gap with the
    # test that now kills it, or dead once its code is deleted
    with open(os.path.join(ROOT, "tests", "data", "mutants.json"), encoding="utf-8") as handle:
        ledger = json.load(handle)
    assert ledger
    for entry in ledger:
        module = entry["module"]
        assert os.path.isfile(os.path.join(ROOT, "src", "logcharts", f"{module}.py")), entry
        assert re.fullmatch(rf"{module}\.py:\d+: \S.* -> \S.*", entry["mutant"]), entry
        reason = {"equivalent": "argument", "gap": "test", "dead": "argument"}[entry["verdict"]]
        assert entry.get(reason), entry
        if entry["verdict"] == "gap":
            path, name = entry["test"].split("::")
            with open(os.path.join(ROOT, path), encoding="utf-8") as handle:
                assert f"def {name}(" in handle.read(), entry
    labels = [(entry["module"], entry["mutant"]) for entry in ledger]
    assert len(labels) == len(set(labels))
