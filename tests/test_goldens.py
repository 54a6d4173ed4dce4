"""Benchmark invocations reproduce their recorded output.

The benchmark in ``perfbench/`` records, for each CLI invocation a
workload can run, the exit code and the SHA-256 of stdout
(``perfbench/goldens.json``).  This runs every tiny-size invocation, the
full-size obstruction sweep, two full-size glue sweeps and the 32
full-size large ``alexander`` queries in process and compares; nothing
under ``perfbench/`` is written.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
_RECORDED = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))
GOLDENS = _RECORDED["invocations"]
GLUE_ABORTS = _RECORDED["glue_aborts"]["full"]
INVOCATIONS = workloads.all_invocations("tiny")
# query-mix's large queries: T(p, p - 3) for 300 <= p < 324, 3 not dividing p,
# each as text and as JSON
LARGE_QUERIES = [
    args for p, q in workloads.LARGE_KNOTS["full"] for args in workloads._large_variants(p, q)
]


def replay(run, args):
    code, out, _ = run(args)
    return code, hashlib.sha256(out).hexdigest()


def test_tiny_invocations_match_goldens(run):
    assert len(INVOCATIONS) == 333
    mismatched = []
    for args in INVOCATIONS:
        golden = GOLDENS[workloads.key(args)]
        if replay(run, args) != (golden["exit"], golden["sha256"]):
            mismatched.append(workloads.key(args))
    assert not mismatched


def test_full_obstruct_sweep_matches_golden(run):
    # 8,500 records, every one read from the closed form
    args = ("sweep", "obstruct", *workloads.OBSTRUCT_ARGS["full"])
    golden = GOLDENS[workloads.key(args)]
    assert golden["exit"] == 0 and golden["records"] == 8500
    assert replay(run, args) == (0, golden["sha256"])


@pytest.mark.parametrize("cli_seed", [3, 17])
def test_full_glue_sweep_matches_golden(run, cli_seed):
    # 6,000 records each, against 15 per tiny sweep; neither seed aborts
    assert cli_seed not in GLUE_ABORTS
    per_case = workloads.GLUE_PER_CASE["full"]
    args = ("sweep", "glue", "--per-case", str(per_case), "--seed", str(cli_seed))
    golden = GOLDENS[workloads.key(args)]
    assert golden["exit"] == 0 and golden["records"] == 3 * per_case
    assert replay(run, args) == (0, golden["sha256"])


@pytest.mark.parametrize("args", LARGE_QUERIES, ids=workloads.key)
def test_full_large_alexander_query_matches_golden(run, args):
    assert len(LARGE_QUERIES) == 32
    golden = GOLDENS[workloads.key(args)]
    assert golden["exit"] == 0 and golden["records"] == 1
    assert replay(run, args) == (0, golden["sha256"])
