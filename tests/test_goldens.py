"""Every tiny benchmark invocation reproduces its recorded output.

The benchmark in ``perfbench/`` records, for each CLI invocation a
workload can run, the exit code and the SHA-256 of stdout
(``perfbench/goldens.json``).  This runs the tiny-size invocations in
process and compares; nothing under ``perfbench/`` is written.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from click.testing import CliRunner

from knotpoly.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text(encoding="utf-8"))["invocations"]
INVOCATIONS = workloads.all_invocations("tiny")


def test_tiny_invocations_match_goldens():
    assert len(INVOCATIONS) == 333
    runner = CliRunner()
    mismatched = []
    for args in INVOCATIONS:
        golden = GOLDENS[workloads.key(args)]
        r = runner.invoke(main, list(args), env={"KNOTPOLY_FORMAT": None})
        digest = hashlib.sha256(r.stdout_bytes).hexdigest()
        if (r.exit_code, digest) != (golden["exit"], golden["sha256"]):
            mismatched.append(workloads.key(args))
    assert not mismatched
