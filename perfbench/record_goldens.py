#!/usr/bin/env python3
"""Record goldens.json: the stdout digest, exit code and record count of
every invocation any seed of any workload can produce, at both sizes.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record_goldens.py

A glue sweep whose CLI seed aborts is recorded (exit code and the error
record's digest) and listed under "glue_aborts", which keeps it out of
the timed pool.  Any other invocation that exits nonzero or prints no
record stops the recording: the workloads must be inputs the CLI accepts.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads
from run import GOLDENS, child_env, run_cli


def count_records(args, stdout: bytes) -> int:
    """Records in one invocation's stdout: sweep lines minus the summary."""
    if args[0] == "sweep":
        return max(stdout.count(b"\n") - 1, 0)
    return 1 if stdout else 0


def main() -> int:
    env = child_env()
    invocations: dict[str, dict] = {}
    aborts: dict[str, list[int]] = {}
    for size in workloads.SIZES:
        aborts[size] = []
        for args in workloads.all_invocations(size):
            key = workloads.key(args)
            if key in invocations:
                continue
            stdout, code, wall = run_cli(args, env)
            records = count_records(args, stdout) if code == 0 else 0
            invocations[key] = {
                "sha256": hashlib.sha256(stdout).hexdigest(),
                "exit": code,
                "records": records,
            }
            print(f"{wall:7.3f}s exit {code} records {records:6d}  {key}", flush=True)
            if args[:2] == ("sweep", "glue") and code != 0:
                aborts[size].append(int(args[-1]))
            elif code != 0 or records == 0:
                print(f"knotpoly {key} exited {code} with {records} records", file=sys.stderr)
                return 1
    GOLDENS.write_text(
        json.dumps({"glue_aborts": aborts, "invocations": invocations}, indent=1, sort_keys=True)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(invocations)} goldens; glue aborts {aborts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
