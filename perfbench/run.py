#!/usr/bin/env python3
"""Benchmark for the knotpoly CLI.

Runs one workload against ``knotpoly`` as a user runs it: a fresh
interpreter per command, one command at a time (closed loop, one client),
each stdout checked byte for byte against a golden digest together with
the exit code.  Run from the repository root:

    python3 perfbench/run.py --workload obstruct-sweep --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` drives the first pass of the workload in process through
the click entry point, once with the tracer's wrappers installed and
once plain, and reports the per-layer metrics.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; a
results file with the environment goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, traced_knotpoly

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens.json"
RESULTS = ROOT / ".bench_results"

# What the installed ``knotpoly`` console script runs.
CLI_BOOT = "import sys; from knotpoly.cli import main; sys.exit(main())"
FORMAT_ENV = "KNOTPOLY_FORMAT"
SETUP_SAMPLES = 21

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "records_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_s": "s",
    "query_p90_s": "s",
}

# span name -> metrics derived from its calls and self time
_SPAN_METRICS = {
    "laurent.mul": ("calls", "self_s"),
    "laurent.exact_divide": ("calls", "self_s"),
    "laurent.symmetrize": ("calls", "self_s"),
    "laurent.str": ("self_s",),
    "torusknot.alexander": ("calls", "self_s"),
    "satellite.winding_violation": ("calls", "self_s"),
    "satellite.lspace_admissible": ("calls", "self_s"),
    "apolygon.parse": ("self_s",),
    "apolygon.newton_polygon": ("calls", "self_s"),
    "apolygon.detect": ("self_s",),
    "repglue.sample_instance": ("calls", "self_s"),
    "repglue.construct_extension": ("self_s",),
    "repglue.verify_extension": ("self_s",),
    "repglue.mat_pow": ("calls", "self_s"),
    "cli.output": ("self_s",),
    "cli.command": ("self_s",),
}
_COUNTER_UNITS = {
    "laurent.mul.term_pairs": "count",
    "laurent.exact_divide.quotient_terms": "terms",
    "laurent.str.bytes": "B",
    "satellite.prediction_mismatch.count": "count",
    "repglue.mat_pow.exponent_bits": "bits",
    "cli.json_dumps.calls": "count",
}
PER_LAYER_UNITS = {
    **{f"{span}.{kind}": ("s" if kind == "self_s" else "count")
       for span, kinds in _SPAN_METRICS.items() for kind in kinds},
    **_COUNTER_UNITS,
    "torusknot.alexander.distinct_ratio": "ratio",
    "repglue.verify_extension.max_residual": "norm",
    "cli.import_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


# ------- goldens and checks -------


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as f:
        return json.load(f)


def glue_aborts(goldens: dict, size: str) -> frozenset:
    return frozenset(goldens["glue_aborts"][size])


def verify(goldens: dict, args, stdout: bytes, code: int) -> tuple[int, int]:
    """(records attempted, records failed) for one invocation.

    An invocation without a golden, with another exit code or another
    stdout digest fails every record its golden promises, and at least one.
    """
    golden = goldens["invocations"].get(workloads.key(args))
    if golden is None:
        return 1, 1
    records = max(golden["records"], 1)
    ok = (
        golden["records"] > 0
        and code == golden["exit"]
        and hashlib.sha256(stdout).hexdigest() == golden["sha256"]
    )
    return records, 0 if ok else records


def is_correct(attempted: int, failed: int) -> bool:
    """An empty run is never a success."""
    return attempted > 0 and failed == 0


# ------- the CLI as a user runs it -------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != FORMAT_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(args, env) -> tuple[bytes, int, float]:
    """stdout, exit code and wall seconds of one fresh-interpreter command."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", CLI_BOOT, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        check=False,
    )
    return proc.stdout, proc.returncode, time.perf_counter() - t0


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def measure_setup(env) -> float:
    """Median seconds from a fresh interpreter to an imported knotpoly.cli.

    One unmeasured import first, so the bytecode cache is written.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import knotpoly.cli"], env=env, cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )
        if i:
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def tail_quantile(n: int) -> float:
    """0.9, lowered so at least ten of n samples lie beyond it, never below
    the median: a run of a sweep has far fewer than 100 invocations."""
    return max(0.5, min(0.9, 1 - 10 / n))


def run_untraced(workload: str, seed: int, seconds: float, size: str, goldens: dict) -> dict:
    env = child_env()
    plan = workloads.passes(workload, seed, size, glue_aborts(goldens, size))
    setup_s = measure_setup(env)
    walls, cpus, rates, latencies, failures = [], [], [], [], []
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        invocations = plan[len(walls) % len(plan)]
        verified = 0
        cpu0 = _children_cpu()
        t0 = time.perf_counter()
        for args in invocations:
            stdout, code, wall = run_cli(args, env)
            latencies.append(wall)
            n, bad = verify(goldens, args, stdout, code)
            attempted += n
            failed += bad
            verified += n - bad
            if bad:
                failures.append({"args": list(args), "exit": code})
        wall = time.perf_counter() - t0
        walls.append(wall)
        cpus.append(_children_cpu() - cpu0)
        rates.append(verified / wall)
        if time.perf_counter() - began + statistics.median(walls) > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "records_per_s": statistics.median(rates),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak_kb / 1024,
        "query_p50_s": percentile(latencies, 0.5),
        "query_p90_s": percentile(latencies, tail_quantile(len(latencies))),
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "samples": {"pass_wall_s": walls, "pass_cpu_s": cpus, "queries": len(latencies)},
    }


# ------- traced, in process -------


def run_traced(workload: str, seed: int, size: str, goldens: dict) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import knotpoly.cli as cli  # noqa: PLC0415 - the import is what cli.import_s times

    import_s = time.perf_counter() - t0
    from click.testing import CliRunner  # noqa: PLC0415

    invocations = workloads.passes(workload, seed, size, glue_aborts(goldens, size))[0]
    runner = CliRunner()

    def one_pass():
        outputs = []
        began = time.perf_counter()
        for args in invocations:
            r = runner.invoke(cli.main, list(args), env={FORMAT_ENV: None})
            outputs.append((r.stdout_bytes, r.exit_code))
        return time.perf_counter() - began, outputs

    # Traced first, so the layers see a freshly imported package, as a
    # CLI process does; the plain pass after it is the overhead baseline.
    tracer = Tracer()
    with traced_knotpoly(tracer):
        traced_wall, traced = one_pass()
    plain_wall, plain = one_pass()

    attempted = failed = 0
    failures = []
    for args, base, seen in zip(invocations, plain, traced):
        n, bad = verify(goldens, args, *seen)
        if seen != base:
            bad = n
        attempted += n
        failed += bad
        if bad:
            failures.append({"args": list(args), "exit": seen[1]})

    self_s, calls = tracer.self_times()
    metrics = {}
    for span, kinds in _SPAN_METRICS.items():
        for kind in kinds:
            source = self_s if kind == "self_s" else calls
            metrics[f"{span}.{kind}"] = source.get(span, 0.0 if kind == "self_s" else 0)
    for name in _COUNTER_UNITS:
        metrics[name] = tracer.counters.get(name, 0)
    alexander_calls = calls.get("torusknot.alexander", 0)
    distinct = len(tracer.distinct["torusknot.alexander"])
    metrics.update({
        # 1.0 when nothing was computed, since then nothing was wasted.
        "torusknot.alexander.distinct_ratio": distinct / alexander_calls if alexander_calls else 1.0,
        "repglue.verify_extension.max_residual": tracer.maxima.get(
            "repglue.verify_extension.max_residual", 0.0
        ),
        "cli.import_s": import_s,
        "cli.output_bytes": sum(len(out) for out, _ in traced),
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.coverage": sum(self_s.values()) / traced_wall,
    })
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "samples": {
            "plain_wall_s": plain_wall,
            "traced_wall_s": traced_wall,
            "spans": len(tracer.start),
            "invocations": len(invocations),
        },
    }


# ------- result line -------


def expected_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit that BENCHMARK.json promises for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_result(line: str, expected: dict[str, str]) -> dict:
    """Validate one result line against the expected metrics and units."""
    obj = json.loads(line)
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys are {sorted(obj)}")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool) or obj[k] < 0:
            raise ValueError(f"{k} must be a whole number")
    if obj["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    metrics = obj["metrics"]
    missing = sorted(expected.keys() - metrics.keys())
    extra = sorted(metrics.keys() - expected.keys())
    if missing or extra:
        raise ValueError(f"missing metrics {missing}, unexpected metrics {extra}")
    for name, unit in expected.items():
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            raise ValueError(f"metric {name} must be {{value, unit: {unit!r}}}, got {m!r}")
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            raise ValueError(f"metric {name} has non-numeric value {v!r}")
    return obj


def result_line(run: dict, units: dict[str, str]) -> str:
    return json.dumps({
        "correct": is_correct(run["attempted"], run["failed"]),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run["metrics"].items()},
    })


# ------- environment record -------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(workload: str, seed: int, size: str) -> dict:
    try:
        click_version = importlib.metadata.version("click")
    except importlib.metadata.PackageNotFoundError:
        click_version = None
    return {
        "python": platform.python_version(),
        "click": click_version,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": workload,
        "seed": seed,
        "size": size,
        "stated_size": {w: workloads.stated_size(w, size) for w in workloads.WORKLOADS},
    }


# ------- entry point -------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="tiny is for the benchmark's own tests")
    opts = ap.parse_args(argv)

    if not (SRC / "knotpoly" / "cli.py").is_file():
        print(f"knotpoly sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    goldens = load_goldens()
    trace = bool(opts.trace)
    if trace:
        run = run_traced(opts.workload, opts.seed, opts.size, goldens)
        units = PER_LAYER_UNITS
    else:
        run = run_untraced(opts.workload, opts.seed, opts.seconds, opts.size, goldens)
        units = END_TO_END_UNITS
    line = result_line(run, units)
    parse_result(line, expected_metrics(trace))

    record = {
        "environment": environment(opts.workload, opts.seed, opts.size),
        "trace": opts.trace,
        "seconds": opts.seconds,
        **run,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{opts.workload}-{opts.size}-seed{opts.seed}-trace{opts.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {opts.workload}  size {opts.size}  seed {opts.seed}  trace {opts.trace}")
    print(f"stated size: {workloads.stated_size(opts.workload, opts.size)}")
    for name, value in run["metrics"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    frac = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    if not trace:
        n = run["samples"]["queries"]
        print(f"  (query_p90_s is the p{100 * tail_quantile(n):.0f} of {n} invocations)")
    print(f"  failed_frac = {frac:.6g} ({run['failed']} of {run['attempted']} records)")
    for failure in run["failures"]:
        print(f"  FAILED: exit {failure['exit']}: knotpoly {workloads.key(failure['args'])}")
    print(f"results: {out.relative_to(ROOT)}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
