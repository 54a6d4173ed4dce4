"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GOLDENS = run.load_goldens()

# Per-layer metrics each workload must move: a wrapper that silently
# stopped firing would read as zero here.
FIRES_ON = {
    "obstruct-sweep": (
        "laurent.mul.calls",
        "laurent.mul.term_pairs",
        "laurent.exact_divide.calls",
        "laurent.exact_divide.quotient_terms",
        "laurent.symmetrize.calls",
        "torusknot.alexander.calls",
        "satellite.winding_violation.calls",
        "satellite.lspace_admissible.calls",
        "cli.json_dumps.calls",
        "cli.output.self_s",
        "cli.command.self_s",
    ),
    "glue-sweep": (
        "repglue.sample_instance.calls",
        "repglue.construct_extension.self_s",
        "repglue.verify_extension.self_s",
        "repglue.mat_pow.calls",
        "repglue.mat_pow.exponent_bits",
        "repglue.verify_extension.max_residual",
        "cli.json_dumps.calls",
        "cli.output_bytes",
        "cli.command.self_s",
    ),
    "query-mix": (
        "laurent.exact_divide.calls",
        "laurent.str.bytes",
        "laurent.str.self_s",
        "torusknot.alexander.calls",
        "satellite.winding_violation.calls",
        "apolygon.parse.self_s",
        "apolygon.newton_polygon.calls",
        "apolygon.detect.self_s",
        "cli.json_dumps.calls",
        "cli.command.self_s",
    ),
}
# glue-sweep is the bypass workload: polynomial layers must not run.
GLUE_BYPASSES = (
    "laurent.mul.calls",
    "laurent.exact_divide.calls",
    "laurent.symmetrize.calls",
    "torusknot.alexander.calls",
    "satellite.winding_violation.calls",
    "satellite.lspace_admissible.calls",
)


def _benchmark_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END_UNITS == _benchmark_units("end_to_end")
    assert run.PER_LAYER_UNITS == _benchmark_units("per_layer")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_command_emits_benchmark_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    expected = _benchmark_units("per_layer" if trace else "end_to_end")
    result = run.parse_result(proc.stdout.splitlines()[-1], expected)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def _valid_line() -> str:
    run_result = {"attempted": 3, "failed": 0, "metrics": {k: 1.5 for k in run.END_TO_END_UNITS}}
    return run.result_line(run_result, run.END_TO_END_UNITS)


def test_parser_accepts_a_complete_result():
    assert run.parse_result(_valid_line(), run.END_TO_END_UNITS)["correct"]


@pytest.mark.parametrize(
    "spoil",
    [
        lambda r: r["metrics"].pop("wall_s"),
        lambda r: r["metrics"]["setup_s"].update(unit="ms"),
        lambda r: r["metrics"]["cpu_s"].update(value="fast"),
        lambda r: r["metrics"].update(extra={"value": 1, "unit": "s"}),
        lambda r: r.update(attempted=0),
        lambda r: r.pop("failed"),
    ],
    ids=["missing", "unit", "value", "extra", "empty", "key"],
)
def test_parser_rejects_bad_results(spoil):
    result = json.loads(_valid_line())
    spoil(result)
    with pytest.raises(ValueError):
        run.parse_result(json.dumps(result), run.END_TO_END_UNITS)


def test_tampered_golden_is_reported_as_failure():
    clean = run.run_untraced("obstruct-sweep", 0, 0, "tiny", GOLDENS)
    assert clean["attempted"] > 0 and clean["failed"] == 0
    args = workloads.passes("obstruct-sweep", 0, "tiny")[0][0]
    for field, value in (("sha256", "0" * 64), ("exit", 1)):
        tampered = copy.deepcopy(GOLDENS)
        tampered["invocations"][workloads.key(args)][field] = value
        result = run.run_untraced("obstruct-sweep", 0, 0, "tiny", tampered)
        assert result["failed"] == result["attempted"] > 0
        assert not run.is_correct(result["attempted"], result["failed"])


def test_empty_or_unknown_output_fails():
    assert not run.is_correct(0, 0)
    assert run.verify(GOLDENS, ("alexander", "T(999,2)"), b"t\n", 0) == (1, 1)
    sweep = ("sweep", "obstruct", *workloads.OBSTRUCT_ARGS["tiny"])
    attempted, failed = run.verify(GOLDENS, sweep, b"", 0)
    assert failed == attempted > 1


def test_every_seed_has_goldens():
    for size in workloads.SIZES:
        aborts = run.glue_aborts(GOLDENS, size)
        for workload in workloads.WORKLOADS:
            for seed in range(-2, 30):
                for invocations in workloads.passes(workload, seed, size, aborts):
                    for args in invocations:
                        golden = GOLDENS["invocations"][workloads.key(args)]
                        assert golden["exit"] == 0 and golden["records"] > 0, args


def test_seed_determines_inputs():
    aborts = run.glue_aborts(GOLDENS, "full")
    for workload in workloads.WORKLOADS:
        assert workloads.passes(workload, 7, "full", aborts) == workloads.passes(workload, 7, "full", aborts)
    assert workloads.passes("query-mix", 7) != workloads.passes("query-mix", 8)
    assert workloads.passes("glue-sweep", 7, "full", aborts) != workloads.passes("glue-sweep", 8, "full", aborts)


def test_query_mix_large_knots_are_distinct_and_over_a_tenth():
    queries = workloads.passes("query-mix", 3)[0]
    large = {f"T({p},{q})" for p, q in workloads.LARGE_KNOTS["full"]}
    hits = [args[1] for args in queries if args[0] == "alexander" and args[1] in large]
    assert len(queries) >= 100
    assert len(hits) == len(set(hits)) > len(queries) / 10


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    t.names[:] = ["outer", "inner"]
    for name, start, end, parent in ((0, 0, 100, -1), (1, 10, 40, 0), (1, 50, 60, 0)):
        t.span_name.append(name)
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
    self_s, calls = t.self_times()
    assert calls == {"outer": 1, "inner": 2}
    assert self_s == {"outer": 60e-9, "inner": 40e-9}


def _knotpoly_modules():
    import knotpoly
    import knotpoly.cli

    return [m for name, m in sys.modules.items() if name == "knotpoly" or name.startswith("knotpoly.")]


def test_wrappers_cover_every_binding_and_restore():
    import click

    from knotpoly import apolygon, cli, laurent, satellite, torusknot

    lp = laurent.LaurentPoly
    originals = {
        "alexander": torusknot.alexander,
        "winding_violation": satellite.winding_violation,
        "lspace_admissible": satellite.lspace_admissible,
        "newton_polygon": apolygon.newton_polygon,
        "detect_torus_from_apoly": apolygon.detect_torus_from_apoly,
        "_dumps": cli._dumps,
    }
    methods = {name: lp.__dict__[name] for name in ("__mul__", "__rmul__", "exact_divide", "__str__")}
    echo = click.echo
    callbacks = {c: c.callback for c in tracer._leaf_commands(cli.main)}

    t = tracer.Tracer()
    with tracer.traced_knotpoly(t):
        for module in _knotpoly_modules():
            for value in vars(module).values():
                assert all(value is not fn for fn in originals.values()), module.__name__
        assert satellite.alexander is torusknot.alexander is not originals["alexander"]
        assert lp.__dict__["__rmul__"] is lp.__dict__["__mul__"] is not methods["__mul__"]
        assert click.echo is not echo
        assert all(c.callback is not cb for c, cb in callbacks.items())
        x = lp({1: 1, 0: -1})
        assert 3 * x == x * 3
    assert t.self_times()[1]["laurent.mul"] == 2

    assert satellite.alexander is torusknot.alexander is originals["alexander"]
    assert all(lp.__dict__[name] is fn for name, fn in methods.items())
    assert cli._dumps is originals["_dumps"] and click.echo is echo
    assert all(c.callback is cb for c, cb in callbacks.items())


@pytest.fixture(scope="module")
def traced_runs():
    return {w: run.run_traced(w, 5, "tiny", GOLDENS) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_fire_on_expected_workload(traced_runs, workload):
    metrics = traced_runs[workload]["metrics"]
    silent = [name for name in FIRES_ON[workload] if not metrics[name] > 0]
    assert not silent


def test_glue_sweep_bypasses_polynomial_layers(traced_runs):
    metrics = traced_runs["glue-sweep"]["metrics"]
    assert all(metrics[name] == 0 for name in GLUE_BYPASSES)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_stdout_matches_untraced_goldens(traced_runs, workload):
    # run_traced fails an invocation whose traced stdout or exit code differs
    # from the plain in-process pass or from the subprocess golden.
    result = traced_runs[workload]
    assert result["attempted"] > 0 and result["failed"] == 0
    assert 0 < result["metrics"]["trace.coverage"] <= 1
