"""End-to-end CLI behavior: output bytes, exit codes, JSON shapes,
environment-variable defaults, and run-to-run determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import knotpoly
from knotpoly import cli, repglue, satellite
from knotpoly.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def lines(result):
    return result.output.strip().splitlines()


def fresh(args, code=None):
    """Start ``python -c code *args``, or ``python -m knotpoly *args`` without
    code, in a fresh interpreter on this checkout's src, stdout and stderr
    piped as text."""
    src = str(Path(knotpoly.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, *(["-c", code] if code else ["-m", "knotpoly"]), *args],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


class TestAlexander:
    def test_text(self, runner):
        r = runner.invoke(main, ["alexander", "T(5,2)"])
        assert r.exit_code == 0
        assert r.output == "t^2 - t + 1 - t^-1 + t^-2\n"

    def test_json(self, runner):
        r = runner.invoke(main, ["alexander", "--format", "json", "T(3,2)"])
        assert r.exit_code == 0
        assert json.loads(r.output) == {
            "knot": {"a": 3, "b": 2},
            "genus": 1,
            "alexander": "t - 1 + t^-1",
        }

    def test_env_var_default_format(self, runner):
        r = runner.invoke(main, ["alexander", "T(3,2)"], env={"KNOTPOLY_FORMAT": "json"})
        assert r.exit_code == 0
        assert json.loads(r.output)["genus"] == 1

    def test_mirror_same_polynomial(self, runner):
        a = runner.invoke(main, ["alexander", "T(7,3)"]).output
        b = runner.invoke(main, ["alexander", "T(-7,3)"]).output
        assert a == b

    def test_domain_error_exit_1(self, runner):
        r = runner.invoke(main, ["alexander", "T(4,2)"])
        assert r.exit_code == 1
        err = json.loads(r.output)["error"]
        assert err["kind"] == "ValueError"
        assert "coprime" in err["detail"]

    def test_usage_error_exit_2(self, runner):
        assert runner.invoke(main, ["alexander"]).exit_code == 2
        assert runner.invoke(main, ["nonsense"]).exit_code == 2

    def test_size_guard(self, runner):
        # T(750001,3) has one term more than torusknot.MAX_TERMS
        r = runner.invoke(main, ["alexander", "T(750001,3)"])
        assert r.exit_code == 1
        assert json.loads(r.output) == {
            "error": {
                "kind": "ValueError",
                "detail": "T(750001,3) has 1000001 nonzero Alexander terms, "
                "more than the limit 1000000",
            }
        }
        r = runner.invoke(
            main, ["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion", "T(750001,3)"]
        )
        assert r.exit_code == 1
        assert "more than the limit" in json.loads(r.output)["error"]["detail"]


class TestApoly:
    def test_positive(self, runner):
        r = runner.invoke(main, ["apoly", "T(3,2)"])
        assert r.output == "1 + M^6*L\n"

    def test_negative(self, runner):
        r = runner.invoke(main, ["apoly", "T(-3,2)"])
        assert r.output == "M^6 + L\n"

    def test_general(self, runner):
        r = runner.invoke(main, ["apoly", "T(5,3)"])
        assert r.output == "1 - M^30*L^2\n"

    def test_json(self, runner):
        r = runner.invoke(main, ["apoly", "--format", "json", "T(-5,3)"])
        assert json.loads(r.output) == {"knot": {"a": -5, "b": 3}, "apoly": "M^30 - L^2"}


class TestNewton:
    def test_text(self, runner):
        r = runner.invoke(main, ["newton", "-1+M^210*L^2"])
        assert r.exit_code == 0
        assert lines(r) == [
            "points: (0,0) (2,210)",
            "hull: (0,0) (2,210)",
            "edge slopes: 105",
            "thinness: thin slope=105",
        ]

    def test_json(self, runner):
        r = runner.invoke(main, ["newton", "--format", "json", "1 + M^6*L"])
        assert json.loads(r.output) == {
            "points": [[0, 0], [1, 6]],
            "hull": [[0, 0], [1, 6]],
            "edge_slopes": ["6"],
            "thinness": {"kind": "thin", "slope": "6", "infinite_slope": False},
        }

    def test_vertical(self, runner):
        r = runner.invoke(main, ["newton", "1 + M^4"])
        assert "edge slopes: inf" in r.output
        assert "not_thin (vertical support)" in r.output

    def test_point(self, runner):
        r = runner.invoke(main, ["newton", "7"])
        assert "thinness: point" in r.output

    def test_parse_error(self, runner):
        r = runner.invoke(main, ["newton", "L*M"])
        assert r.exit_code == 1
        assert json.loads(r.output)["error"]["kind"] == "ValueError"


class TestDetect:
    def test_ambiguous_text(self, runner):
        r = runner.invoke(main, ["detect", "-1+M^210*L^2"])
        assert lines(r) == ["T(35,3)", "T(21,5)", "T(15,7)", "ambiguous"]

    def test_unique_text(self, runner):
        r = runner.invoke(main, ["detect", "-1+M^150*L^2"])
        assert lines(r) == ["T(25,3)", "unique"]

    def test_unknot(self, runner):
        assert lines(runner.invoke(main, ["detect", "1"])) == ["unknot"]

    def test_no_match(self, runner):
        assert lines(runner.invoke(main, ["detect", "1 + M^5*L"])) == ["no match"]

    def test_degree_filter(self, runner):
        r = runner.invoke(main, ["detect", "--degree", "68", "-1+M^210*L^2"])
        assert lines(r) == ["T(35,3)", "unique"]

    def test_json_shape(self, runner):
        r = runner.invoke(main, ["detect", "--format", "json", "-1+M^210*L^2"])
        data = json.loads(r.output)
        assert data == {
            "unknot": False,
            "unique": False,
            "candidates": [{"a": 35, "b": 3}, {"a": 21, "b": 5}, {"a": 15, "b": 7}],
        }

    def test_degree_json(self, runner):
        r = runner.invoke(main, ["detect", "--format", "json", "--degree", "0", "1"])
        assert json.loads(r.output) == {"unknot": True, "unique": True, "candidates": []}

    @pytest.mark.parametrize("flags", [[], ["--degree", "68"]])
    def test_refuses_huge_m_power(self, runner, flags):
        # M^(10^20) would mean trial division up to sqrt(5 * 10^19)
        r = runner.invoke(main, ["detect", *flags, "-1 + M^100000000000000000000*L^2"])
        assert r.exit_code == 1
        err = json.loads(r.output)["error"]
        assert err["kind"] == "ValueError"
        assert "more than the limit" in err["detail"]


class TestObstruct:
    def test_torus_companion_record(self, runner):
        r = runner.invoke(
            main, ["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion", "T(3,2)"]
        )
        assert r.exit_code == 0
        rec = json.loads(r.output)
        assert rec["a"] == 9 and rec["b"] == 2 and rec["w"] == 3
        assert rec["companion"] == "t - 1 + t^-1"
        assert rec["verdict"] == "obstructed"
        assert rec["witness"] == {
            "kind": "magnitude_violation",
            "exponent": 4,
            "coefficient": -2,
        }

    def test_laurent_companion(self, runner):
        r = runner.invoke(
            main,
            ["obstruct", "--a", "8", "--b", "3", "--w", "2", "--companion", "t - 1 + t^-1"],
        )
        rec = json.loads(r.output)
        assert rec["verdict"] == "obstructed"
        assert rec["witness"]["kind"] == "same_sign_violation"
        assert rec["witness"]["exponents"] == [8, 7]

    def test_precondition_error(self, runner):
        r = runner.invoke(
            main, ["obstruct", "--a", "7", "--b", "2", "--w", "3", "--companion", "T(3,2)"]
        )
        assert r.exit_code == 1
        assert json.loads(r.output)["error"]["kind"] == "ValueError"

    def test_same_sign_gap_past_max_terms_is_refused(self, runner):
        # a = 5^23, b = 2^53, w = 2^26 5^11 (w^2 | ab): the r - 2 exponents
        # between the same-sign witnesses are far more than MAX_TERMS, so the
        # record is refused before any coefficient is read
        r = runner.invoke(
            main,
            [
                "obstruct",
                "--a",
                "11920928955078125",
                "--b",
                "9007199254740992",
                "--w",
                "3276800000000000",
                "--companion",
                "T(3,2)",
            ],
        )
        assert r.exit_code == 1
        assert json.loads(r.output) == {
            "error": {
                "kind": "ValueError",
                "detail": "the same-sign gap spans 3276799999999998 exponents, "
                "more than the limit 1000000",
            }
        }

    def test_missing_flag_usage_error(self, runner):
        r = runner.invoke(main, ["obstruct", "--a", "9", "--b", "2", "--w", "3"])
        assert r.exit_code == 2

    def test_prediction_mismatch_exits_3(self, runner, monkeypatch):
        def mismatch(*args):
            raise satellite.PredictionMismatch("predicted coefficient absent")

        monkeypatch.setattr(satellite, "winding_violation", mismatch)
        r = runner.invoke(
            main, ["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion", "T(3,2)"]
        )
        assert r.exit_code == 3
        assert json.loads(r.output) == {
            "error": {"kind": "PredictionMismatch", "detail": "predicted coefficient absent"}
        }

    def test_other_runtime_error_is_not_reported(self, runner, monkeypatch):
        def bug(*args):
            raise RuntimeError("not a prediction")

        monkeypatch.setattr(satellite, "winding_violation", bug)
        r = runner.invoke(
            main, ["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion", "T(3,2)"]
        )
        assert isinstance(r.exception, RuntimeError) and r.output == ""


class TestSweeps:
    def test_thinness_sweep(self, runner):
        r = runner.invoke(main, ["sweep", "thinness", "--max", "8"])
        assert r.exit_code == 0
        recs = [json.loads(x) for x in lines(r)]
        summary = recs[-1]["summary"]
        assert summary["mismatches"] == 0
        assert summary["total"] == len(recs) - 1
        assert all(rec["ok"] for rec in recs[:-1])
        signs = {rec["a"] > 0 for rec in recs[:-1]}
        assert signs == {True, False}

    def test_obstruct_sweep(self, runner):
        r = runner.invoke(main, ["sweep", "obstruct", "--a-max", "10", "--companion-max", "6"])
        assert r.exit_code == 0
        recs = [json.loads(x) for x in lines(r)]
        summary = recs[-1]["summary"]
        assert summary["total"] == summary["obstructed"] == len(recs) - 1 > 0
        for rec in recs[:-1]:
            # the residue of w mod b (never 0 when w^2 | ab) names the violation
            kind = "magnitude_violation" if rec["w"] % rec["b"] == 1 else "same_sign_violation"
            assert rec["verdict"] == "obstructed" and rec["witness"]["kind"] == kind, rec

    def test_obstruct_sweep_checks_each_companion_once(self, runner, monkeypatch):
        calls = []
        real = satellite.lspace_admissible

        def counted(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(satellite, "lspace_admissible", counted)
        r = runner.invoke(main, ["sweep", "obstruct", "--a-max", "8", "--companion-max", "5"])
        assert r.exit_code == 0
        total = json.loads(lines(r)[-1])["summary"]["total"]
        # companions T(3,2), T(4,3), T(5,2), T(5,3), T(5,4)
        assert len(calls) == 5 < total

    def test_obstruct_sweep_builds_each_companion_spec_once(self, runner, monkeypatch):
        # records read the pattern's closed form from (a, b); only the five
        # companions build a TorusKnotSpec
        from knotpoly import torusknot

        specs = []
        real = torusknot.TorusKnotSpec.__init__

        def counted(self, a, b):
            specs.append((a, b))
            real(self, a, b)

        monkeypatch.setattr(torusknot.TorusKnotSpec, "__init__", counted)
        r = runner.invoke(main, ["sweep", "obstruct", "--a-max", "8", "--companion-max", "5"])
        assert r.exit_code == 0
        assert specs == [(3, 2), (4, 3), (5, 2), (5, 3), (5, 4)]

    def test_obstruct_sweep_refuses_companions_past_max_terms(self, runner):
        # companions up to 78 have 944,986 terms in all, up to 79 1,027,145;
        # the refusal comes before any companion polynomial is built
        r = runner.invoke(main, ["sweep", "obstruct", "--a-max", "3", "--companion-max", "79"])
        assert r.exit_code == 1
        assert json.loads(r.output) == {
            "error": {
                "kind": "ValueError",
                "detail": "companions up to 79 have 1027145 nonzero Alexander terms, "
                "more than the limit 1000000",
            }
        }

    def test_glue_sweep(self, runner):
        r = runner.invoke(main, ["sweep", "glue", "--per-case", "5", "--seed", "3"])
        assert r.exit_code == 0
        recs = [json.loads(x) for x in lines(r)]
        assert recs[-1]["summary"] == {"total": 15, "failed": 0}
        cases = [rec["case"] for rec in recs[:-1]]
        assert cases == ["diagonal"] * 5 + ["jordan_plus"] * 5 + ["jordan_minus"] * 5

    def test_glue_sweep_powers_through_mat2c(self, runner, monkeypatch):
        # Every power of the glue checks is a Mat2C.__pow__ call, one per
        # power (6 per record: 2 in glue_instance, 4 in verify_extension),
        # and every product a check needs is _product on entries (4 per
        # record: 3 in glue_instance, 1 in verify_extension).
        calls = {"__pow__": 0, "_product": 0}
        for owner, name in ((repglue.Mat2C, "__pow__"), (repglue, "_product")):
            real = getattr(owner, name)

            def counted(x, y, name=name, real=real):
                calls[name] += 1
                return real(x, y)

            monkeypatch.setattr(owner, name, counted)
        r = runner.invoke(main, ["sweep", "glue", "--per-case", "5", "--seed", "7"])
        assert r.exit_code == 0
        assert calls == {"__pow__": 90, "_product": 60}

    def test_sweep_determinism(self, runner):
        a = runner.invoke(main, ["sweep", "glue", "--per-case", "4", "--seed", "11"]).output
        b = runner.invoke(main, ["sweep", "glue", "--per-case", "4", "--seed", "11"]).output
        assert a == b
        c = runner.invoke(main, ["sweep", "glue", "--per-case", "4", "--seed", "12"]).output
        assert a != c

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "glue", "--per-case", "0"],
            ["glue-verify", "--count", "-3"],
            ["sweep", "obstruct", "--a-max", "2"],
            ["sweep", "obstruct", "--companion-max", "2"],
            ["sweep", "thinness", "--max", "2"],
        ],
    )
    def test_empty_range_usage_error(self, runner, args):
        r = runner.invoke(main, args)
        assert r.exit_code == 2
        assert "total" not in r.output


class TestGlueVerify:
    def test_record_shape(self, runner):
        r = runner.invoke(main, ["glue-verify", "--case", "diagonal", "--count", "3", "--seed", "2"])
        assert r.exit_code == 0
        recs = [json.loads(x) for x in lines(r)]
        assert recs[-1]["summary"]["failed"] == 0
        for rec in recs[:-1]:
            assert rec["case"] == "diagonal"
            assert set(rec) == {
                "case", "p", "q", "w", "d", "k", "central_twist", "residuals", "ok", "polar",
            }
            assert rec["ok"] is True
            assert len(rec["residuals"]) == 3
            assert all(x < 1e-9 for x in rec["residuals"])
            assert set(rec["polar"]) == {"s", "t", "theta", "phi", "m"}

    def test_jordan_records_have_no_polar(self, runner):
        r = runner.invoke(
            main, ["glue-verify", "--case", "jordan_minus", "--count", "2", "--seed", "2"]
        )
        for rec in [json.loads(x) for x in lines(r)][:-1]:
            assert "polar" not in rec
            assert rec["central_twist"] is True and rec["k"] is None

    def test_all_cases_default(self, runner):
        r = runner.invoke(main, ["glue-verify", "--count", "2", "--seed", "1"])
        recs = [json.loads(x) for x in lines(r)]
        assert recs[-1]["summary"]["total"] == 6

    def test_determinism(self, runner):
        a = runner.invoke(main, ["glue-verify", "--count", "3", "--seed", "9"]).output
        b = runner.invoke(main, ["glue-verify", "--count", "3", "--seed", "9"]).output
        assert a == b

    def test_all_cases_is_sweep_glue(self, runner):
        a = runner.invoke(main, ["glue-verify", "--count", "4", "--seed", "5"])
        b = runner.invoke(main, ["sweep", "glue", "--per-case", "4", "--seed", "5"])
        assert a.exit_code == b.exit_code == 0
        assert a.stdout_bytes == b.stdout_bytes

    def test_bad_case_usage_error(self, runner):
        r = runner.invoke(main, ["glue-verify", "--case", "spiral"])
        assert r.exit_code == 2

    def test_failing_record_is_reported_not_aborted(self, runner):
        # Record 79 (|p| = 9, q = 1, w = 6) breaks the absolute tolerance in
        # the longitude equation; the sweep reports it and carries on.
        r = runner.invoke(main, ["glue-verify", "--case", "diagonal", "--count", "79", "--seed", "184"])
        assert r.exit_code == 1
        recs = [json.loads(x) for x in lines(r)]
        assert len(recs) == 80
        assert recs[-1] == {"summary": {"total": 79, "failed": 1}}
        assert all(rec["ok"] for rec in recs[:78])
        assert recs[78]["ok"] is False and recs[78]["residuals"][1] > 1e-9

    @pytest.mark.parametrize(
        "tolerance, code, failed", [("1e-15", 1, 369), ("0.1", 0, 0)]
    )
    def test_tolerance_only_verifies(self, runner, tolerance, code, failed):
        # The samplers validate their draws at the default tolerance, so a
        # tight or loose --tolerance changes verdicts, never the draws.
        args = ["glue-verify", "--count", "300", "--seed", "7", "--tolerance", tolerance]
        r = runner.invoke(main, args)
        assert r.exit_code == code
        recs = [json.loads(x) for x in lines(r)]
        assert len(recs) == 901
        assert recs[-1] == {"summary": {"total": 900, "failed": failed}}
        assert sum(not rec["ok"] for rec in recs[:-1]) == failed
        default = runner.invoke(main, ["glue-verify", "--count", "300", "--seed", "7"])
        drawn = ("case", "p", "q", "w", "d", "k", "central_twist", "residuals")
        assert [{k: rec[k] for k in drawn} for rec in recs[:-1]] == [
            {k: rec[k] for k in drawn} for rec in map(json.loads, lines(default)[:-1])
        ]

    @pytest.mark.parametrize("command", [["glue-verify", "--count", "2"], ["sweep", "glue"]])
    @pytest.mark.parametrize("tolerance", ["nan", "-1e-9"])
    def test_nan_or_negative_tolerance_usage_error(self, runner, command, tolerance):
        r = runner.invoke(main, [*command, "--seed", "7", "--tolerance", tolerance])
        assert r.exit_code == 2
        assert "--tolerance" in r.output
        assert '"ok"' not in r.output

    def test_polar_data_computed_once_per_record(self, runner, monkeypatch):
        args = ["glue-verify", "--case", "diagonal", "--count", "200", "--seed", "7"]
        plain = runner.invoke(main, args)
        polar = repglue.diagonal_polar_data
        calls = []

        def counted(g):
            calls.append(g)
            return polar(g)

        monkeypatch.setattr(repglue, "diagonal_polar_data", counted)
        r = runner.invoke(main, args)
        assert r.exit_code == plain.exit_code == 0
        assert len(calls) == 200
        assert r.stdout_bytes == plain.stdout_bytes
        assert len(lines(r)) == 201

    def test_records_stream_before_an_error(self, runner, monkeypatch):
        sample = repglue.sample_instance
        calls = []

        def third_call_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise ValueError("sampler failed")
            return sample(*args)

        monkeypatch.setattr(repglue, "sample_instance", third_call_fails)
        r = runner.invoke(main, ["glue-verify", "--case", "diagonal", "--count", "5"])
        assert r.exit_code == 1
        recs = [json.loads(x) for x in lines(r)]
        assert len(recs) == 3
        assert all(rec["case"] == "diagonal" and rec["ok"] for rec in recs[:2])
        assert recs[2] == {"error": {"kind": "ValueError", "detail": "sampler failed"}}


class TestUsage:
    """argparse parity with the click CLI this replaced, through main(argv)."""

    @pytest.fixture(autouse=True)
    def _no_format_env(self, monkeypatch):
        monkeypatch.delenv(cli.FORMAT_ENV, raising=False)

    def run(self, capsys, argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize(
        "before, after",
        [
            (["alexander", "--format", "json", "T(3,2)"], ["alexander", "T(3,2)", "--format", "json"]),
            (
                ["detect", "--degree", "68", "--format", "json", "-1+M^210*L^2"],
                ["detect", "-1+M^210*L^2", "--format", "json", "--degree", "68"],
            ),
            (["sweep", "thinness", "--max", "5"], ["sweep", "thinness", "--max=5"]),
        ],
    )
    def test_options_before_or_after_positional(self, capsys, before, after):
        code, out, _ = self.run(capsys, before)
        assert code == 0 and out
        assert self.run(capsys, after)[:2] == (0, out)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["detect", "--degree", "110", "-1 + M^260*L^2"], "no match\n"),
            (["detect", "-1+M^210*L^2"], "T(35,3)\nT(21,5)\nT(15,7)\nambiguous\n"),
            (["detect", "--degree", "68", "-1+M^210*L^2"], "T(35,3)\nunique\n"),
            (["newton", "-1+M^6*L", "--format", "json"], '{"points":[[0,0],[1,6]],'),
            (["newton", "-1"], "points: (0,0)\n"),
        ],
    )
    def test_polynomial_may_start_with_minus(self, capsys, argv, expected):
        code, out, _ = self.run(capsys, argv)
        assert code == 0
        assert out.startswith(expected)

    def test_option_value_starting_with_minus(self, capsys):
        # argparse takes an unspaced value that starts with '-' only after '='
        args = ["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion"]
        code, out, _ = self.run(capsys, [*args[:-1], "--companion=-t+3-t^-1"])
        assert code == 1
        assert json.loads(out)["error"]["detail"].startswith("companion polynomial must be admissible")
        assert self.run(capsys, [*args, "-t + 3 - t^-1"])[:2] == (1, out)
        assert self.run(capsys, [*args, "-t+3-t^-1"])[:2] == (2, "")

    def test_format_default_is_read_on_each_call(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV, "json")
        assert self.run(capsys, ["alexander", "T(3,2)"])[:2] == (
            0, '{"knot":{"a":3,"b":2},"genus":1,"alexander":"t - 1 + t^-1"}\n'
        )
        monkeypatch.setenv(cli.FORMAT_ENV, "text")
        assert self.run(capsys, ["alexander", "T(3,2)"])[:2] == (0, "t - 1 + t^-1\n")
        monkeypatch.setenv(cli.FORMAT_ENV, "")
        assert self.run(capsys, ["alexander", "T(3,2)"])[:2] == (0, "t - 1 + t^-1\n")

    def test_invalid_format_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV, "xml")
        code, out, err = self.run(capsys, ["alexander", "T(3,2)"])
        assert (code, out) == (2, "")
        assert "'xml'" in err
        # an explicit --format wins over the environment, as it did with click
        assert self.run(capsys, ["alexander", "--format", "text", "T(3,2)"])[:2] == (
            0, "t - 1 + t^-1\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["alexander", "--form", "json", "T(3,2)"],  # no option prefixes
            ["alexander", "--format", "xml", "T(3,2)"],
            ["sweep", "obstruct", "--a-max", "2"],
            ["sweep", "obstruct", "--companion-max", "2"],
            ["sweep", "thinness", "--max", "2"],
            ["sweep", "glue", "--per-case", "0"],
            ["glue-verify", "--count", "0"],
            ["glue-verify", "--count", "x"],
            ["glue-verify", "--tolerance", "nan"],
            ["sweep", "glue", "--tolerance", "-1"],
            ["glue-verify", "--tolerance=-1e-9"],
            ["alexander", "T(3,2)", "T(5,2)"],  # an extra positional
            ["newton", "1", "-1+M"],
            ["detect", "-1+M", "-1+L"],
            ["alexander"],
            ["newton"],
            ["obstruct", "--a", "9", "--b", "2", "--w", "3"],
            [],  # no command
            ["nonsense"],
            ["sweep"],
            ["sweep", "nonsense"],
        ],
    )
    def test_usage_error_exits_2_without_a_record(self, capsys, argv):
        code, out, err = self.run(capsys, argv)
        assert (code, out) == (2, "")
        assert "usage: knotpoly" in err

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["--help"], ["alexander", "apoly", "newton", "detect", "obstruct", "sweep", "glue-verify"]),
            (["sweep", "--help"], ["obstruct", "thinness", "glue"]),
            (["glue-verify", "--help"], ["--case", "--count", "--seed", "--tolerance"]),
        ],
    )
    def test_help_exits_0_and_lists(self, capsys, argv, names):
        code, out, _ = self.run(capsys, argv)
        assert code == 0
        assert all(name in out for name in names)

    def test_main_main_raises_the_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main.main(args=("alexander", "T(4,2)"), prog_name="knotpoly")
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "ValueError"


class TestModuleEntry:
    def test_package_exports_resolve_lazily(self):
        import importlib

        for name in knotpoly.__all__:
            if name == "__version__":
                continue
            home = importlib.import_module(f"knotpoly.{knotpoly._HOME[name]}")
            assert getattr(knotpoly, name) is getattr(home, name), name
        assert knotpoly.repglue is repglue
        with pytest.raises(AttributeError):
            knotpoly.no_such_name

    def test_glue_option_defaults_match_repglue(self):
        assert cli._GLUE_CASES == repglue.CASE_KINDS
        assert cli._GLUE_TOL == repglue.DEFAULT_TOL

    @pytest.mark.parametrize(
        "args,loaded",
        [
            ([], set()),
            (["alexander", "T(5,2)"], {"laurent", "torusknot"}),
            (["newton", "1 + M*L"], {"laurent", "apolygon"}),
            (["glue-verify", "--count", "1"], {"repglue"}),
        ],
    )
    def test_commands_import_only_what_they_use(self, args, loaded):
        code = (
            "import sys\n"
            "from knotpoly.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(sorted(m for m in sys.modules if m.startswith('knotpoly.')))\n"
        )
        r = fresh(args, code)
        out, err = r.communicate(timeout=60)
        assert r.returncode == 0, err
        modules = out.strip().splitlines()[-1]
        assert modules == str(sorted(f"knotpoly.{m}" for m in {"cli", *loaded}))

    @pytest.mark.parametrize(
        "args",
        [
            ["alexander", "T(5,2)"],
            ["obstruct", "--a", "9", "--b", "4", "--w", "3", "--companion", "T(3,2)"],
        ],
    )
    def test_queries_skip_fractions(self, args):
        # only abelian_slope_family builds a Fraction, and no command calls it
        code = (
            "import sys\n"
            "from knotpoly.cli import main\n"
            "try:\n"
            "    main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "print('fractions' in sys.modules)\n"
        )
        r = fresh(args, code)
        out, err = r.communicate(timeout=60)
        assert r.returncode == 0, err
        assert out.strip().splitlines()[-1] == "False"

    def test_piped_sweep_matches_in_process(self, runner):
        # A stdout stream cached at import would miss CliRunner's swap, so
        # the two runs would not print the same bytes.
        args = ["sweep", "glue", "--per-case", "5", "--seed", "7"]
        src = str(Path(knotpoly.__file__).resolve().parents[1])
        piped = subprocess.run(
            [sys.executable, "-m", "knotpoly", *args],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=60,
        )
        in_process = runner.invoke(main, args)
        assert piped.returncode == in_process.exit_code == 0
        assert piped.stdout == in_process.stdout_bytes
        assert piped.stdout.count(b"\n") == 16

    @pytest.mark.parametrize(
        "args",
        [
            ["alexander", "T(5,2)"],
            ["apoly", "T(5,3)"],
            ["newton", "1 + M^6*L"],
            ["detect", "--degree", "2", "1 + M^6*L"],
            ["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion", "T(3,2)"],
            ["sweep", "obstruct", "--a-max", "3", "--companion-max", "3"],
            ["sweep", "glue", "--per-case", "1"],
            ["glue-verify", "--count", "1"],
        ],
    )
    def test_queries_never_import_click(self, args):
        # nor dataclasses, and only newton, which prints slopes, loads fractions
        code = (
            "import sys\n"
            "from knotpoly.cli import main\n"
            "try:\n"
            "    code = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "assert code == 0, code\n"
            "print([m in sys.modules for m in ('click', 'dataclasses', 'fractions')])\n"
        )
        r = fresh(args, code)
        out, err = r.communicate(timeout=60)
        assert r.returncode == 0, err
        loaded = out.strip().splitlines()[-1]
        assert loaded == str([False, False, args[0] == "newton"])

    def test_python_m_keeps_exit_codes(self):
        r = fresh(["alexander", "T(4,2)"])
        out, _ = r.communicate(timeout=60)
        assert r.returncode == 1
        assert json.loads(out)["error"]["kind"] == "ValueError"

    def test_python_m_help(self):
        r = fresh(["--help"])
        out, err = r.communicate(timeout=60)
        assert r.returncode == 0, err
        assert "sweep" in out

    def test_closed_stdout_ends_quietly(self):
        # 6,000 records fill the pipe long before the sweep ends, so a write
        # meets the closed reader: exit 1 as on EPIPE, and no traceback
        with fresh(["sweep", "glue", "--per-case", "2000"]) as r:
            assert json.loads(r.stdout.readline())["case"] == "diagonal"
            r.stdout.close()
            assert r.wait(timeout=60) == 1
            assert r.stderr.read() == ""
