"""End-to-end CLI behavior: output bytes, exit codes, JSON shapes,
environment-variable defaults, and run-to-run determinism."""

import ast
import functools
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotpoly
from knotpoly import CASE_KINDS, cli, repglue, satellite
from knotpoly.cli import main


def lines(r):
    assert not r.err
    return r.out.decode().strip().splitlines()


def record(r):
    assert not r.err
    return json.loads(r.out)


def fresh(args, code=None, flags=()):
    """Start ``python *flags -c code *args``, or ``python *flags -m knotpoly
    *args`` without code, in a fresh interpreter on this checkout's src,
    stdout and stderr piped as text."""
    src = str(Path(knotpoly.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, *flags, *(["-c", code] if code else ["-m", "knotpoly"]), *args],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


class TestAlexander:
    def test_text(self, run):
        r = run(["alexander", "T(5,2)"])
        assert r.code == 0
        assert r[1:] == (b"t^2 - t + 1 - t^-1 + t^-2\n", b"")

    def test_json(self, run):
        r = run(["alexander", "--format", "json", "T(3,2)"])
        assert r.code == 0
        assert record(r) == {
            "knot": {"a": 3, "b": 2},
            "genus": 1,
            "alexander": "t - 1 + t^-1",
        }

    def test_env_var_default_format(self, run, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV, "json")
        r = run(["alexander", "T(3,2)"])
        assert r.code == 0
        assert record(r)["genus"] == 1

    def test_mirror_same_polynomial(self, run):
        a = run(["alexander", "T(7,3)"])
        b = run(["alexander", "T(-7,3)"])
        assert a == b

    def test_domain_error_exit_1(self, run):
        r = run(["alexander", "T(4,2)"])
        assert r.code == 1
        err = record(r)["error"]
        assert err["kind"] == "ValueError"
        assert "coprime" in err["detail"]

    def test_usage_error_exit_2(self, run):
        assert run(["alexander"]).code == 2
        assert run(["nonsense"]).code == 2

    def test_size_guard(self, run):
        # T(750001,3) has one term more than torusknot.MAX_TERMS
        r = run(["alexander", "T(750001,3)"])
        assert r.code == 1
        assert record(r) == {
            "error": {
                "kind": "ValueError",
                "detail": "T(750001,3) has 1000001 nonzero Alexander terms, "
                "more than the limit 1000000",
            }
        }
        r = run(["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion", "T(750001,3)"])
        assert r.code == 1
        assert "more than the limit" in record(r)["error"]["detail"]


class TestApoly:
    def test_positive(self, run):
        r = run(["apoly", "T(3,2)"])
        assert r[1:] == (b"1 + M^6*L\n", b"")

    def test_negative(self, run):
        r = run(["apoly", "T(-3,2)"])
        assert r[1:] == (b"M^6 + L\n", b"")

    def test_general(self, run):
        r = run(["apoly", "T(5,3)"])
        assert r[1:] == (b"1 - M^30*L^2\n", b"")

    def test_json(self, run):
        r = run(["apoly", "--format", "json", "T(-5,3)"])
        assert record(r) == {"knot": {"a": -5, "b": 3}, "apoly": "M^30 - L^2"}


class TestNewton:
    def test_text(self, run):
        r = run(["newton", "-1+M^210*L^2"])
        assert r.code == 0
        assert lines(r) == [
            "points: (0,0) (2,210)",
            "hull: (0,0) (2,210)",
            "edge slopes: 105",
            "thinness: thin slope=105",
        ]

    def test_json(self, run):
        r = run(["newton", "--format", "json", "1 + M^6*L"])
        assert record(r) == {
            "points": [[0, 0], [1, 6]],
            "hull": [[0, 0], [1, 6]],
            "edge_slopes": ["6"],
            "thinness": {"kind": "thin", "slope": "6", "infinite_slope": False},
        }

    def test_vertical(self, run):
        r = run(["newton", "1 + M^4"])
        assert b"edge slopes: inf" in r.out
        assert b"not_thin (vertical support)" in r.out

    def test_point(self, run):
        r = run(["newton", "7"])
        assert b"thinness: point" in r.out

    def test_parse_error(self, run):
        r = run(["newton", "M*M"])
        assert r.code == 1
        assert record(r)["error"]["kind"] == "ValueError"


class TestDetect:
    def test_ambiguous_text(self, run):
        r = run(["detect", "-1+M^210*L^2"])
        assert lines(r) == ["T(35,3)", "T(21,5)", "T(15,7)", "ambiguous"]

    def test_unique_text(self, run):
        r = run(["detect", "-1+M^150*L^2"])
        assert lines(r) == ["T(25,3)", "unique"]

    def test_unknot(self, run):
        assert lines(run(["detect", "1"])) == ["unknot"]

    def test_no_match(self, run):
        assert lines(run(["detect", "1 + M^5*L"])) == ["no match"]

    def test_degree_filter(self, run):
        r = run(["detect", "--degree", "68", "-1+M^210*L^2"])
        assert lines(r) == ["T(35,3)", "unique"]

    def test_json_shape(self, run):
        r = run(["detect", "--format", "json", "-1+M^210*L^2"])
        data = record(r)
        assert data == {
            "unknot": False,
            "unique": False,
            "candidates": [{"a": 35, "b": 3}, {"a": 21, "b": 5}, {"a": 15, "b": 7}],
        }

    def test_degree_json(self, run):
        r = run(["detect", "--format", "json", "--degree", "0", "1"])
        assert record(r) == {"unknot": True, "unique": True, "candidates": []}

    @pytest.mark.parametrize("flags", [[], ["--degree", "68"]])
    def test_refuses_huge_m_power(self, run, flags):
        # M^(10^20) would mean trial division up to sqrt(5 * 10^19)
        r = run(["detect", *flags, "-1 + M^100000000000000000000*L^2"])
        assert r.code == 1
        err = record(r)["error"]
        assert err["kind"] == "ValueError"
        assert "more than the limit" in err["detail"]


class TestObstruct:
    def test_torus_companion_record(self, run):
        r = run(["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion", "T(3,2)"])
        assert r.code == 0
        rec = record(r)
        assert rec["a"] == 9 and rec["b"] == 2 and rec["w"] == 3
        assert rec["companion"] == "t - 1 + t^-1"
        assert rec["verdict"] == "obstructed"
        assert rec["witness"] == {
            "kind": "magnitude_violation",
            "exponent": 4,
            "coefficient": -2,
        }

    def test_laurent_companion(self, run):
        r = run(["obstruct", "--a", "8", "--b", "3", "--w", "2", "--companion", "t - 1 + t^-1"])
        rec = record(r)
        assert rec["verdict"] == "obstructed"
        assert rec["witness"]["kind"] == "same_sign_violation"
        assert rec["witness"]["exponents"] == [8, 7]

    def test_precondition_error(self, run):
        r = run(["obstruct", "--a", "7", "--b", "2", "--w", "3", "--companion", "T(3,2)"])
        assert r.code == 1
        assert record(r)["error"]["kind"] == "ValueError"

    @pytest.mark.parametrize(
        "a,companion,detail",
        [
            ("9", "0", "companion polynomial must be nonzero"),
            ("9", "-1", "companion polynomial must be positive at t = 1"),
            ("9", "t - 2 + t^-1", "companion polynomial must be positive at t = 1"),
            ("9", "t + t^-1", "companion polynomial must be admissible, but it fails_top_two"),
            ("9", "2*t^2 - 3 + 2*t^-2",
             "companion polynomial must be admissible, but it fails_magnitude"),
            ("9", "t^2", "companion polynomial must be symmetrized (equal to its mirror)"),
            # the pattern is checked before the companion
            ("7", "0", "w^2 = 9 does not divide ab = 14"),
        ],
    )
    def test_companion_errors_name_the_companion(self, run, a, companion, detail):
        r = run(["obstruct", "--a", a, "--b", "2", "--w", "3", f"--companion={companion}"])
        assert r.code == 1
        assert record(r) == {"error": {"kind": "ValueError", "detail": detail}}

    def test_same_sign_gap_past_max_terms_is_refused(self, run):
        # a = 5^23, b = 2^53, w = 2^26 5^11 (w^2 | ab): the r - 2 exponents
        # between the same-sign witnesses are far more than MAX_TERMS, so the
        # record is refused before any coefficient is read
        r = run(["obstruct", "--a", "11920928955078125", "--b", "9007199254740992",
                 "--w", "3276800000000000", "--companion", "T(3,2)"])
        assert r.code == 1
        assert record(r) == {
            "error": {
                "kind": "ValueError",
                "detail": "the same-sign gap spans 3276799999999998 exponents, "
                "more than the limit 1000000",
            }
        }

    def test_missing_flag_usage_error(self, run):
        r = run(["obstruct", "--a", "9", "--b", "2", "--w", "3"])
        assert r.code == 2

    def test_prediction_mismatch_exits_3(self, run, monkeypatch):
        def mismatch(*args):
            raise satellite.PredictionMismatch("predicted coefficient absent")

        monkeypatch.setattr(satellite, "winding_violation", mismatch)
        r = run(["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion", "T(3,2)"])
        assert r.code == 3
        assert record(r) == {
            "error": {"kind": "PredictionMismatch", "detail": "predicted coefficient absent"}
        }

    def test_other_runtime_error_is_not_reported(self, run, capsysbinary, monkeypatch):
        def bug(*args):
            raise RuntimeError("not a prediction")

        monkeypatch.setattr(satellite, "winding_violation", bug)
        with pytest.raises(RuntimeError, match="not a prediction"):
            run(["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion", "T(3,2)"])
        assert capsysbinary.readouterr() == (b"", b"")


class TestObstructionLine:
    """Every obstruct record is the compact, key-ordered line stdlib json
    writes for it."""

    @staticmethod
    def compact(line):
        return json.dumps(json.loads(line), separators=(",", ":"))

    def test_sweep_lines_are_compact_json(self, run):
        r = run(["sweep", "obstruct", "--a-max", "8", "--companion-max", "5"])
        assert r.code == 0
        out = lines(r)
        assert len(out) == 101
        for line in out:
            assert line == self.compact(line)

    @pytest.mark.parametrize(
        "a,b,w,companion,kind",
        [
            ("9", "2", "3", "T(3,2)", "magnitude_violation"),
            ("9", "8", "6", "T(5,4)", "same_sign_violation"),
            ("8", "3", "2", "t^2 - t + 1 - t^-1 + t^-2", "same_sign_violation"),
            ("5", "4", "1", "T(-7,3)", "magnitude_violation"),
        ],
    )
    def test_query_lines_are_compact_json(self, run, a, b, w, companion, kind):
        r = run(["obstruct", "--a", a, "--b", b, "--w", w, "--companion", companion])
        assert r.code == 0
        (line,) = lines(r)
        assert line == self.compact(line)
        witness = json.loads(line)["witness"]
        assert witness["kind"] == kind
        # the witness coefficients are negative, as are the label's exponents
        assert max(witness.get("coefficients") or [witness["coefficient"]]) < 0
        assert "^-" in json.loads(line)["companion"]

    @pytest.mark.parametrize("shift", [0, 7])
    def test_formatter_matches_json_dumps(self, shift):
        from knotpoly.satellite import AdmissibilityReport

        label = 't^-1 "\u00e9"'
        for check, witness in [
            (AdmissibilityReport("fails_magnitude", ((-3, -2),)),
             {"kind": "magnitude_violation", "exponent": -3 + shift, "coefficient": -2}),
            (AdmissibilityReport("fails_alternation", ((-4, -1), (-9, -3))),
             {"kind": "same_sign_violation", "exponents": [-4 + shift, -9 + shift],
              "coefficients": [-1, -3]}),
        ]:
            record = {"a": 11, "b": 3, "w": 5, "companion": label, "verdict": "obstructed",
                      "witness": witness}
            line = cli._obstruction_line(11, 3, 5, json.dumps(label), check, shift)
            assert line == json.dumps(record, separators=(",", ":"))


class TestGlueLine:
    """Every glue record is the compact, key-ordered line stdlib json writes
    for it."""

    def test_sweep_lines_are_compact_json(self, run):
        r = run(["sweep", "glue", "--per-case", "50", "--seed", "3"])
        assert r.code == 0
        out = lines(r)
        assert len(out) == 151
        for line in out:
            assert line == json.dumps(json.loads(line), separators=(",", ":"))
        # Jordan powers keep int entries, so some residuals print as ints
        assert any(type(x) is int for line in out[:-1] for x in json.loads(line)["residuals"])

    def test_formatter_matches_json_dumps(self):
        for kind, k, failed, residuals in itertools.product(
            CASE_KINDS,
            [0, 4],
            [None, 2],
            [(0, 0, 0.0), (-0.0, 1.5e-17, 0), (math.nan, math.inf, -math.inf)],
        ):
            polar = {"s": 1.0, "t": 1e300, "theta": -0.0, "phi": -3.141592653589793, "m": -2, "k": k}
            if kind != "diagonal":
                polar = k = None
            inst = repglue.GlueInstance(-9, 7, 6, 1, None, None, kind)
            ext = repglue.Extension(None, None, polar)
            res = repglue.VerifyResult(residuals, failed)
            record = {"case": kind, "p": -9, "q": 7, "w": 6, "d": 1, "k": k,
                      "central_twist": kind == "jordan_minus",
                      "residuals": list(residuals), "ok": failed is None}
            if kind == "diagonal":
                record["polar"] = {key: polar[key] for key in ("s", "t", "theta", "phi", "m")}
            line = cli._glue_line(kind, inst, ext, res)
            assert line == json.dumps(record, separators=(",", ":")), record


def writes(monkeypatch):
    """The number of lines in each write the command line makes from now on."""
    counts = []
    real = cli._echo

    def counted(text):
        counts.append(text.count("\n") + 1)
        real(text)

    monkeypatch.setattr(cli, "_echo", counted)
    return counts


class TestSweeps:
    def test_thinness_sweep(self, run):
        r = run(["sweep", "thinness", "--max", "8"])
        assert r.code == 0
        recs = [json.loads(x) for x in lines(r)]
        summary = recs[-1]["summary"]
        assert summary["mismatches"] == 0
        assert summary["total"] == len(recs) - 1
        assert all(rec["ok"] for rec in recs[:-1])
        signs = {rec["a"] > 0 for rec in recs[:-1]}
        assert signs == {True, False}

    def test_thinness_sweep_error_follows_the_records_before_it(self, run, monkeypatch):
        from knotpoly import apolygon

        argv = ["sweep", "thinness", "--max", "20"]
        clean = lines(run(argv))
        real = apolygon.thinness
        calls = []

        def fails_150th(f):
            calls.append(f)
            if len(calls) == 150:
                raise ValueError("no polygon")
            return real(f)

        monkeypatch.setattr(apolygon, "thinness", fails_150th)
        counts = writes(monkeypatch)
        r = run(argv)
        assert r.code == 1 and len(clean) > 151
        # a batch of 100, the 49 records pending, then the error
        assert lines(r) == [*clean[:149], '{"error":{"kind":"ValueError","detail":"no polygon"}}']
        assert counts == [100, 49, 1]

    def test_obstruct_sweep(self, run):
        r = run(["sweep", "obstruct", "--a-max", "10", "--companion-max", "6"])
        assert r.code == 0
        recs = [json.loads(x) for x in lines(r)]
        summary = recs[-1]["summary"]
        assert summary["total"] == summary["obstructed"] == len(recs) - 1 > 0
        for rec in recs[:-1]:
            # the residue of w mod b (never 0 when w^2 | ab) names the violation
            kind = "magnitude_violation" if rec["w"] % rec["b"] == 1 else "same_sign_violation"
            assert rec["verdict"] == "obstructed" and rec["witness"]["kind"] == kind, rec

    def test_obstruct_sweep_checks_each_companion_once(self, run, monkeypatch):
        calls = []
        real = satellite.lspace_admissible

        def counted(f):
            calls.append(f)
            return real(f)

        monkeypatch.setattr(satellite, "lspace_admissible", counted)
        r = run(["sweep", "obstruct", "--a-max", "8", "--companion-max", "5"])
        assert r.code == 0
        total = json.loads(lines(r)[-1])["summary"]["total"]
        # companions T(3,2), T(4,3), T(5,2), T(5,3), T(5,4)
        assert len(calls) == 5 < total

    def test_obstruct_sweep_builds_each_companion_spec_once(self, run, monkeypatch):
        # records read the pattern's closed form from (a, b); only the five
        # companions build a TorusKnotSpec
        from knotpoly import torusknot

        specs = []
        real = torusknot.TorusKnotSpec.__init__

        def counted(self, a, b):
            specs.append((a, b))
            real(self, a, b)

        monkeypatch.setattr(torusknot.TorusKnotSpec, "__init__", counted)
        r = run(["sweep", "obstruct", "--a-max", "8", "--companion-max", "5"])
        assert r.code == 0
        assert specs == [(3, 2), (4, 3), (5, 2), (5, 3), (5, 4)]

    def test_obstruct_sweep_refuses_companions_past_max_terms(self, run):
        # companions up to 78 have 944,986 terms in all, up to 79 1,027,145;
        # the refusal comes before any companion polynomial is built, and
        # the terms are summed bound by bound, so every larger bound is
        # refused at 79, in the time and memory of the first 79 bounds
        for companion_max in ("79", "80", "1000000000"):
            r = run(["sweep", "obstruct", "--a-max", "3", "--companion-max", companion_max])
            assert r.code == 1
            assert record(r) == {
                "error": {
                    "kind": "ValueError",
                    "detail": "companions up to 79 have 1027145 nonzero Alexander terms, "
                    "more than the limit 1000000",
                }
            }

    def test_obstruct_sweep_checks_each_pattern_once_per_row(self, run, monkeypatch):
        # a witness at genus h is the genus-1 one shifted by (h - 1)w, so each
        # (a, b, w) row calls winding_violation once, with h = 1, and checks
        # its pattern once, whatever the number of companions
        calls, witnesses, scans = [], [], []
        real = satellite._check_pattern
        real_witness = satellite.winding_violation
        real_scan = satellite.lspace_admissible

        def counted(a, b):
            calls.append((a, b))
            real(a, b)

        def counted_witness(*args):
            witnesses.append(args)
            return real_witness(*args)

        def counted_scan(f):
            scans.append(f)
            return real_scan(f)

        monkeypatch.setattr(satellite, "_check_pattern", counted)
        monkeypatch.setattr(satellite, "winding_violation", counted_witness)
        monkeypatch.setattr(satellite, "lspace_admissible", counted_scan)
        r = run(["sweep", "obstruct", "--a-max", "8", "--companion-max", "5"])
        assert r.code == 0
        recs = [json.loads(x) for x in lines(r)]
        rows = list(dict.fromkeys((rec["a"], rec["b"], rec["w"]) for rec in recs[:-1]))
        assert calls == [(a, b) for a, b, _ in rows]
        assert witnesses == [(a, b, w, 1) for a, b, w in rows]
        assert 5 * len(rows) == recs[-1]["summary"]["total"] > len(rows) > 0
        # each of the 5 companions is scanned once, by check_companion
        labels = list(dict.fromkeys(rec["companion"] for rec in recs[:-1]))
        assert labels == ["T(3,2)", "T(4,3)", "T(5,2)", "T(5,3)", "T(5,4)"]
        assert scans == [knotpoly.alexander(knotpoly.parse_spec(label)) for label in labels]

    @pytest.mark.parametrize(
        "error,code",
        [(satellite.PredictionMismatch("predicted coefficient absent"), 3),
         (ValueError("no residue witness"), 1)],
        ids=["mismatch", "value"],
    )
    def test_obstruct_sweep_error_follows_the_rows_before_it(self, run, monkeypatch, error, code):
        argv = ["sweep", "obstruct", "--a-max", "8", "--companion-max", "5"]
        clean = lines(run(argv))
        real = satellite.winding_violation
        rows = []

        def third_row_fails(*args):
            rows.append(args)
            if len(rows) == 3:
                raise error
            return real(*args)

        monkeypatch.setattr(satellite, "winding_violation", third_row_fails)
        counts = writes(monkeypatch)
        r = run(argv)
        assert r.code == code and len(rows) == 3
        # two rows of 5 companions each, none of the third, then the error
        failed = {"error": {"kind": type(error).__name__, "detail": str(error)}}
        assert lines(r) == [*clean[:10], json.dumps(failed, separators=(",", ":"))]
        assert counts == [10, 1]
        assert {(rec["a"], rec["b"], rec["w"]) for rec in map(json.loads, clean[:10])} == {
            row[:3] for row in rows[:2]
        }

    def test_glue_sweep(self, run):
        r = run(["sweep", "glue", "--per-case", "5", "--seed", "3"])
        assert r.code == 0
        recs = [json.loads(x) for x in lines(r)]
        assert recs[-1]["summary"] == {"total": 15, "failed": 0}
        cases = [rec["case"] for rec in recs[:-1]]
        assert cases == ["diagonal"] * 5 + ["jordan_plus"] * 5 + ["jordan_minus"] * 5

    def test_glue_sweep_powers_through_mat2c(self, run, monkeypatch):
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
        r = run(["sweep", "glue", "--per-case", "5", "--seed", "7"])
        assert r.code == 0
        assert calls == {"__pow__": 90, "_product": 60}

    def test_sweep_determinism(self, run):
        a = run(["sweep", "glue", "--per-case", "4", "--seed", "11"])
        b = run(["sweep", "glue", "--per-case", "4", "--seed", "11"])
        assert a == b
        c = run(["sweep", "glue", "--per-case", "4", "--seed", "12"])
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
    def test_empty_range_usage_error(self, run, args):
        r = run(args)
        assert r.code == 2
        assert b"total" not in r.out + r.err


class TestGlueVerify:
    def test_record_shape(self, run):
        r = run(["glue-verify", "--case", "diagonal", "--count", "3", "--seed", "2"])
        assert r.code == 0
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

    def test_jordan_records_have_no_polar(self, run):
        r = run(["glue-verify", "--case", "jordan_minus", "--count", "2", "--seed", "2"])
        for rec in [json.loads(x) for x in lines(r)][:-1]:
            assert "polar" not in rec
            assert rec["central_twist"] is True and rec["k"] is None

    def test_all_cases_default(self, run):
        r = run(["glue-verify", "--count", "2", "--seed", "1"])
        recs = [json.loads(x) for x in lines(r)]
        assert recs[-1]["summary"]["total"] == 6

    def test_determinism(self, run):
        a = run(["glue-verify", "--count", "3", "--seed", "9"])
        b = run(["glue-verify", "--count", "3", "--seed", "9"])
        assert a == b

    def test_all_cases_is_sweep_glue(self, run):
        a = run(["glue-verify", "--count", "4", "--seed", "5"])
        b = run(["sweep", "glue", "--per-case", "4", "--seed", "5"])
        assert a.code == b.code == 0
        assert a.out == b.out

    def test_bad_case_usage_error(self, run):
        r = run(["glue-verify", "--case", "spiral"])
        assert r.code == 2

    def test_failing_record_is_reported_not_aborted(self, run):
        # Record 79 (|p| = 9, q = 1, w = 6) breaks the absolute tolerance in
        # the longitude equation; the sweep reports it and carries on.
        r = run(["glue-verify", "--case", "diagonal", "--count", "79", "--seed", "184"])
        assert r.code == 1
        recs = [json.loads(x) for x in lines(r)]
        assert len(recs) == 80
        assert recs[-1] == {"summary": {"total": 79, "failed": 1}}
        assert all(rec["ok"] for rec in recs[:78])
        assert recs[78]["ok"] is False and recs[78]["residuals"][1] > 1e-9

    @pytest.mark.parametrize(
        "tolerance, code, failed", [("1e-15", 1, 369), ("0.1", 0, 0)]
    )
    def test_tolerance_only_verifies(self, run, tolerance, code, failed):
        # The samplers validate their draws at the default tolerance, so a
        # tight or loose --tolerance changes verdicts, never the draws.
        args = ["glue-verify", "--count", "300", "--seed", "7", "--tolerance", tolerance]
        r = run(args)
        assert r.code == code
        recs = [json.loads(x) for x in lines(r)]
        assert len(recs) == 901
        assert recs[-1] == {"summary": {"total": 900, "failed": failed}}
        assert sum(not rec["ok"] for rec in recs[:-1]) == failed
        default = run(["glue-verify", "--count", "300", "--seed", "7"])
        drawn = ("case", "p", "q", "w", "d", "k", "central_twist", "residuals")
        assert [{k: rec[k] for k in drawn} for rec in recs[:-1]] == [
            {k: rec[k] for k in drawn} for rec in map(json.loads, lines(default)[:-1])
        ]

    @pytest.mark.parametrize("command", [["glue-verify", "--count", "2"], ["sweep", "glue"]])
    @pytest.mark.parametrize("tolerance", ["nan", "-1e-9"])
    def test_nan_or_negative_tolerance_usage_error(self, run, command, tolerance):
        r = run([*command, "--seed", "7", "--tolerance", tolerance])
        assert r.code == 2
        assert b"--tolerance" in r.err
        assert b'"ok"' not in r.out + r.err

    def test_polar_data_computed_once_per_record(self, run, monkeypatch):
        args = ["glue-verify", "--case", "diagonal", "--count", "200", "--seed", "7"]
        plain = run(args)
        polar = repglue.diagonal_polar_data
        calls = []

        def counted(g):
            calls.append(g)
            return polar(g)

        monkeypatch.setattr(repglue, "diagonal_polar_data", counted)
        r = run(args)
        assert r.code == plain.code == 0
        assert len(calls) == 200
        assert r.out == plain.out
        assert len(lines(r)) == 201

    def test_records_stream_before_an_error(self, run, monkeypatch):
        sample = repglue.sample_instance
        calls = []

        def third_call_fails(*args):
            calls.append(args)
            if len(calls) == 3:
                raise ValueError("sampler failed")
            return sample(*args)

        monkeypatch.setattr(repglue, "sample_instance", third_call_fails)
        r = run(["glue-verify", "--case", "diagonal", "--count", "5"])
        assert r.code == 1
        recs = [json.loads(x) for x in lines(r)]
        assert len(recs) == 3
        assert all(rec["case"] == "diagonal" and rec["ok"] for rec in recs[:2])
        assert recs[2] == {"error": {"kind": "ValueError", "detail": "sampler failed"}}

    def test_error_part_way_through_a_batch(self, run, monkeypatch):
        argv = ["sweep", "glue", "--per-case", "100", "--seed", "3"]
        clean = lines(run(argv))
        sample = repglue.sample_instance
        calls = []

        def fails_150th(*args):
            calls.append(args)
            if len(calls) == 150:
                raise ValueError("sampler failed")
            return sample(*args)

        monkeypatch.setattr(repglue, "sample_instance", fails_150th)
        counts = writes(monkeypatch)
        r = run(argv)
        assert r.code == 1
        # one batch of 100 written, 49 records pending, then the error
        error = '{"error":{"kind":"ValueError","detail":"sampler failed"}}'
        assert lines(r) == [*clean[:149], error]
        assert counts == [100, 49, 1]

    @pytest.mark.parametrize(
        "argv, n",
        [
            # the summary is the 301st line, in a batch of its own
            (["sweep", "glue", "--per-case", "100", "--seed", "3"], 301),
            (["sweep", "thinness", "--max", "20"], 217),
            (["sweep", "obstruct", "--a-max", "24", "--companion-max", "12"], 8501),
            (["newton", "1 + M*L"], 4),
        ],
        ids=["glue", "thinness", "obstruct", "newton"],
    )
    def test_records_and_summary_write_in_batches_of_100(self, run, monkeypatch, argv, n):
        counts = writes(monkeypatch)
        r = run(argv)
        assert r.code == 0 and len(lines(r)) == n
        # every command's lines go out 100 to a write, the rest in one more
        assert counts == [100] * (n // 100) + [n % 100] * (n % 100 > 0)


class TestUsage:
    """argparse parity with the click CLI this replaced."""

    @pytest.mark.parametrize(
        "before, after",
        [
            (["alexander", "--format", "json", "T(3,2)"], ["alexander", "T(3,2)", "--format", "json"]),
            (
                ["detect", "--degree", "68", "--format", "json", "-1+M^210*L^2"],
                ["detect", "-1+M^210*L^2", "--format", "json", "--degree", "68"],
            ),
            (["sweep", "thinness", "--max", "5"], ["sweep", "thinness", "--max=5"]),
            # an omitted option prints what its default does
            (["sweep", "obstruct"], ["sweep", "obstruct", "--a-max", "20", "--companion-max", "10"]),
            (["glue-verify"], ["glue-verify", "--count", "200"]),
            (["detect", "1 - L^2*M^36"], ["detect", "1 - M^36*L^2"]),
        ],
    )
    def test_options_before_or_after_positional(self, run, before, after):
        code, out, _ = run(before)
        assert code == 0 and out
        assert run(after)[:2] == (0, out)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["detect", "--degree", "110", "-1 + M^260*L^2"], b"no match\n"),
            (["detect", "-1+M^210*L^2"], b"T(35,3)\nT(21,5)\nT(15,7)\nambiguous\n"),
            (["detect", "--degree", "68", "-1+M^210*L^2"], b"T(35,3)\nunique\n"),
            (["newton", "-1+M^6*L", "--format", "json"], b'{"points":[[0,0],[1,6]],'),
            (["newton", "-1"], b"points: (0,0)\n"),
        ],
    )
    def test_polynomial_may_start_with_minus(self, run, argv, expected):
        code, out, _ = run(argv)
        assert code == 0
        assert out.startswith(expected)

    def test_option_value_starting_with_minus(self, run):
        # argparse takes an unspaced value that starts with '-' only after '='
        args = ["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion"]
        code, out, _ = run([*args[:-1], "--companion=-t+3-t^-1"])
        assert code == 1
        assert json.loads(out)["error"]["detail"].startswith("companion polynomial must be admissible")
        assert run([*args, "-t + 3 - t^-1"])[:2] == (1, out)
        assert run([*args, "-t+3-t^-1"])[:2] == (2, b"")

    def test_format_default_is_read_on_each_call(self, run, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV, "json")
        assert run(["alexander", "T(3,2)"])[:2] == (
            0, b'{"knot":{"a":3,"b":2},"genus":1,"alexander":"t - 1 + t^-1"}\n'
        )
        monkeypatch.setenv(cli.FORMAT_ENV, "text")
        assert run(["alexander", "T(3,2)"])[:2] == (0, b"t - 1 + t^-1\n")
        monkeypatch.setenv(cli.FORMAT_ENV, "")
        assert run(["alexander", "T(3,2)"])[:2] == (0, b"t - 1 + t^-1\n")

    def test_invalid_format_env_is_usage_error(self, run, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV, "xml")
        code, out, err = run(["alexander", "T(3,2)"])
        assert (code, out) == (2, b"")
        assert b"'xml'" in err
        # an explicit --format wins over the environment, as it did with click
        assert run(["alexander", "--format", "text", "T(3,2)"])[:2] == (
            0, b"t - 1 + t^-1\n"
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
    def test_usage_error_exits_2_without_a_record(self, run, argv):
        code, out, err = run(argv)
        assert (code, out) == (2, b"")
        assert b"usage: knotpoly" in err

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["--help"], ["alexander", "apoly", "newton", "detect", "obstruct", "sweep", "glue-verify"]),
            (["sweep", "--help"], ["obstruct", "thinness", "glue"]),
            (["glue-verify", "--help"], ["--case", "--count", "--seed", "--tolerance"]),
        ],
    )
    def test_help_exits_0_and_lists(self, run, argv, names):
        code, out, _ = run(argv)
        assert code == 0
        assert all(name.encode() in out for name in names)

    def test_main_main_raises_the_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main.main(args=("alexander", "T(4,2)"), prog_name="knotpoly")
        assert exc.value.code == 1
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "ValueError"


# Each command with the knotpoly modules it loads, besides the CLI
COMMAND_IMPORTS = [
    ([], set()),
    (["alexander", "T(5,2)"], {"laurent", "torusknot"}),
    (["newton", "1 + M*L"], {"apolygon"}),
    (["glue-verify", "--count", "1"], {"repglue"}),
    (["apoly", "T(5,2)"], {"apolygon", "torusknot"}),
    (["detect", "1 - M^10*L"], {"apolygon", "torusknot"}),
    (["obstruct", "--a", "9", "--b", "2", "--w", "3", "--companion", "T(3,2)"],
     {"laurent", "satellite", "torusknot"}),
    (["sweep", "obstruct", "--a-max", "5", "--companion-max", "3"],
     {"laurent", "satellite", "torusknot"}),
    (["sweep", "thinness", "--max", "4"], {"apolygon", "torusknot"}),
    (["sweep", "glue", "--per-case", "1"], {"repglue"}),
    (["detect", "--degree", "2", "1 + M^6*L"], {"apolygon", "torusknot"}),
]


@functools.lru_cache(maxsize=None)
def probe(*args):
    """Run the CLI on args once in a fresh ``python -S`` (a site .pth file
    may import typing before knotpoly does); return its exit code and the
    knotpoly, click, dataclasses, fractions and typing modules it loaded."""
    code = (
        "import sys\n"
        "from knotpoly.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(sorted(m for m in sys.modules if m.startswith('knotpoly.')\n"
        "             or m in ('click', 'dataclasses', 'fractions', 'typing')))\n"
        "sys.exit(code)\n"
    )
    r = fresh(args, code, flags=["-S"])
    out, err = r.communicate(timeout=60)
    assert out.strip(), err
    return r.returncode, frozenset(ast.literal_eval(out.strip().splitlines()[-1]))


class TestModuleEntry:
    def test_package_exports_resolve_lazily(self):
        import importlib.util

        # a name the package base defines is its own global, which __getattr__
        # never reaches, so the submodule table must not list it.  A fresh run
        # of the base holds only its own globals, none cached by __getattr__
        spec = importlib.util.spec_from_file_location("base", knotpoly.__file__)
        base = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(base)
        assert [name for name in base._HOME if name in vars(base)] == []
        for name in knotpoly.__all__:
            if name not in knotpoly._HOME:
                assert name in ("DEFAULT_TOL", "PredictionMismatch", "__version__")
                assert name in vars(base), name
                continue
            home = importlib.import_module(f"knotpoly.{knotpoly._HOME[name]}")
            assert getattr(knotpoly, name) is getattr(home, name), name
        assert knotpoly.repglue is repglue
        with pytest.raises(AttributeError):
            knotpoly.no_such_name
        # in a fresh interpreter no submodule is loaded yet, so the attribute
        # reaches __getattr__, which imports the submodule
        r = fresh([], "import sys, knotpoly; print('knotpoly.repglue' in sys.modules, knotpoly.repglue.__name__)")
        out, err = r.communicate(timeout=60)
        assert out == "False knotpoly.repglue\n", err

    def test_callback_writes_every_line_and_returns_the_code(self, run, capsysbinary):
        # the benchmark's tracer times each leaf's callback: a command's work
        # and its writes all happen inside that one call
        def leaves(entry):
            for sub in entry.commands.values():
                yield from leaves(sub) if hasattr(sub, "commands") else (sub,)

        called = set()
        for argv, _ in COMMAND_IMPORTS[1:]:
            entry, args = main, argv
            while hasattr(entry, "commands"):
                entry, args = entry.commands[args[0]], args[1:]
            called.add(entry)
            code = entry.callback(**vars(cli._parser("knotpoly", entry).parse_args(args)))
            out = capsysbinary.readouterr().out
            assert type(code) is int and out, argv
            assert (code, out) == run(argv)[:2], argv
        assert called == set(leaves(main))

    def test_docstring_examples_run(self):
        import doctest
        import importlib
        import pkgutil

        failed = attempted = 0
        names = [m.name for m in pkgutil.iter_modules(knotpoly.__path__) if m.name != "__main__"]
        for module in [knotpoly, *(importlib.import_module(f"knotpoly.{n}") for n in names)]:
            result = doctest.testmod(module)
            failed += result.failed
            attempted += result.attempted
        assert failed == 0
        assert attempted >= 4

    @pytest.mark.parametrize("args,loaded", COMMAND_IMPORTS)
    def test_commands_import_only_what_they_use(self, args, loaded):
        # no command loads click, dataclasses or typing, and only newton and
        # sweep thinness, which print slopes, load fractions
        code, modules = probe(*args)
        assert code == (0 if args else 2)  # [] is a usage error
        expected = {f"knotpoly.{m}" for m in {"cli", *loaded}}
        if args[:1] == ["newton"] or args[:2] == ["sweep", "thinness"]:
            expected.add("fractions")
        assert modules == expected

    @pytest.mark.parametrize("args", [args for args, _ in COMMAND_IMPORTS])
    def test_commands_skip_typing(self, args):
        assert "typing" not in probe(*args)[1]

    @pytest.mark.parametrize(
        "args",
        [
            ["alexander", "T(5,2)"],
            ["obstruct", "--a", "9", "--b", "4", "--w", "3", "--companion", "T(3,2)"],
        ],
    )
    def test_queries_skip_fractions(self, args):
        # only abelian_slope_family builds a Fraction, and no command calls it
        code, modules = probe(*args)
        assert code == 0
        assert "fractions" not in modules

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
        code, modules = probe(*args)
        assert code == 0
        assert [m in modules for m in ("click", "dataclasses", "fractions")] == [
            False, False, args[0] == "newton"
        ]

    def test_piped_sweep_matches_in_process(self, run):
        # A stdout stream cached at import would miss the swap made by pytest's
        # capture (or the benchmark's CliRunner), so the two runs would differ.
        args = ["sweep", "glue", "--per-case", "5", "--seed", "7"]
        src = str(Path(knotpoly.__file__).resolve().parents[1])
        piped = subprocess.run(
            [sys.executable, "-m", "knotpoly", *args],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=60,
        )
        in_process = run(args)
        assert piped.returncode == in_process.code == 0
        assert piped.stdout == in_process.out
        assert piped.stdout.count(b"\n") == 16

    def test_package_imports_only_the_standard_library(self):
        # knotpoly runs on a bare Python: every absolute import in the
        # package names a standard library module or the package itself.
        # Its relative imports, deferred ones included, form no cycle
        from graphlib import TopologicalSorter

        allowed = sys.stdlib_module_names | {"knotpoly"}
        paths = sorted(Path(knotpoly.__file__).parent.glob("*.py"))
        assert len(paths) >= 8
        submodules = {path.stem for path in paths}
        graph = {}
        for path in paths:
            text = path.read_text()
            assert path.name == "apolygon.py" or "template_terms" not in text, path.name
            imported = graph[path.stem] = set()
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                elif isinstance(node, ast.ImportFrom):
                    # "from .m import x" loads m; "from . import m" loads m
                    # when m is a submodule, and only the loaded package otherwise
                    names = [node.module] if node.module else [a.name for a in node.names]
                    imported.update(submodules.intersection(names))
                    continue
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] in allowed, (path.name, name)
        TopologicalSorter(graph).prepare()  # raises CycleError, naming the cycle
        assert knotpoly.enhanced_apoly is knotpoly.apolygon.enhanced_apoly

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

    @pytest.mark.parametrize(
        "args",
        [["sweep", "glue", "--per-case", "2000"], ["sweep", "thinness", "--max", "60"],
         ["sweep", "obstruct", "--a-max", "24", "--companion-max", "12"]],
        ids=["glue", "thinness", "obstruct"],
    )
    def test_closed_stdout_ends_quietly_unbuffered(self, args):
        # with -u each batch of 100 records is a write straight to the pipe;
        # the output is past a pipe's 64 KiB, so a later batch meets the
        # closed reader
        with fresh(args, flags=("-u",)) as r:
            assert "summary" not in json.loads(r.stdout.readline())
            r.stdout.close()
            assert r.wait(timeout=60) == 1
            assert r.stderr.read() == ""
