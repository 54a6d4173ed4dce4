"""Command line interface.

Subcommands compute Alexander polynomials and enhanced A-polynomials of
torus knots, Newton polygon data, torus knot detection, satellite
obstruction verdicts, exhaustive sweeps, and randomized gluing
verification.  Output is byte-deterministic: fixed key order, seeded
randomness, no timestamps.

``--format`` (or the KNOTPOLY_FORMAT environment variable) switches
alexander/apoly/newton/detect between text and JSON; obstruct, sweep,
and glue-verify always emit JSON records, one per line.  Sweeps write
each record as it is built and never hold records back, then a
{"summary": ...} record; an error record follows the records already
written.  A glue record that fails verification is printed with
"ok": false, counted in "failed", and makes the sweep exit 1.  Exit
codes: 0 success, 1 domain error (with a structured {"error": ...}
record) or a failing verdict, 2 usage error, 3 internal invariant
failure (PredictionMismatch, with the same {"error": ...} record).
"""

from __future__ import annotations

import functools
import json
import math
import sys
from typing import TYPE_CHECKING

import click

if TYPE_CHECKING:
    from types import ModuleType

    from .laurent import LaurentPoly
    from .satellite import CheckedCompanion, WindingCheck
    from .torusknot import TorusKnotSpec

FORMAT_ENV = "KNOTPOLY_FORMAT"

# Each command imports the modules it uses, so a query starts without the
# rest.  The glue options are declared with repglue.CASE_KINDS and
# repglue.DEFAULT_TOL copied here (a test keeps them equal), so that
# declaring them does not import repglue.
_GLUE_CASES = ("diagonal", "jordan_plus", "jordan_minus")
_GLUE_TOL = 1e-9

_DOMAIN_ERRORS = (ValueError, ArithmeticError)


def _domain_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (*_DOMAIN_ERRORS, RuntimeError) as exc:
            if isinstance(exc, RuntimeError):
                # PredictionMismatch is the one RuntimeError reported; importing
                # it here keeps satellite out of the commands that never load it
                from .satellite import PredictionMismatch

                if not isinstance(exc, PredictionMismatch):
                    raise
            _echo(_dumps({"error": {"kind": type(exc).__name__, "detail": str(exc)}}))
            sys.exit(1 if isinstance(exc, _DOMAIN_ERRORS) else 3)

    return wrapper


# json.dumps builds a new encoder on every call; one with the same
# settings is built once here and gives the same bytes.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _dumps(obj) -> str:
    return _ENCODER.encode(obj)


def _echo(line: str) -> None:
    # sys.stdout is looked up on each call because CliRunner swaps it; the
    # stream's own buffering decides when a record reaches a pipe
    sys.stdout.write(line + "\n")


def _format_option(fn):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(["text", "json"]),
        default="text",
        envvar=FORMAT_ENV,
        show_default=True,
        help="Output format (defaults from KNOTPOLY_FORMAT).",
    )(fn)


def _spec_json(k: TorusKnotSpec) -> dict:
    return {"a": k.a, "b": k.b}


def _slope_str(s) -> str:
    from .apolygon import INFINITE_SLOPE

    return "inf" if s == INFINITE_SLOPE else str(s)


@click.group()
def main():
    """Exact knot polynomial computations and obstruction checks."""


@main.command()
@click.argument("knot")
@_format_option
@_domain_errors
def alexander(knot: str, fmt: str):
    """Symmetrized Alexander polynomial of a torus knot T(a,b)."""
    from . import torusknot

    k = torusknot.parse_spec(knot)
    poly = torusknot.alexander(k)
    if fmt == "text":
        _echo(str(poly))
    else:
        _echo(
            _dumps(
                {
                    "knot": _spec_json(k),
                    "genus": torusknot.genus(k),
                    "alexander": str(poly),
                }
            )
        )


@main.command()
@click.argument("knot")
@_format_option
@_domain_errors
def apoly(knot: str, fmt: str):
    """Enhanced A-polynomial of a torus knot T(a,b)."""
    from . import torusknot

    k = torusknot.parse_spec(knot)
    poly = torusknot.enhanced_apoly(k)
    if fmt == "text":
        _echo(str(poly))
    else:
        _echo(_dumps({"knot": _spec_json(k), "apoly": str(poly)}))


# ignore_unknown_options lets polynomial arguments start with a minus sign
@main.command(context_settings={"ignore_unknown_options": True})
@click.argument("poly")
@_format_option
@_domain_errors
def newton(poly: str, fmt: str):
    """Newton polygon, edge slopes, and thinness of an (L, M) polynomial."""
    from . import apolygon

    f = apolygon.BiPoly.parse(poly)
    npg = apolygon.newton_polygon(f)
    thin = apolygon.thinness(f)
    if fmt == "text":
        _echo("points: " + " ".join(f"({l},{m})" for l, m in npg.lattice_points))
        _echo("hull: " + " ".join(f"({l},{m})" for l, m in npg.hull_vertices))
        _echo("edge slopes: " + " ".join(_slope_str(s) for s in npg.edge_slopes))
        if thin.kind == "thin":
            _echo(f"thinness: thin slope={thin.slope}")
        elif thin.infinite_slope:
            _echo("thinness: not_thin (vertical support)")
        else:
            _echo(f"thinness: {thin.kind}")
    else:
        _echo(
            _dumps(
                {
                    "points": [list(p) for p in npg.lattice_points],
                    "hull": [list(p) for p in npg.hull_vertices],
                    "edge_slopes": [_slope_str(s) for s in npg.edge_slopes],
                    "thinness": {
                        "kind": thin.kind,
                        "slope": None if thin.slope is None else str(thin.slope),
                        "infinite_slope": thin.infinite_slope,
                    },
                }
            )
        )


@main.command(context_settings={"ignore_unknown_options": True})
@click.argument("poly")
@click.option("--degree", type=int, default=None, help="Alexander polynomial degree 2g filter.")
@_format_option
@_domain_errors
def detect(poly: str, degree: int | None, fmt: str):
    """Identify torus knots from an enhanced A-polynomial."""
    from . import apolygon

    f = apolygon.BiPoly.parse(poly)
    if degree is None:
        result = apolygon.detect_torus_from_apoly(f)
    else:
        result = apolygon.detect_with_degree(f, degree)
    if fmt == "json":
        _echo(
            _dumps(
                {
                    "unknot": result.is_unknot,
                    "unique": result.unique,
                    "candidates": [_spec_json(k) for k in result.candidates],
                }
            )
        )
        return
    if result.is_unknot:
        _echo("unknot")
    elif not result.candidates:
        _echo("no match")
    else:
        for k in result.candidates:
            _echo(str(k))
        _echo("unique" if result.unique else "ambiguous")


def _parse_companion(text: str) -> LaurentPoly:
    from . import torusknot
    from .laurent import LaurentPoly

    stripped = text.strip()
    if stripped.startswith("T(") or stripped.startswith("t("):
        return torusknot.alexander(torusknot.parse_spec(stripped))
    return LaurentPoly.parse(text)


def _witness_json(check: WindingCheck) -> dict:
    if check.kind == "magnitude_violation":
        return {
            "kind": check.kind,
            "exponent": check.exponent,
            "coefficient": check.coefficient,
        }
    return {
        "kind": check.kind,
        "exponents": list(check.exponent_pair),
        "coefficients": list(check.coefficients),
    }


def _obstruction_record(
    satellite: ModuleType,
    a: int,
    b: int,
    w: int,
    companion: LaurentPoly | CheckedCompanion,
    label: str,
) -> dict:
    # the command imports satellite once and passes the module in
    check = satellite.torus_satellite_obstruction(a, b, w, companion)
    record = {"a": a, "b": b, "w": w, "companion": label, "verdict": "obstructed"}
    record["witness"] = _witness_json(check)
    return record


@main.command()
@click.option("--a", "a", type=int, required=True, help="Pattern parameter a (a > b).")
@click.option("--b", "b", type=int, required=True, help="Pattern parameter b >= 2.")
@click.option("--w", "w", type=int, required=True, help="Winding number with w^2 | ab.")
@click.option(
    "--companion",
    required=True,
    help="Companion Alexander polynomial, or T(p,q) for a torus companion.",
)
@_domain_errors
def obstruct(a: int, b: int, w: int, companion: str):
    """L-space surgery obstruction for a torus-pattern satellite."""
    from . import satellite

    poly = _parse_companion(companion)
    _echo(_dumps(_obstruction_record(satellite, a, b, w, poly, str(poly))))


@main.group()
def sweep():
    """Exhaustive and randomized verification sweeps (NDJSON records)."""


def _coprime_pairs(limit: int):
    # All canonical (big, small) with small >= 2, big <= limit.
    for big in range(3, limit + 1):
        for small in range(2, big):
            if math.gcd(big, small) == 1:
                yield big, small


@sweep.command("obstruct")
@click.option("--a-max", type=click.IntRange(min=3), default=20, show_default=True)
@click.option("--companion-max", type=click.IntRange(min=3), default=10, show_default=True)
@_domain_errors
def sweep_obstruct(a_max: int, companion_max: int):
    """Check every torus-pattern satellite with w^2 | ab in range."""
    from . import satellite, torusknot

    specs = [torusknot.TorusKnotSpec(p, q) for p, q in _coprime_pairs(companion_max)]
    # the companions' terms together get alexander's limit, checked before
    # any is built; only each genus is kept, so the limit bounds build time
    terms = sum(map(torusknot.term_count, specs))
    if terms > torusknot.MAX_TERMS:
        raise ValueError(
            f"companions up to {companion_max} have {terms} nonzero Alexander terms, "
            f"more than the limit {torusknot.MAX_TERMS}"
        )
    # each companion is checked once here, not once per record
    companions = [(str(k), satellite.check_companion(torusknot.alexander(k))) for k in specs]
    total = 0
    for a, b in _coprime_pairs(a_max):
        for w in range(1, a):
            if (a * b) % (w * w):
                continue
            for label, checked in companions:
                _echo(_dumps(_obstruction_record(satellite, a, b, w, checked, label)))
                total += 1
    # every record is obstructed: w^2 | ab leaves w mod b nonzero
    summary = {"total": total, "obstructed": total, "config_impossible": 0, "not_obstructed": 0}
    _echo(_dumps({"summary": summary}))


@sweep.command("thinness")
@click.option("--max", "limit", type=click.IntRange(min=3), default=40, show_default=True)
@_domain_errors
def sweep_thinness(limit: int):
    """Check the Newton polygon of every enhanced A-polynomial in range is
    a segment of slope ab."""
    from . import apolygon, torusknot

    total = mismatches = 0
    for big, small in _coprime_pairs(limit):
        for a in (big, -big):
            k = torusknot.TorusKnotSpec(a, small)
            thin = apolygon.thinness(torusknot.enhanced_apoly(k))
            expected = k.a * k.b
            ok = thin.kind == "thin" and thin.slope == expected
            _echo(
                _dumps(
                    {
                        "a": k.a,
                        "b": k.b,
                        "kind": thin.kind,
                        "slope": None if thin.slope is None else str(thin.slope),
                        "expected": str(expected),
                        "ok": ok,
                    }
                )
            )
            total += 1
            mismatches += 0 if ok else 1
    _echo(_dumps({"summary": {"total": total, "mismatches": mismatches}}))
    if mismatches:
        sys.exit(1)


def _glue_sweep(kinds, count: int, seed: int, tolerance: float):
    from random import Random

    from . import repglue

    rng = Random(seed)
    failures = 0
    for kind in kinds:
        for _ in range(count):
            inst = repglue.sample_instance(kind, rng)
            ext = repglue.construct_extension(inst)
            res = repglue.verify_extension(inst, ext, tolerance)
            record = {
                "case": kind,
                "p": inst.p,
                "q": inst.q,
                "w": inst.w,
                "d": inst.d,
                "k": ext.chosen_k,
                "central_twist": ext.central_twist_used,
                "residuals": list(res.residuals),
                "ok": res.ok,
            }
            if kind == "diagonal":
                record["polar"] = {key: ext.polar[key] for key in ("s", "t", "theta", "phi", "m")}
            _echo(_dumps(record))
            failures += 0 if res.ok else 1
    _echo(_dumps({"summary": {"total": len(kinds) * count, "failed": failures}}))
    if failures:
        sys.exit(1)


def _nonnegative(ctx, param, value: float) -> float:
    # written "not >= 0" so that NaN, which compares false, is rejected too
    if not value >= 0:
        raise click.BadParameter(f"{value} is not a number >= 0")
    return value


def _tolerance_option(fn):
    return click.option(
        "--tolerance", type=float, default=_GLUE_TOL, show_default=True, callback=_nonnegative
    )(fn)


@sweep.command("glue")
@click.option("--per-case", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@_tolerance_option
@_domain_errors
def sweep_glue(per_case: int, seed: int, tolerance: float):
    """Randomized construct-and-verify sweep over all three gluing cases."""
    _glue_sweep(_GLUE_CASES, per_case, seed, tolerance)


@main.command("glue-verify")
@click.option(
    "--case",
    "case_kind",
    type=click.Choice(list(_GLUE_CASES) + ["all"]),
    default="all",
    show_default=True,
)
@click.option("--count", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@_tolerance_option
@_domain_errors
def glue_verify(case_kind: str, count: int, seed: int, tolerance: float):
    """Construct and independently verify randomized gluing instances."""
    kinds = _GLUE_CASES if case_kind == "all" else (case_kind,)
    _glue_sweep(kinds, count, seed, tolerance)


if __name__ == "__main__":
    main()
