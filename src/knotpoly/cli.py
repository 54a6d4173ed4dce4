"""Command line: exact knot polynomial computations and obstruction checks.

Subcommands compute Alexander polynomials and enhanced A-polynomials of
torus knots, Newton polygon data, torus knot detection, satellite
obstruction verdicts, exhaustive sweeps, and randomized gluing
verification.  Output is byte-deterministic: fixed key order, seeded
randomness, no timestamps.

``--format`` (or the KNOTPOLY_FORMAT environment variable) switches
alexander/apoly/newton/detect between text and JSON; obstruct, sweep,
and glue-verify always emit JSON records, one per line; a sweep ends
with a {"summary": ...} record.  A glue record that fails verification
is printed with "ok": false, counted in "failed", and makes the sweep
exit 1.

Each command returns its lines, a query as a list and a sweep as a
generator that returns 1 on a failing verdict; one writer, _write, puts
them on stdout: every command's lines go out 100 to a write; an error
record follows every record already formatted.  The dispatcher, main,
turns the command's code, a usage error, an error the command raises,
or a closed stdout into the exit code.  Exit codes: 0 success, 1 domain
error (with a structured {"error": ...} record), a failing verdict or a
closed stdout (nothing on stderr), 2 usage error, 3 internal invariant
failure (PredictionMismatch, with the same {"error": ...} record).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from types import SimpleNamespace

from . import CASE_KINDS, DEFAULT_TOL, PredictionMismatch  # the package base loads no submodule

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing
if TYPE_CHECKING:
    from .laurent import LaurentPoly
    from .torusknot import TorusKnotSpec

FORMAT_ENV = "KNOTPOLY_FORMAT"

# Each command imports the modules it uses, so a query starts without the rest.

# json.dumps builds a new encoder on every call; one with the same
# settings is built once here and gives the same bytes.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _dumps(obj) -> str:
    return _ENCODER.encode(obj)


def _echo(line: str) -> None:
    # sys.stdout is looked up on each call, so a caller's stream swap is seen
    # (pytest's capture, or the benchmark's CliRunner); the stream's own
    # buffering decides when a record reaches a pipe
    sys.stdout.write(line + "\n")


# lines a command writes per call
_BATCH = 100


def _write(lines) -> int:
    """Write a command's lines, _BATCH to a write, and return its exit code:
    the value its generator returns, or 0.  The lines already built are
    written however the command ends, so an error it raises comes out after
    every record before it."""
    lines, batch = iter(lines), []
    try:
        while True:
            try:
                batch.append(next(lines))
            except StopIteration as stop:
                return stop.value or 0
            if len(batch) == _BATCH:
                # emptied before the write, so a write that fails is not retried
                text, batch = "\n".join(batch), []
                _echo(text)
    finally:
        if batch:
            _echo("\n".join(batch))


def _lines(fmt: str, lines: list[str], record: dict) -> list[str]:
    return [_dumps(record)] if fmt == "json" else lines


def _spec_json(k: TorusKnotSpec) -> dict:
    return {"a": k.a, "b": k.b}


def alexander(knot: str, fmt: str):
    """Symmetrized Alexander polynomial of a torus knot T(a,b)."""
    from . import torusknot

    k = torusknot.parse_spec(knot)
    text = str(torusknot.alexander(k))
    return _lines(fmt, [text], {"knot": _spec_json(k), "genus": torusknot.genus(k), "alexander": text})


def apoly(knot: str, fmt: str):
    """Enhanced A-polynomial of a torus knot T(a,b)."""
    from . import torusknot

    k = torusknot.parse_spec(knot)
    text = str(torusknot.enhanced_apoly(k))
    return _lines(fmt, [text], {"knot": _spec_json(k), "apoly": text})


def newton(poly: str, fmt: str):
    """Newton polygon, edge slopes, and thinness of an (L, M) polynomial."""
    from . import apolygon

    f = apolygon.BiPoly.parse(poly)
    npg = apolygon.newton_polygon(f)
    thin = apolygon.thinness(f)
    slopes = [str(s) for s in npg.edge_slopes]  # str(INFINITE_SLOPE) is "inf"
    slope = str(thin.slope) if thin.kind == "thin" else None
    if thin.kind == "thin":
        verdict = f"thin slope={slope}"
    elif thin.infinite_slope:
        verdict = "not_thin (vertical support)"
    else:
        verdict = thin.kind
    lines = [
        "points: " + " ".join(f"({l},{m})" for l, m in npg.lattice_points),
        "hull: " + " ".join(f"({l},{m})" for l, m in npg.hull_vertices),
        "edge slopes: " + " ".join(slopes),
        "thinness: " + verdict,
    ]
    return _lines(fmt, lines, {
        "points": [list(p) for p in npg.lattice_points],
        "hull": [list(p) for p in npg.hull_vertices],
        "edge_slopes": slopes,
        "thinness": {"kind": thin.kind, "slope": slope, "infinite_slope": thin.infinite_slope},
    })


def detect(poly: str, degree: int | None, fmt: str):
    """Identify torus knots from an enhanced A-polynomial."""
    from . import apolygon

    f = apolygon.BiPoly.parse(poly)
    if degree is None:
        result = apolygon.detect_torus_from_apoly(f)
    else:
        result = apolygon.detect_with_degree(f, degree)
    if result.is_unknot:
        lines = ["unknot"]
    elif not result.candidates:
        lines = ["no match"]
    else:
        lines = [*map(str, result.candidates), "unique" if result.unique else "ambiguous"]
    return _lines(fmt, lines, {
        "unknot": result.is_unknot,
        "unique": result.unique,
        "candidates": [_spec_json(k) for k in result.candidates],
    })


def _parse_companion(text: str) -> LaurentPoly:
    from . import torusknot
    from .laurent import LaurentPoly

    stripped = text.strip()
    if stripped.startswith("T(") or stripped.startswith("t("):
        return torusknot.alexander(torusknot.parse_spec(stripped))
    return LaurentPoly.parse(text)


def _obstruction_line(a: int, b: int, w: int, label_json: str, check, shift: int = 0) -> str:
    """The obstructed record _dumps would write for check, a winding_violation
    report, keys in the same order and every witness exponent raised by
    shift; label_json is the companion label already encoded by _dumps, and
    an int prints as json prints it."""
    if check.verdict == "fails_magnitude":
        ((e, c),) = check.witness
        witness = f'"magnitude_violation","exponent":{e + shift},"coefficient":{c}'
    else:
        (e1, c1), (e2, c2) = check.witness
        witness = (f'"same_sign_violation","exponents":[{e1 + shift},{e2 + shift}],'
                   f'"coefficients":[{c1},{c2}]')
    return (
        f'{{"a":{a},"b":{b},"w":{w},"companion":{label_json},"verdict":"obstructed",'
        f'"witness":{{"kind":{witness}}}}}'
    )


def obstruct(a: int, b: int, w: int, companion: str):
    """L-space surgery obstruction for a torus-pattern satellite."""
    from . import satellite

    poly = _parse_companion(companion)
    check = satellite.torus_satellite_obstruction(a, b, w, poly)
    return [_obstruction_line(a, b, w, _dumps(str(poly)), check)]


def _coprime_pairs(limit: int):
    # All canonical (big, small) with small >= 2, big <= limit.
    for big in range(3, limit + 1):
        for small in range(2, big):
            if math.gcd(big, small) == 1:
                yield big, small


def sweep_obstruct(a_max: int, companion_max: int):
    """Check every torus-pattern satellite with w^2 | ab in range."""
    from . import satellite, torusknot

    specs, terms = [], 0
    # the companions' terms together get alexander's limit, summed bound by
    # bound before any is built, so a refusal stops at the first bound past
    # it; only each genus is kept, so the limit bounds build time
    for big, pairs in itertools.groupby(_coprime_pairs(companion_max), key=lambda pq: pq[0]):
        new = [torusknot.TorusKnotSpec(p, q) for p, q in pairs]
        specs += new
        terms += sum(map(torusknot.term_count, new))
        if terms > torusknot.MAX_TERMS:
            raise ValueError(
                f"companions up to {big} have {terms} nonzero Alexander terms, "
                f"more than the limit {torusknot.MAX_TERMS}"
            )
    # each companion is checked once here, not once per record, and its
    # label encoded once
    companions = [
        (_dumps(str(k)), satellite.check_companion(torusknot.alexander(k))) for k in specs
    ]
    total = 0
    for a, b in _coprime_pairs(a_max):
        for w in range(1, a):
            if (a * b) % (w * w):
                continue
            # the loop meets torus_satellite_obstruction's hypotheses
            # (a > b >= 2 coprime, w >= 1, w^2 | ab); a witness at genus h is
            # the one at genus 1 with its exponents raised by (h - 1)w, so
            # winding_violation checks the row once
            check = satellite.winding_violation(a, b, w, 1)
            for label, h in companions:
                yield _obstruction_line(a, b, w, label, check, (h - 1) * w)
            total += len(companions)
    # every record is obstructed: w^2 | ab leaves w mod b nonzero
    summary = {"total": total, "obstructed": total, "config_impossible": 0, "not_obstructed": 0}
    yield _dumps({"summary": summary})


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
            total += 1
            mismatches += 0 if ok else 1
            yield _dumps(
                {
                    "a": k.a,
                    "b": k.b,
                    "kind": thin.kind,
                    "slope": str(thin.slope) if thin.kind == "thin" else None,
                    "expected": str(expected),
                    "ok": ok,
                }
            )
    yield _dumps({"summary": {"total": total, "mismatches": mismatches}})
    return 1 if mismatches else 0


# json's spelling of the floats whose repr is not json
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JSON_BOOL = ("false", "true")


def _json_number(x) -> str:
    """An int or a float as json writes it: its repr, or NaN, Infinity or -Infinity."""
    text = repr(x)
    return _JSON_FLOAT.get(text, text)


def _glue_line(kind: str, inst, ext, res) -> str:
    """The glue record _dumps would write for one verified instance, keys in
    the same order; kind is one of CASE_KINDS, which json writes as it is.
    A residual keeps its type: an int one (a Jordan power's entries stay
    int) prints as an int, as json prints it."""
    r1, r2, r3 = map(_json_number, res.residuals)
    k = "null" if ext.polar is None else ext.polar["k"]
    line = (
        f'{{"case":"{kind}","p":{inst.p},"q":{inst.q},"w":{inst.w},"d":{inst.d},"k":{k},'
        f'"central_twist":{_JSON_BOOL[kind == "jordan_minus"]},'
        f'"residuals":[{r1},{r2},{r3}],"ok":{_JSON_BOOL[res.ok]}'
    )
    if kind != "diagonal":
        return line + "}"
    polar = ext.polar
    s, t, theta, phi, m = map(_json_number, (polar[key] for key in ("s", "t", "theta", "phi", "m")))
    return f'{line},"polar":{{"s":{s},"t":{t},"theta":{theta},"phi":{phi},"m":{m}}}}}'


def glue_verify(count: int, seed: int, tolerance: float, case_kind: str = "all"):
    """Construct and independently verify randomized gluing instances."""
    from random import Random

    from . import repglue

    kinds = CASE_KINDS if case_kind == "all" else (case_kind,)
    rng = Random(seed)
    failures = 0
    for kind in kinds:
        for _ in range(count):
            # looked up on repglue per record: the benchmark's tracer wraps them
            inst = repglue.sample_instance(kind, rng)
            ext = repglue.construct_extension(inst)
            res = repglue.verify_extension(inst, ext, tolerance)
            failures += 0 if res.ok else 1
            yield _glue_line(kind, inst, ext, res)
    yield _dumps({"summary": {"total": len(kinds) * count, "failed": failures}})
    return 1 if failures else 0


def _checked(kind: type, ok, want: str):
    def number(text: str):  # argparse names it in "invalid number value: 'x'"
        parsed = kind(text)
        if not ok(parsed):
            raise argparse.ArgumentTypeError(f"{parsed!r} is not {want}")
        return parsed
    return number


def _parser(prog: str, entry) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog, description=entry.doc, allow_abbrev=False)
    if hasattr(entry, "commands"):
        parser.add_argument("command", choices=entry.commands)
    for flag, kwargs in getattr(entry, "arguments", {}).items():
        if flag == "--format":  # read on each call; argparse passes a str default through type
            kwargs = {**kwargs, "default": os.environ.get(FORMAT_ENV) or "text"}
        parser.add_argument(flag, help=kwargs.get("default") and "default: %(default)s", **kwargs)
    return parser


class _Main(SimpleNamespace):
    """``main(argv=None) -> int``: parse with the named command's parser only, run it,
    and turn what it returns or raises into the exit code."""

    def __call__(self, argv=None) -> int:
        prog, entry, args = self.name, self, sys.argv[1:] if argv is None else list(argv)
        try:
            while hasattr(entry, "commands"):
                if not args or args[0] not in entry.commands:
                    _parser(prog, entry).parse_args(args[:1])  # exits: 0 for --help, else 2
                prog, entry, args = f"{prog} {args[0]}", entry.commands[args[0]], args[1:]
            parser = _parser(prog, entry)
            ns, extra = parser.parse_known_args(args)
            if extra and getattr(ns, "poly", "") is None:
                ns.poly = extra.pop(0)  # argparse reads an unspaced -1+M^210*L^2 as an option
            if extra or getattr(ns, "poly", "") is None:
                parser.error(f"unrecognized arguments: {' '.join(extra)}" if extra else "no poly")
        except SystemExit as exc:
            return exc.code
        try:
            try:
                # looked up per call: the benchmark's tracer wraps it
                code = entry.callback(**vars(ns))
            except (ValueError, ArithmeticError, PredictionMismatch) as exc:
                _echo(_dumps({"error": {"kind": type(exc).__name__, "detail": str(exc)}}))
                code = 3 if isinstance(exc, PredictionMismatch) else 1
            sys.stdout.flush()  # a closed pipe met by the last buffered write is caught here too
        except BrokenPipeError:
            # the reader is gone: stdout goes to devnull, so the flush at exit stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return code

    def main(self, args=None, prog_name=None):
        # CliRunner's call, kept for its one caller, perfbench/run.py run_traced;
        # test_main_main_raises_the_exit_code pins it
        raise SystemExit(self(args))


class _Leaf:
    """A command: the function returning its lines (a list, or a generator that
    returns the exit code) and {flag: add_argument keywords}; hashable, unlike a
    namespace.  callback runs the command and writes its lines with _write, so
    the benchmark's tracer, which wraps callback, times both."""

    def __init__(self, lines, arguments: dict):
        self.callback = lambda **kw: _write(lines(**kw))
        self.arguments, self.doc = arguments, lines.__doc__


_TEXT_OR_JSON = _checked(str, ("text", "json").__contains__, "text or json")
_FORMAT = {"--format": {"dest": "fmt", "type": _TEXT_OR_JSON, "metavar": "{text,json}"}}
_POLY = {"poly": {"nargs": "?"}, **_FORMAT}  # optional for the fix-up in _Main
_REQUIRED = {"required": True}
_INT = {"type": int, **_REQUIRED}
_MIN_3 = _checked(int, lambda n: n >= 3, ">= 3")
_COUNT = {"type": _checked(int, lambda n: n >= 1, ">= 1"), "default": 200}
_GLUE = {"--seed": {"type": int, "default": 7},  # a NaN --tolerance fails x >= 0
         "--tolerance": {"type": _checked(float, lambda x: x >= 0, ">= 0"), "default": DEFAULT_TOL}}
_SWEEPS = {
    "obstruct": _Leaf(sweep_obstruct, {"--a-max": {"type": _MIN_3, "default": 20},
                                       "--companion-max": {"type": _MIN_3, "default": 10}}),
    "thinness": _Leaf(sweep_thinness, {"--max": {"type": _MIN_3, "dest": "limit", "default": 40}}),
    "glue": _Leaf(glue_verify, {"--per-case": {**_COUNT, "dest": "count", "metavar": "PER_CASE"},
                                **_GLUE}),
}
_CASE = {"dest": "case_kind", "choices": (*CASE_KINDS, "all"), "default": "all"}
main = _Main(name="knotpoly", doc=__doc__.partition("\n")[0], commands={
    "alexander": _Leaf(alexander, {"knot": {}, **_FORMAT}),
    "apoly": _Leaf(apoly, {"knot": {}, **_FORMAT}),
    "newton": _Leaf(newton, _POLY),
    "detect": _Leaf(detect, {**_POLY, "--degree": {"type": int}}),
    "obstruct": _Leaf(obstruct, {"--a": _INT, "--b": _INT, "--w": _INT, "--companion": _REQUIRED}),
    "sweep": SimpleNamespace(doc="Exhaustive and randomized sweeps (NDJSON).", commands=_SWEEPS),
    "glue-verify": _Leaf(glue_verify, {"--case": _CASE, "--count": _COUNT, **_GLUE}),
})
