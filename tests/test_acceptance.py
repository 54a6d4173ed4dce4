"""Acceptance gate: twelve externally stated criteria, each with an exact
check and a wall-clock budget.  Every test prints one PASS/FAIL line
(run with -s to see them live)."""

import math
import time
from random import Random

import pytest

from knotpoly.apolygon import (
    BiPoly,
    detect_torus_from_apoly,
    detect_with_degree,
    detectability,
    enhanced_apoly,
    thinness,
)
from knotpoly.repglue import (
    CASE_KINDS,
    Extension,
    construct_extension,
    diagonal_polar_data,
    sample_instance,
    verify_extension,
)
from knotpoly.satellite import (
    lspace_admissible,
    satellite_alexander,
    torus_satellite_obstruction,
    winding_violation,
)
from knotpoly.torusknot import (
    TorusKnotSpec,
    abelian_slope_family,
    alexander,
    genus,
    leading_form,
)

import oracles

GLUE_SEED = 1729


def replace(value, **changes):
    """A value type rebuilt from its fields, with some of them changed."""
    assert changes.keys() <= set(value.__slots__), changes
    return type(value)(*[changes.get(name, getattr(value, name)) for name in value.__slots__])


def finish(num, label, failures, start, budget):
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < budget
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} [{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, (failures[:5], f"{elapsed:.2f}s vs budget {budget}s")


def test_criterion_1_alexander_goldens():
    start = time.perf_counter()
    failures = []
    for p, q in [(3, 2), (5, 2), (4, 3)]:
        got = alexander(TorusKnotSpec(p, q)).as_dict()
        want = oracles.torus_alexander_oracle(p, q)
        if got != want:
            failures.append((p, q, got, want))
    finish(1, "torus Alexander goldens vs long-division oracle", failures, start, 1.0)


def test_criterion_2_leading_form_agreement():
    start = time.perf_counter()
    failures = []
    for p, q in oracles.coprime_pairs(40):
        k = TorusKnotSpec(p, q)
        g = genus(k)
        full = alexander(k)
        lead = leading_form(k)
        for e in range(g - p + 1, g + 1):
            if lead.coefficient(e) != full.coefficient(e):
                failures.append((p, q, e))
    finish(2, "leading-form agreement above exponent g-p, p <= 40", failures, start, 10.0)


def test_criterion_3_torus_admissibility():
    start = time.perf_counter()
    failures = []
    for p, q in oracles.coprime_pairs(40):
        rep = lspace_admissible(alexander(TorusKnotSpec(p, q)))
        if not rep.ok:
            failures.append((p, q, rep.verdict))
    finish(3, "all torus Alexander polynomials admissible, p <= 40", failures, start, 10.0)


def test_criterion_4_winding_witness_machine_check():
    start = time.perf_counter()
    failures = []
    companions = [
        (cp, cq, alexander(TorusKnotSpec(cp, cq)), genus(TorusKnotSpec(cp, cq)))
        for cp, cq in oracles.coprime_pairs(10)
    ]
    for a, b in oracles.coprime_pairs(20):
        g = genus(TorusKnotSpec(a, b))
        pattern = alexander(TorusKnotSpec(a, b))
        for w in range(1, a):
            for cp, cq, comp, h in companions:
                scan = lspace_admissible(satellite_alexander(pattern, comp, w))
                top = g + h * w
                if w % b == 0:
                    # no residue witness exists, and the product is admissible
                    with pytest.raises(ValueError, match="no residue witness"):
                        winding_violation(a, b, w, h)
                    if not scan.ok:
                        failures.append((a, b, w, cp, cq, "refused", scan.verdict))
                    continue
                # the prediction is the scan's whole report: the verdict, and
                # every witness exponent with its coefficient, where the
                # residue of w mod b puts them
                v = winding_violation(a, b, w, h)
                if w % b == 1:
                    where = ("fails_magnitude", [top - w])
                else:
                    where = ("fails_alternation", [top - (w // b) * b - 1, top - w])
                if v != scan or (v.verdict, [e for e, _ in v.witness]) != where:
                    failures.append((a, b, w, cp, cq, v, scan))
    finish(4, "winding witness predictions vs full-product scans", failures, start, 60.0)


def test_criterion_5_obstruction_sweep():
    start = time.perf_counter()
    failures = []
    companions = [alexander(TorusKnotSpec(cp, cq)) for cp, cq in oracles.coprime_pairs(10)]
    total = 0
    for a, b in oracles.coprime_pairs(20):
        for w in range(1, a):
            if (a * b) % (w * w):
                continue
            # the arithmetic that leaves no impossible configuration
            if not (w < a and w % b):
                failures.append((a, b, w, "impossible configuration"))
            for comp in companions:
                res = torus_satellite_obstruction(a, b, w, comp)
                total += 1
                expected = "fails_magnitude" if w % b == 1 else "fails_alternation"
                if res.verdict != expected:
                    failures.append((a, b, w, res.verdict))
    if total == 0:
        failures.append("empty sweep")
    finish(5, f"w^2 | ab sweep never unobstructed ({total} configs)", failures, start, 60.0)


def test_criterion_6_detection_goldens():
    start = time.perf_counter()
    failures = []
    cases = [
        ("-1 + M^210*L^2", None, [(35, 3), (21, 5), (15, 7)], False, False),
        ("-1 + M^150*L^2", None, [(25, 3)], True, False),
        ("1 + M^6*L", None, [(3, 2)], True, False),
        ("1", None, [], True, True),
        ("-1 + M^210*L^2", 68, [(35, 3)], True, False),
    ]
    for text, degree, want, unique, unknot in cases:
        f = BiPoly.parse(text)
        res = detect_with_degree(f, degree) if degree is not None else detect_torus_from_apoly(f)
        got = [(k.a, k.b) for k in res.candidates]
        if got != want or res.unique != unique or res.is_unknot != unknot:
            failures.append((text, degree, got, res.unique, res.is_unknot))
    finish(6, "A-polynomial detection goldens incl. --degree 68", failures, start, 1.0)


def test_criterion_7_thinness_sweep():
    start = time.perf_counter()
    failures = []
    for p, q in oracles.coprime_pairs(40):
        for a in (p, -p):
            k = TorusKnotSpec(a, q)
            res = thinness(enhanced_apoly(k))
            if res.kind != "thin" or res.slope != k.a * k.b:
                failures.append((a, q, res.kind, res.slope))
    finish(7, "enhanced A-polynomials thin of slope ab, |a| <= 40", failures, start, 5.0)


def test_criterion_8_detectability_cross_check():
    start = time.perf_counter()
    failures = []
    for p, q in oracles.coprime_pairs(40):
        for a in (p, -p):
            k = TorusKnotSpec(a, q)
            unique = detect_torus_from_apoly(enhanced_apoly(k)).unique
            if detectability(k) != unique:
                failures.append((a, q, detectability(k), unique))
    finish(8, "detectability matches detection uniqueness", failures, start, 5.0)


def test_criterion_9_glue_residuals_and_perturbations():
    start = time.perf_counter()
    failures = []
    rng = Random(GLUE_SEED)
    caught = total_perturbed = 0
    for kind in CASE_KINDS:
        for _ in range(200):
            g = sample_instance(kind, rng)
            e = construct_extension(g)
            res = verify_extension(g, e)
            if not res.ok or max(res.residuals) >= 1e-9:
                failures.append((kind, g.p, g.q, g.w, res.residuals))
                continue
            for target in ("mu_p", "lam_p"):
                for entry in "abcd":
                    mat = getattr(e, target)
                    bumped = replace(mat, **{entry: getattr(mat, entry) + 1e-3})
                    mutated = Extension(
                        bumped if target == "mu_p" else e.mu_p,
                        bumped if target == "lam_p" else e.lam_p,
                        None,
                    )
                    total_perturbed += 1
                    if not verify_extension(g, mutated).ok:
                        caught += 1
    if caught != total_perturbed:
        failures.append(f"perturbations caught {caught}/{total_perturbed}")
    finish(
        9,
        f"600 glue instances ok, {total_perturbed} perturbations all caught",
        failures,
        start,
        5.0,
    )


def test_criterion_10_case1_scalar_identity():
    start = time.perf_counter()
    failures = []
    rng = Random(GLUE_SEED)
    for _ in range(200):
        g = sample_instance("diagonal", rng)
        data = diagonal_polar_data(g)
        z = oracles.diagonal_scalar_identity(
            g.p, g.q, g.w, g.d,
            data["s"], data["t"], data["theta"], data["phi"], data["m"], data["k"],
        )
        if abs(z - 1) >= 1e-9:
            failures.append((g.p, g.q, g.w, g.d, abs(z - 1)))
    finish(10, "diagonal-case scalar closes to 1 from polar data", failures, start, 5.0)


def test_criterion_11_abelian_surgeries():
    # p/q surgery on T(a, b) has a non-abelian SL(2,C) rep exactly when it is
    # not a lens space, |p - q*ab| != 1 (Moser), and not the reducible slope
    # ab of a two-strand knot, L(a, 2) # RP^3 with every rep abelian
    def nonabelian(k, p, q):
        ab = k.a * k.b
        return abs(p - q * ab) != 1 and not (k.b == 2 and p == q * ab)

    start = time.perf_counter()
    failures = []
    knots = [TorusKnotSpec(a, b) for a, b in oracles.coprime_pairs(20) if a * b <= 40]
    slopes = [(p, q) for q in range(1, 9) for p in range(-60, 61) if math.gcd(p, q) == 1]
    for k in knots:
        mirror = TorusKnotSpec(-k.a, k.b)
        for p, q in slopes:
            found = oracles.nonabelian_surgery_rep(k.a, k.b, p, q)
            # p/q surgery on T(a, b) is -p/q surgery on its mirror T(-a, b)
            if nonabelian(k, p, q) != found or nonabelian(mirror, -p, q) != found:
                failures.append((k.a, k.b, p, q, found))
        for knot in (k, mirror):
            family, limit = abelian_slope_family(knot, 8)
            if limit != knot.a * knot.b:
                failures.append((knot.a, knot.b, "limit", limit))
            for s in family:
                p = s.numerator if knot.a > 0 else -s.numerator
                if oracles.nonabelian_surgery_rep(k.a, k.b, p, s.denominator):
                    failures.append((knot.a, knot.b, str(s), "family slope is not abelian"))
    finish(
        11,
        f"non-abelian surgeries on {len(knots)} torus knots and mirrors, "
        f"{len(knots) * len(slopes)} slopes each side; family slopes abelian",
        failures,
        start,
        5.0,
    )


def test_criterion_12_apoly_from_representations():
    # the polynomial derived from SL(2,C) reps equals enhanced_apoly exactly:
    # vanishing alone would pass a degree-2 polynomial for two-strand knots,
    # since 1 - L^2 M^(4a) is divisible by 1 + L M^(2a)
    start = time.perf_counter()
    failures = []
    worst = 0.0
    knots = [TorusKnotSpec(a, b) for p, b in oracles.coprime_pairs(75) if p * b <= 150 for a in (p, -p)]
    for k in knots:
        derived, commutator = oracles.torus_apoly_oracle(k.a, k.b)
        worst = max(worst, commutator)
        f = BiPoly(derived)
        if f != enhanced_apoly(k) or k not in detect_torus_from_apoly(f).candidates:
            failures.append((k.a, k.b, derived))
    if worst > 1e-9:
        failures.append(("mu, lam commutator", worst))
    finish(
        12,
        f"A-polynomial derived from reps on {len(knots)} torus knots and mirrors, ab <= 150",
        failures,
        start,
        5.0,
    )
