"""Satellite Alexander polynomials and the coefficient obstructions that
keep torus-pattern satellites from admitting instanton L-space surgeries.

The polynomial of a satellite with pattern P, companion C and winding
number w is pattern(t) * companion(t^w) (Seifert, Quart. J. Math. 1950).

``lspace_admissible`` scans a symmetrized polynomial top-down against the
three necessary conditions satisfied by every knot with an instanton
L-space surgery: coefficients in {-1, 0, 1}, strictly alternating signs
on the nonzero coefficients, and nonzero opposite-sign coefficients in
the top two positions.  The scan is positional: the violation at the
highest exponent determines the verdict.
"""

from __future__ import annotations

import math

from . import PredictionMismatch, _Frozen
from .laurent import LaurentPoly
# alexander is unused: perfbench's binding self-test asserts satellite.alexander is torusknot's
from .torusknot import MAX_TERMS, _closed_form, _form_coefficient, alexander


def _require_symmetrized(poly: LaurentPoly, label: str) -> None:
    if not poly:
        raise ValueError(f"{label} must be nonzero")
    terms = poly.as_dict()
    if any(terms.get(-e) != c for e, c in terms.items()):
        raise ValueError(f"{label} must be symmetrized (equal to its mirror)")
    if sum(terms.values()) <= 0:
        raise ValueError(f"{label} must be positive at t = 1")


def satellite_alexander(pattern: LaurentPoly, companion: LaurentPoly, w: int) -> LaurentPoly:
    """pattern(t) * companion(t^w): a product of symmetrized polynomials
    positive at t = 1, so itself symmetrized.  Raises ValueError unless
    w is an integer >= 1 and both polynomials are symmetrized, nonzero and
    positive at t = 1, checked in that order."""
    if not isinstance(w, int) or isinstance(w, bool) or w < 1:
        raise ValueError(f"winding number must be an integer >= 1, got {w!r}")
    _require_symmetrized(pattern, "pattern polynomial")
    _require_symmetrized(companion, "companion polynomial")
    return pattern * companion.dilate(w)


# ------- L-space coefficient test -------


class AdmissibilityReport(_Frozen):
    """verdict is admissible, fails_magnitude, fails_alternation, or
    fails_top_two; failures carry the offending exponent(s) with their
    coefficients, highest exponent first."""

    __slots__ = ("verdict", "witness_exponent", "witness_coefficients")

    def __init__(
        self, verdict: str, witness_exponent: int | None = None,
        witness_coefficients: tuple[tuple[int, int], ...] = (),
    ):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness_exponent", witness_exponent)
        object.__setattr__(self, "witness_coefficients", witness_coefficients)

    @property
    def ok(self) -> bool:
        return self.verdict == "admissible"


def lspace_admissible(f: LaurentPoly) -> AdmissibilityReport:
    """Scan a symmetrized polynomial against the three L-space coefficient
    conditions, reporting the first violation met going down from the top
    exponent."""
    _require_symmetrized(f, "input")
    g = f.span()[1]
    c_top = f.coefficient(g)
    if g >= 1 and abs(c_top) < 2 and f.coefficient(g - 1) == 0:
        return AdmissibilityReport("fails_top_two", g, ((g, c_top), (g - 1, 0)))
    prev = None
    for e, c in f.items():
        if abs(c) >= 2:
            return AdmissibilityReport("fails_magnitude", e, ((e, c),))
        if prev is not None and (c > 0) == (prev[1] > 0):
            return AdmissibilityReport("fails_alternation", prev[0], (prev, (e, c)))
        prev = (e, c)
    return AdmissibilityReport("admissible")


# ------- Residue-class violations for torus-pattern satellites -------


class WindingCheck(_Frozen):
    """kind is magnitude_violation (exponent, coefficient) or
    same_sign_violation (exponent pair, coefficients, higher first)."""

    __slots__ = ("kind", "exponent", "coefficient", "exponent_pair", "coefficients")

    def __init__(
        self, kind: str, exponent: int | None = None, coefficient: int | None = None,
        exponent_pair: tuple[int, int] | None = None, coefficients: tuple[int, int] | None = None,
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "exponent_pair", exponent_pair)
        object.__setattr__(self, "coefficients", coefficients)


class CheckedCompanion(_Frozen):
    """The genus h >= 1 of a companion polynomial that passed
    check_companion; being admissible, the companion's top two terms are
    t^h - t^(h-1), which is all a witness reads of it.  Build it with
    check_companion, once per companion, and pass it to winding_violation
    or torus_satellite_obstruction for every record.  A genus that is not
    an int raises TypeError, one below 1 ValueError."""

    __slots__ = ("genus",)

    def __init__(self, genus: int):
        if not isinstance(genus, int) or isinstance(genus, bool):
            raise TypeError(f"companion genus must be an int, got {genus!r}")
        if genus < 1:
            raise ValueError("companion genus must be >= 1")
        object.__setattr__(self, "genus", genus)


def check_companion(companion: LaurentPoly) -> CheckedCompanion:
    """Check that a companion polynomial is admissible with genus >= 1,
    raising ValueError otherwise, and return it as a CheckedCompanion."""
    _require_symmetrized(companion, "companion polynomial")
    report = lspace_admissible(companion)
    if not report.ok:
        raise ValueError(
            f"companion polynomial must be admissible, but it {report.verdict}"
        )
    return CheckedCompanion(companion.span()[1])


def winding_violation(
    a: int, b: int, w: int, companion: LaurentPoly | CheckedCompanion
) -> WindingCheck:
    """Locate the admissibility violation that the residue of w mod b
    forces in alexander(T(a, b))(t) * companion(t^w).

    Every witness lies in the window [top - w, top] below the product's
    top exponent top = g + hw, where only the companion's top two terms
    t^h - t^(h-1) reach; each witness coefficient is a difference of two
    pattern coefficients, read in O(1) as torus_coefficient does, from
    Lam and Leung's closed form computed once per call, so a record costs
    O(w mod b) whatever the size of the pattern or the companion.  Any
    disagreement raises PredictionMismatch.
    Requires a > b >= 2 coprime, 1 <= w < a, and an admissible companion
    of genus >= 1: a LaurentPoly is checked on entry, a CheckedCompanion
    was checked when it was built.  Raises ValueError when b divides w,
    where no residue witness exists, and when the same-sign gap would
    span more than MAX_TERMS exponents.
    """
    _check_pattern(a, b)
    if not isinstance(w, int) or isinstance(w, bool) or not 1 <= w < a:
        raise ValueError(f"winding number must satisfy 1 <= w < a, got {w!r}")
    if not isinstance(companion, CheckedCompanion):
        companion = check_companion(companion)
    h = companion.genus
    g = (a - 1) * (b - 1) // 2

    r = w % b
    if r == 0:
        raise ValueError(f"w = {w} is a multiple of b = {b}: no residue witness")
    if r - 2 > MAX_TERMS:
        raise ValueError(
            f"the same-sign gap spans {r - 2} exponents, more than the limit {MAX_TERMS}"
        )

    form = _closed_form(a, b)

    def coefficient(e: int) -> int:
        # The companion's top two terms are +t^h and -t^(h-1): they are
        # nonzero with opposite signs, and alternating signs on a palindrome
        # positive at t = 1 sum to the top one, so it is +1.  A lower term k
        # reads the pattern at e - wk > g, where its coefficient is 0.
        return _form_coefficient(form, e - h * w) - _form_coefficient(form, e - (h - 1) * w)

    if r == 1:
        e = g + h * w - w
        c = coefficient(e)
        if abs(c) != 2:
            raise PredictionMismatch(
                f"expected a coefficient of magnitude 2 at exponent {e}, found {c}"
            )
        return WindingCheck("magnitude_violation", exponent=e, coefficient=c)
    e1 = g + h * w - (w // b) * b - 1
    e2 = g + h * w - w
    c1 = coefficient(e1)
    c2 = coefficient(e2)
    if c1 == 0 or c2 == 0 or (c1 > 0) != (c2 > 0):
        raise PredictionMismatch(
            f"expected same-sign coefficients at exponents {e1}, {e2}; found {c1}, {c2}"
        )
    if any(coefficient(e) for e in range(e2 + 1, e1)):
        raise PredictionMismatch(
            f"expected no nonzero coefficients strictly between {e2} and {e1}"
        )
    return WindingCheck(
        "same_sign_violation", exponent_pair=(e1, e2), coefficients=(c1, c2)
    )


def torus_satellite_obstruction(
    a: int, b: int, w: int, companion: LaurentPoly | CheckedCompanion
) -> WindingCheck:
    """Decide whether a winding-w satellite with pattern T(a, b) and the
    given companion polynomial is obstructed from instanton L-space
    surgeries, under the divisibility hypothesis w^2 | ab.

    Returns the WindingCheck of winding_violation, which reads each witness
    coefficient in O(1) from the pattern's closed form: every such
    satellite is obstructed, since w^2 | ab leaves w mod b nonzero, and the
    kind names the violated condition.  The companion may come pre-checked
    as a CheckedCompanion (check it once, use it for every record); a
    LaurentPoly is checked (admissible, genus >= 1) on entry, by
    winding_violation."""
    _check_pattern(a, b)
    if not isinstance(w, int) or isinstance(w, bool) or w < 1:
        raise ValueError(f"winding number must be an integer >= 1, got {w!r}")
    if (a * b) % (w * w) != 0:
        raise ValueError(f"w^2 = {w * w} does not divide ab = {a * b}")
    # w^2 | ab with a > b coprime forces w < a (else ab >= w^2 >= a^2 > ab)
    # and b not dividing w (else b^2 | ab, so b | a).
    return winding_violation(a, b, w, companion)


def _check_pattern(a: int, b: int) -> None:
    for v in (a, b):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"pattern parameters must be integers, got {v!r}")
    if not a > b >= 2:
        raise ValueError(f"pattern needs a > b >= 2, got a = {a}, b = {b}")
    if math.gcd(a, b) != 1:
        raise ValueError(f"pattern parameters {a}, {b} are not coprime")
