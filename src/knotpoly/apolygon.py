"""Newton polygons of two-variable (L, M) polynomials and torus knot detection.

A ``BiPoly`` is a sparse (l_exp, m_exp) -> coefficient map over the integers,
normalized so the lexicographically smallest monomial has a positive
coefficient (these polynomials are only ever meaningful up to an overall
sign).  Each monomial L^a M^b contributes the lattice point (a, b): first
coordinate the L-exponent, second the M-exponent.  Slopes are M-exponent
change over L-exponent change.

All polygon arithmetic is exact: integer cross products decide orientation
and collinearity, ``fractions.Fraction`` carries the slopes.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping

from . import _Frozen, join_terms, parse_terms

INFINITE_SLOPE = math.inf

# a sign, then a coefficient, a power of M and a power of L, at least one
# of them, in that order: "*" only joins a factor to a variable after it
_TERM = re.compile(
    r"([+-]?)(?:(\d+)(?:\*(?=[ML]))?)?"
    r"(?:(M)(?:\^(-?\d+))?(?:\*(?=L))?)?(?:(L)(?:\^(-?\d+))?)?\Z"
)


def _term(chunk: str) -> tuple[tuple[int, int], int]:
    m = _TERM.match(chunk)
    if not m or not (m[2] or m[3] or m[5]):
        raise ValueError(f"cannot parse term {chunk!r}")
    sign, coeff, has_m, m_exp, has_l, l_exp = m.groups()
    c = int(coeff) if coeff else 1
    me = (int(m_exp) if m_exp else 1) if has_m else 0
    le = (int(l_exp) if l_exp else 1) if has_l else 0
    return (le, me), -c if sign == "-" else c


class BiPoly(_Frozen):
    """Immutable two-variable Laurent polynomial in M and L, up to sign."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[tuple[int, int], int] | Iterable[tuple[tuple[int, int], int]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, int], int] = {}
        for key, c in items:
            l_exp, m_exp = key
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in (l_exp, m_exp, c)):
                raise TypeError(f"exponents and coefficients must be integers: {key!r}: {c!r}")
            key = (l_exp, m_exp)
            c = clean.get(key, 0) + c
            if c:
                clean[key] = c
            else:
                clean.pop(key, None)
        if clean and clean[min(clean)] < 0:
            clean = {k: -c for k, c in clean.items()}
        _Frozen.__init__(self, clean)

    @classmethod
    def parse(cls, text: str) -> "BiPoly":
        """Parse terms like ``-1 + M^24*L^2`` (whitespace-insensitive)."""
        return cls(parse_terms(text, _term))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def support(self) -> list[tuple[int, int]]:
        """Lattice points (l_exp, m_exp) with nonzero coefficient, sorted."""
        return sorted(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __str__(self) -> str:
        parts = []
        for key in sorted(self._terms):
            le, me = key
            c = self._terms[key]
            mag = abs(c)
            factors = []
            if me:
                factors.append("M" if me == 1 else f"M^{me}")
            if le:
                factors.append("L" if le == 1 else f"L^{le}")
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            parts.append(("- " if c < 0 else "+ ") + "*".join(factors))
        return join_terms(parts)


# ------- Newton polygon -------


class NewtonPolygon(_Frozen):
    """Convex hull data of a BiPoly's support.

    hull_vertices are the extreme points in counterclockwise order starting
    from the lexicographically smallest; edge_slopes are the deduplicated
    slopes (M-change over L-change), finite ones ascending, INFINITE_SLOPE
    last; each is a candidate strict boundary slope of the underlying knot.
    """

    __slots__ = ("lattice_points", "hull_vertices", "edge_slopes")


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _edge_slope(u: tuple[int, int], v: tuple[int, int]):
    dl = v[0] - u[0]
    dm = v[1] - u[1]
    if dl == 0:
        return INFINITE_SLOPE
    from fractions import Fraction  # loaded only by the queries that build a slope
    return Fraction(dm, dl)


def newton_polygon(f: BiPoly) -> NewtonPolygon:
    """Exact Newton polygon of a nonzero BiPoly."""
    if not f:
        raise ValueError("the zero polynomial has no Newton polygon")
    points = f.support()
    hull = _convex_hull(points)
    edges = zip(hull, hull[1:] + hull[:1]) if len(hull) > 1 else ()
    # a Fraction sorts below INFINITE_SLOPE, so a vertical edge comes last
    slopes = tuple(sorted({_edge_slope(u, v) for u, v in edges}))
    return NewtonPolygon(tuple(points), tuple(hull), slopes)


class ThinnessResult(_Frozen):
    """kind is one of "point", "thin", "not_thin"; slope is the slope of a
    segment support: a Fraction when thin, INFINITE_SLOPE for a vertical
    segment (kind not_thin), and None for a point or a polygon."""

    __slots__ = ("kind", "slope")

    @property
    def infinite_slope(self) -> bool:
        return self.slope is INFINITE_SLOPE


def thinness(f: BiPoly) -> ThinnessResult:
    """Classify the support by its convex hull: a single point, a segment
    (thin with its slope, unless it is vertical: then not_thin with slope
    INFINITE_SLOPE), or a polygon (not thin)."""
    if not f:
        raise ValueError("the zero polynomial has no Newton polygon")
    hull = _convex_hull(f.support())
    if len(hull) != 2:
        return ThinnessResult("point" if len(hull) == 1 else "not_thin", None)
    slope = _edge_slope(*hull)
    return ThinnessResult("not_thin" if slope is INFINITE_SLOPE else "thin", slope)


# ------- Torus knot detection -------


# trial division up to sqrt(n): at most 10^6 divisions
MAX_FACTORIZED = 10**12


def coprime_factorizations(n: int) -> list[tuple[int, int]]:
    """All (p, q) with 2 <= p < q, p * q = n, gcd(p, q) = 1, p ascending,
    for 4 <= n <= MAX_FACTORIZED."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 4:
        raise ValueError(f"need an integer n >= 4, got {n!r}")
    if n > MAX_FACTORIZED:
        raise ValueError(f"cannot factor {n}: more than the limit {MAX_FACTORIZED}")
    out = []
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            q = n // p
            if q != p and math.gcd(p, q) == 1:
                out.append((p, q))
    return out


class DetectionResult(_Frozen):
    """candidates lists every torus knot whose enhanced A-polynomial matches,
    and is_unknot says the input is the unknot's; unique, read from the two,
    means the input pins down one knot (or the unknot)."""

    __slots__ = ("candidates", "is_unknot")

    @property
    def unique(self) -> bool:
        return self.is_unknot or len(self.candidates) == 1


def template_terms(l_degree: int, mirrored: bool, m_exp: int) -> dict:
    """Terms of an enhanced A-polynomial template of torus knots T(a, b),
    in normalized sign: L-degree one for two-strand knots, with the
    L-monomial's coefficient +1, and two otherwise, with -1.  The M-power
    |a| * b * L-degree sits on the L-monomial, or on the constant monomial
    for the mirror (a < 0)."""
    top = 1 if l_degree == 1 else -1
    if mirrored:
        return {(0, m_exp): 1, (l_degree, 0): top}
    return {(0, 0): 1, (l_degree, m_exp): top}


def detect_torus_from_apoly(f: BiPoly) -> DetectionResult:
    """Match a BiPoly against the enhanced A-polynomial templates of torus
    knots (and the unknot's trivial polynomial)."""
    from .torusknot import TorusKnotSpec  # deferred: newton loads neither torusknot nor laurent

    terms = f.as_dict()
    if terms == {(0, 0): 1}:
        return DetectionResult((), True)
    if len(terms) != 2:
        return DetectionResult((), False)
    low, high = sorted(terms)
    for l_degree, mirrored in ((1, False), (1, True), (2, False), (2, True)):
        m_exp = low[1] if mirrored else high[1]
        if terms != template_terms(l_degree, mirrored, m_exp):
            continue
        # The M-power over the L-degree is |a| * b, and b = 2 exactly for
        # the two-strand templates, which therefore pin the knot down.
        prod, rem = divmod(m_exp, l_degree)
        if rem or prod < 4:
            return DetectionResult((), False)
        sign = -1 if mirrored else 1
        cands = tuple(
            TorusKnotSpec(sign * q, p)
            for p, q in coprime_factorizations(prod)
            if (p == 2) == (l_degree == 1)
        )
        return DetectionResult(cands, False)
    return DetectionResult((), False)


def detect_with_degree(f: BiPoly, alexander_degree: int) -> DetectionResult:
    """Detection refined by the Alexander polynomial degree 2g; the answer
    is always unique or empty because (|a|-1)(b-1) determines the pair.
    Raises ValueError unless alexander_degree is an int (not a bool) >= 0."""
    if not isinstance(alexander_degree, int) or isinstance(alexander_degree, bool):
        raise ValueError(f"degree must be an integer, got {alexander_degree!r}")
    if alexander_degree < 0:
        raise ValueError("degree must be nonnegative")
    from .torusknot import genus  # loaded already by detect_torus_from_apoly

    base = detect_torus_from_apoly(f)
    if base.is_unknot:
        return DetectionResult((), alexander_degree == 0)
    kept = tuple(k for k in base.candidates if 2 * genus(k) == alexander_degree)
    return DetectionResult(kept, False)


def detectability(k) -> bool:
    """Whether the enhanced A-polynomial alone pins down this torus knot:
    true for two-strand knots and whenever both parameters are prime powers.
    Raises ValueError when b > 2 and |a| (above b) is more than
    MAX_FACTORIZED, the limit of trial division."""
    a, b = abs(k.a), k.b
    if b == 2:
        return True
    if a > MAX_FACTORIZED:
        raise ValueError(f"cannot factor {a}: more than the limit {MAX_FACTORIZED}")
    return _is_prime_power(a) and _is_prime_power(b)


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = _smallest_prime_factor(n)
    while n % p == 0:
        n //= p
    return n == 1


def _smallest_prime_factor(n: int) -> int:
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return p
    return n
