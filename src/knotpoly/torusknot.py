"""Torus knot invariants: Alexander polynomials, genus, enhanced
A-polynomials, and one of the two families of lens-space surgery slopes.

Specs are canonical with |a| > b >= 2 and the orientation sign carried on
a, so T(a, b), T(b, a), and sign-scattered inputs all collapse to one
value; the mirror of T(a, b) is T(-a, b).
"""

from __future__ import annotations

import math
import re

from . import _Frozen

# alexander refuses a knot with more nonzero terms than this before it
# allocates anything: about 175 MB peak to build and print one this size.
# T(100000,3) has 133,333 terms; T(750001,3), 1,000,001.
MAX_TERMS = 1_000_000

TYPE_CHECKING = False  # typing.TYPE_CHECKING without loading typing
if TYPE_CHECKING:
    from fractions import Fraction

    from .apolygon import BiPoly
    from .laurent import LaurentPoly


class TorusKnotSpec(_Frozen):
    """A nontrivial torus knot; parameters are canonicalized on construction.

    >>> TorusKnotSpec(2, 3) == TorusKnotSpec(3, 2)
    True
    >>> TorusKnotSpec(2, -3).a
    -3
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        for v in (a, b):
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"torus knot parameters must be integers, got {v!r}")
        if a == 0 or b == 0:
            raise ValueError("torus knot parameters must be nonzero")
        sign = 1 if a * b > 0 else -1
        p, q = max(abs(a), abs(b)), min(abs(a), abs(b))
        if math.gcd(p, q) != 1:
            raise ValueError(f"parameters {a}, {b} are not coprime")
        if q < 2:
            raise ValueError("T(a, 1) is the unknot; both parameters need magnitude >= 2")
        _Frozen.__init__(self, sign * p, q)

    def __str__(self) -> str:
        return f"T({self.a},{self.b})"


def parse_spec(text: str) -> TorusKnotSpec:
    """Parse the command line syntax ``T(a,b)``."""
    m = re.fullmatch(r"\s*T\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*", text)
    if not m:
        raise ValueError(f"cannot parse torus knot spec {text!r}; expected T(a,b)")
    return TorusKnotSpec(int(m.group(1)), int(m.group(2)))


def genus(k: TorusKnotSpec) -> int:
    """Seifert genus (|a| - 1)(b - 1) / 2."""
    return _closed_form(abs(k.a), k.b)[2]


def _closed_form(p: int, q: int) -> tuple[int, int, int, int, int]:
    # for T(p, q) with p > q >= 2 coprime: p, q, the genus g and Lam and
    # Leung's r, s >= 0 with rp + sq = 2g
    g = (p - 1) * (q - 1) // 2
    r = (pow(p, -1, q) - 1) % q
    return p, q, g, r, (2 * g - r * p) // q


def term_count(k: TorusKnotSpec) -> int:
    """Number of nonzero terms of alexander(k), (r+1)(s+1) + (q-r-1)(p-s-1)
    in the notation of ``alexander``; computed without building it."""
    p, q, _, r, s = _closed_form(abs(k.a), k.b)
    return (r + 1) * (s + 1) + (q - r - 1) * (p - s - 1)


def alexander(k: TorusKnotSpec) -> LaurentPoly:
    """Symmetrized Alexander polynomial (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1));
    mirrors share it.

    Each nonzero term is written once, with its final sign, by the closed
    form of T. Y. Lam and K. H. Leung, "On the cyclotomic polynomial
    Phi_pq(X)", Amer. Math. Monthly 103 (1996): take r, s >= 0 with
    rp + sq = 2g (g the genus); the terms are +t^{ip + jq - g} for
    0 <= i <= r, 0 <= j <= s, and -t^{ip + jq - pq - g} for r < i < q,
    s < j < p.  Raises ValueError, before allocating anything, when the
    polynomial would have more than MAX_TERMS nonzero terms.
    """
    from .laurent import _raw  # deferred: a query that builds no LaurentPoly skips laurent

    count = term_count(k)
    if count > MAX_TERMS:
        raise ValueError(
            f"{k} has {count} nonzero Alexander terms, more than the limit {MAX_TERMS}"
        )
    p, q, g, r, s = _closed_form(abs(k.a), k.b)
    terms = {i * p + j * q - g: 1 for i in range(r + 1) for j in range(s + 1)}
    terms.update(
        (i * p + j * q - p * q - g, -1) for i in range(r + 1, q) for j in range(s + 1, p)
    )
    return _raw(terms)


def torus_coefficient(k: TorusKnotSpec, e: int) -> int:
    """Coefficient of t^e in alexander(k), in O(1) without building it.

    By the closed form of Lam and Leung (Amer. Math. Monthly 103, 1996;
    see ``alexander``), n = e + g has exactly one representation
    n = ip + jq with 0 <= i < q, namely i = n p^-1 mod q and
    j = (n - ip) / q.  The coefficient is +1 when i <= r and 0 <= j <= s,
    -1 when r < i and s < j + p < p, and 0 otherwise.
    """
    return _form_coefficient(_closed_form(abs(k.a), k.b), e)


def _form_coefficient(form: tuple[int, int, int, int, int], e: int) -> int:
    # torus_coefficient from a _closed_form computed once by the caller
    p, q, g, r, s = form
    if abs(e) > g:
        return 0
    n = e + g
    i = n * (r + 1) % q  # r + 1 is p^-1 mod q
    j = (n - i * p) // q
    if i <= r:
        return 1 if 0 <= j <= s else 0
    return -1 if s < j + p < p else 0


def leading_form(k: TorusKnotSpec) -> LaurentPoly:
    """Partial expansion sum_{i=0}^{floor(p/q)} (t^{g-iq} - t^{g-iq-1}).

    Agrees with the full Alexander polynomial on every exponent above g - p
    (p = |a|, q = b, g the genus).
    """
    from .laurent import LaurentPoly  # deferred, as in alexander

    p, q = abs(k.a), k.b
    g = genus(k)
    terms: dict[int, int] = {}
    for i in range(p // q + 1):
        terms[g - i * q] = 1
        terms[g - i * q - 1] = -1
    return LaurentPoly(terms)


def enhanced_apoly(k: TorusKnotSpec) -> BiPoly:
    """Enhanced A-polynomial of T(a, b), from SL(2,C) reps: an irreducible
    one sends the central x^a of <x, y | x^a = y^b> to eps*I, eps = (-1)^k
    for x's eigenvalue angle pi*k/|a|, so the meridian and longitude
    eigenvalues M, L satisfy L*M^(|a|b) = eps.  b = 2 meets only eps = -1,
    giving 1 + L*M^(2|a|); b >= 3 meets both signs, giving
    1 - L^2*M^(2|a|b).  The mirror (a < 0) takes L to 1/L, L-powers cleared.

    >>> print(enhanced_apoly(TorusKnotSpec(3, 2)), enhanced_apoly(TorusKnotSpec(-5, 3)), sep="; ")
    1 + M^6*L; M^30 - L^2
    """
    from .apolygon import BiPoly, template_terms

    l_degree = 1 if k.b == 2 else 2
    return BiPoly(template_terms(l_degree, k.a < 0, l_degree * abs(k.a) * k.b))


def abelian_slope_family(k: TorusKnotSpec, n_max: int) -> tuple[list[Fraction], int]:
    """Surgery slopes (n*ab + 1)/n for 1 <= n <= n_max, in lowest terms,
    plus the limiting slope ab they accumulate at.

    p/q surgery on T(a, b) is a lens space iff |p - q*ab| = 1 (Moser,
    Pacific J. Math. 38, 1971), so these slopes are one of two families:
    (n*ab - 1)/n, not returned here, is SL(2,C)-abelian as well."""
    # imported here so that the queries that never build a slope skip it
    from fractions import Fraction

    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")
    ab = k.a * k.b
    slopes = [Fraction(n * ab + 1, n) for n in range(1, n_max + 1)]
    return slopes, ab
