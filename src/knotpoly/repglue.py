"""Numerical verification that abelian SL(2,C) representations of a
companion knot group extend over satellite peripheral tori.

Given a representation sending the companion's meridian/longitude pair to
commuting matrices (mu, lam) in Jordan normal form, a surgery slope p/q,
and a winding number w, the construction produces peripheral images
(mu_P, lam_P) for the satellite with three defining equations:

    (1) mu_P^w = mu          (sign-twisted in the jordan_minus case)
    (2) lam_P  = lam^w
    (3) mu_P^(p w^2 / d) * lam_P^(q / d) = identity,   d = gcd(q, w^2)

Three construction cases, keyed by the Jordan shape of mu and the parity
of w: diagonal (eigenvalue not +-1), jordan_plus (unipotent up to a sign
eps with eps^w = eps), jordan_minus (eigenvalue -1 with even w, which
needs a central character twist).  Everything is double precision.
construct_extension only builds (mu_P, lam_P); verify_extension is the one
check, comparing the max-norm residuals of the three equations against a
configurable absolute tolerance.  The checks read entries: each residual
is computed from the entries of the matrices it compares, and a product
or the identity that a residual needs is never built as a Mat2C.  Powers
are Mat2C.__pow__, binary exponentiation on scalars with the expressions
of _product in the same order, so a power and every residual equal those
of the chain of whole-matrix products bit for bit; that whole-matrix
reference lives in tests/oracles.py.  The reference also squares the base
after the top bit; __pow__ skips that square, which no entry of the result
reads, so the bits stay the same.
"""

from __future__ import annotations

import cmath
import math
from random import Random

from . import CASE_KINDS, DEFAULT_TOL, _Frozen

_ANGLE_TOL = 1e-6
# entries (a, b, c, d) of the identity matrix
_IDENTITY = (1, 0, 0, 1)


class Mat2C(_Frozen):
    """2x2 complex matrix with exact-shape helpers for SL(2,C) work."""

    __slots__ = ("a", "b", "c", "d")

    @staticmethod
    def diagonal(x: complex, y: complex) -> "Mat2C":
        return Mat2C(x, 0, 0, y)

    @staticmethod
    def upper(scale: complex, off: complex) -> "Mat2C":
        """scale * [[1, off], [0, 1]]"""
        return Mat2C(scale, scale * off, 0, scale)

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def scaled(self, z: complex) -> "Mat2C":
        return Mat2C(z * self.a, z * self.b, z * self.c, z * self.d)

    def __pow__(self, n: int) -> "Mat2C":
        """Binary exponentiation from the low bit, on local scalars: each
        product is written out with the four expressions of _product, and
        a negative power first inverts with d/det, -b/det, -c/det, a/det
        (det = ad - bc), in the same order, so the result equals the chain
        of whole-matrix products bit for bit while only the returned
        matrix is built.  The base is squared only while a higher bit is
        left: no entry of the result reads the square after the top bit,
        so skipping it changes no bit (a float or complex product that
        overflows gives inf, it does not raise, so that square raised
        nothing either)."""
        ba, bb, bc, bd = self.a, self.b, self.c, self.d
        if n < 0:
            det = ba * bd - bb * bc
            ba, bb, bc, bd = bd / det, -bb / det, -bc / det, ba / det
            n = -n
        ra, rb, rc, rd = _IDENTITY
        while n:
            if n & 1:
                ra, rb, rc, rd = (
                    ra * ba + rb * bc,
                    ra * bb + rb * bd,
                    rc * ba + rd * bc,
                    rc * bb + rd * bd,
                )
            n >>= 1
            if n:
                ba, bb, bc, bd = (
                    ba * ba + bb * bc,
                    ba * bb + bb * bd,
                    bc * ba + bd * bc,
                    bc * bb + bd * bd,
                )
        return Mat2C(ra, rb, rc, rd)

    def dist(self, other: "Mat2C") -> float:
        return _max_norm(
            abs(self.a - other.a),
            abs(self.b - other.b),
            abs(self.c - other.c),
            abs(self.d - other.d),
        )


def _max_norm(da: float, db: float, dc: float, dd: float) -> float:
    """The largest of four entry distances, NaN when any of them is NaN
    (max alone keeps a finite value over a later NaN)."""
    if math.isnan(da + db + dc + dd):
        return math.nan
    return max(da, db, dc, dd)


def _product(x: Mat2C, y: Mat2C) -> tuple[complex, complex, complex, complex]:
    """Entries (a, b, c, d) of the matrix product x y."""
    return (
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def _entry_dist(x: tuple, y: tuple) -> float:
    """Mat2C.dist on entry tuples (a, b, c, d)."""
    return _max_norm(
        abs(x[0] - y[0]),
        abs(x[1] - y[1]),
        abs(x[2] - y[2]),
        abs(x[3] - y[3]),
    )


class GlueInstance(_Frozen):
    """Surgery slope p/q, winding w and the companion peripheral pair
    (mu, lam) with its case, the classify_case name that picks the
    construction and the target of equation (1); d = gcd(q, w^2) is the
    denominator of the surgered satellite slope.  Build it with
    glue_instance, which checks the pair, or sample_instance."""

    __slots__ = ("p", "q", "w", "d", "mu", "lam", "case")


class Extension(_Frozen):
    """Constructed satellite peripheral images, unchecked until
    verify_extension computes their residuals.  A diagonal-case extension
    keeps the diagonal_polar_data it was built from (the root index k
    among it) in polar; a Jordan-case one has polar None.  All three
    fields are given, positionally: Extension(mu_p, lam_p, None)."""

    __slots__ = ("mu_p", "lam_p", "polar")
    # polar is derived from the instance, so it takes no part in equality,
    # and leaving the dict out keeps Extension hashable
    _compared = ("mu_p", "lam_p")


class VerifyResult(_Frozen):
    """The residuals of the three defining equations, and the first one
    over the tolerance (None when every residual is within it), both
    given positionally: VerifyResult(residuals, None) passes."""

    __slots__ = ("residuals", "failed_equation")

    @property
    def ok(self) -> bool:
        return self.failed_equation is None


def classify_case(mu: Mat2C, lam: Mat2C, w: int) -> str:
    """Route a Jordan-form peripheral pair to its construction case, one
    of CASE_KINDS.

    diagonal: mu diagonal with eigenvalue away from +-1 (lam must be
    diagonal too).  jordan_plus: mu a Jordan block of eigenvalue +1, or of
    eigenvalue -1 with odd w.  jordan_minus: eigenvalue -1 with even w.
    A Jordan case also needs lam's eigenvalue within DEFAULT_TOL of +-1.
    Anything else (mu = +-identity, lower-triangular or non-Jordan input,
    determinant away from 1) is rejected.  Shapes are compared at
    DEFAULT_TOL.
    """
    tol = DEFAULT_TOL
    for m, label in ((mu, "mu"), (lam, "lam")):
        if not abs(m.det() - 1) <= tol:
            raise ValueError(f"{label} must lie in SL(2,C); determinant is {m.det()}")
    if not abs(mu.c) <= tol:
        raise ValueError("mu must be in (upper triangular) Jordan normal form")
    if abs(mu.b) <= tol:
        if abs(mu.a - 1) <= tol or abs(mu.a + 1) <= tol:
            raise ValueError("mu must not be the identity up to sign")
        if not abs(lam.b) <= tol or not abs(lam.c) <= tol:
            raise ValueError("lam must be diagonal when mu is diagonal")
        return "diagonal"
    if abs(mu.a - 1) <= tol:
        eps = 1
    elif abs(mu.a + 1) <= tol:
        eps = -1
    else:
        raise ValueError("a Jordan block in SL(2,C) must have eigenvalue +-1")
    if not abs(mu.a - mu.d) <= tol:
        raise ValueError("mu must be in Jordan normal form")
    if not abs(lam.c) <= tol or not abs(lam.a - lam.d) <= tol:
        raise ValueError("lam must share mu's triangular Jordan shape")
    if not (abs(lam.a - 1) <= tol or abs(lam.a + 1) <= tol):
        raise ValueError("lam must have eigenvalue +-1 when mu is a Jordan block")
    return "jordan_plus" if eps == 1 or w % 2 == 1 else "jordan_minus"


def glue_instance(p: int, q: int, w: int, mu: Mat2C, lam: Mat2C) -> GlueInstance:
    """Bundle slope, winding, and peripheral pair, checking at DEFAULT_TOL
    that the pair classifies (classify_case), commutes, and satisfies the
    defining relation mu^p * lam^q = identity."""
    for part, value in (("numerator", p), ("denominator", q)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"slope {part} must be an integer, got {value!r}")
    if q < 1:
        raise ValueError(f"slope denominator must be positive, got {q!r}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"slope {p}/{q} is not in lowest terms")
    if not isinstance(w, int) or isinstance(w, bool) or w < 1:
        raise ValueError(f"winding number must be an integer >= 1, got {w!r}")
    case = classify_case(mu, lam, w)
    if not _entry_dist(_product(mu, lam), _product(lam, mu)) <= DEFAULT_TOL:
        raise ValueError("mu and lam must commute")
    err = _entry_dist(_product(mu ** p, lam ** q), _IDENTITY)
    if not err <= DEFAULT_TOL:
        raise ValueError(f"peripheral relation mu^p lam^q = 1 fails (residual {err:g})")
    return GlueInstance(p, q, w, math.gcd(q, w * w), mu, lam, case)


def choose_k(m: int, p: int, d: int) -> int:
    """Smallest k >= 0 with m + p k = 0 (mod d); needs gcd(p, d) = 1.
    For d = 1 that is 0, as pow(p, -1, 1) is 0 for every p."""
    if d < 1:
        raise ValueError(f"modulus must be positive, got {d!r}")
    if math.gcd(p, d) != 1:
        raise ValueError(f"p = {p} is not invertible modulo d = {d}")
    return (-m * pow(p, -1, d)) % d


def diagonal_polar_data(g: GlueInstance) -> dict:
    """Polar form (s, t, theta, phi), winding integer m of the relation
    angle, and the chosen root index k for a diagonal-case instance, whose
    mu and lam have the eigenvalues alpha = mu.a and beta = lam.a."""
    if g.case != "diagonal":
        raise ValueError("polar data only exists for the diagonal case")
    s, theta = abs(g.mu.a), cmath.phase(g.mu.a)
    t, phi = abs(g.lam.a), cmath.phase(g.lam.a)
    m_real = (g.p * theta + g.q * phi) / (2 * math.pi)
    m = round(m_real)
    if abs(m_real - m) > _ANGLE_TOL:
        raise ArithmeticError(
            f"relation angle is off an integer multiple of 2 pi by {abs(m_real - m):g}"
        )
    return {
        "s": s,
        "t": t,
        "theta": theta,
        "phi": phi,
        "m": m,
        "k": choose_k(m, g.p, g.d),
    }


def construct_extension(g: GlueInstance) -> Extension:
    """Build the satellite peripheral images for a classified instance.
    A Jordan case, mu = eps*[[1, a], [0, 1]] and lam = eta*[[1, b], [0, 1]],
    gives mu_P = eps*[[1, a/w], [0, 1]], its sign made 1 by the central
    twist in the jordan_minus case, and lam_P = eta^w*[[1, b w], [0, 1]].
    Nothing is checked here; verify_extension does that."""
    if g.case == "diagonal":
        polar = diagonal_polar_data(g)
        k = polar["k"]
        eta_root = polar["s"] ** (1 / g.w) * cmath.exp(1j * (polar["theta"] + 2 * math.pi * k) / g.w)
        mu_p = Mat2C.diagonal(eta_root, 1 / eta_root)
        lam_w = g.lam.a ** g.w
        lam_p = Mat2C.diagonal(lam_w, 1 / lam_w)
    elif g.case in ("jordan_plus", "jordan_minus"):
        # classify_case put mu.a and lam.a within DEFAULT_TOL of eps, eta = +-1;
        # jordan_minus has eps = -1 and even w, so eta^w is 1 already
        eps, eta = round(g.mu.a.real), round(g.lam.a.real)
        mu_p = Mat2C.upper(1 if g.case == "jordan_minus" else eps, g.mu.b / eps / g.w)
        lam_p = Mat2C.upper(eta ** g.w, g.lam.b / eta * g.w)
        polar = None
    else:
        raise ValueError(f"unknown case kind {g.case!r}")
    return Extension(mu_p, lam_p, polar)


def verify_extension(
    g: GlueInstance, e: Extension, tol: float = DEFAULT_TOL
) -> VerifyResult:
    """Compute the max-norm residuals of the three defining equations from
    the emitted matrices alone (binary-exponentiation powers) and compare
    each to tol; a residual that is not <= tol (NaN included) fails.  The
    instance's case sets the target of equation (1): -mu in the
    jordan_minus case (the central twist), mu otherwise.  This is the only
    check of a constructed extension."""
    mu_target = g.mu.scaled(-1) if g.case == "jordan_minus" else g.mu
    e1 = g.p * (g.w * g.w // g.d)
    e2 = g.q // g.d
    residuals = (
        (e.mu_p ** g.w).dist(mu_target),
        e.lam_p.dist(g.lam ** g.w),
        _entry_dist(_product(e.mu_p ** e1, e.lam_p ** e2), _IDENTITY),
    )
    for i, r in enumerate(residuals, start=1):
        if not r <= tol:
            return VerifyResult(residuals, i)
    return VerifyResult(residuals, None)


# ------- Randomized instance samplers -------


def sample_instance(kind: str, rng: Random) -> GlueInstance:
    """Draw a random valid instance of the given construction case; the
    draw is validated at DEFAULT_TOL, whatever tolerance later verifies it.

    Magnitudes and exponents are small (|p| <= 9, q <= 9, w <= 6), but that
    does not keep every residual below the default absolute tolerance:
    diagonal draws with |p| >= 8, q = 1 and w = 6 have lam^w entries of 1e6
    to 1e7, and the longitude equation (2) can then miss 1e-9 (9 of 120,000
    diagonal draws under Random(0) to Random(59); the 79th draw of
    `glue-verify --case diagonal --seed 184` is one).  No Jordan draw did.
    """
    if kind == "diagonal":
        return _sample_diagonal(rng)
    if kind in _JORDAN_W:
        return _sample_jordan(rng, _JORDAN_W[kind])
    raise ValueError(f"unknown case kind {kind!r}")


def _sample_slope(rng: Random) -> tuple[int, int]:
    while True:
        p = rng.randint(-9, 9)
        q = rng.randint(1, 9)
        if math.gcd(p, q) == 1:
            return p, q


def _sample_diagonal(rng: Random) -> GlueInstance:
    while True:
        p, q = _sample_slope(rng)
        w = rng.randint(1, 6)
        s = 1.0 if rng.random() < 0.25 else math.exp(rng.uniform(-0.3, 0.3))
        theta = rng.uniform(-math.pi, math.pi)
        alpha = cmath.rect(s, theta)
        if abs(alpha - 1) < 0.05 or abs(alpha + 1) < 0.05:
            continue
        j = rng.randrange(q)
        log_alpha = complex(math.log(s), theta)
        beta = cmath.exp((-p * log_alpha + 2j * math.pi * j) / q)
        mu = Mat2C.diagonal(alpha, 1 / alpha)
        lam = Mat2C.diagonal(beta, 1 / beta)
        return glue_instance(p, q, w, mu, lam)


def _valid_etas(eps: int, p: int, q: int) -> list[int]:
    # Solutions eta of eps^p * eta^q = 1 over {1, -1}.
    target = eps if p % 2 else 1
    return [eta for eta in (1, -1) if (eta if q % 2 else 1) == target]


def _sample_off_diagonal(rng: Random) -> complex:
    return cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))


# Jordan cases: each sign eps of mu, mapped to the winding numbers w drawn
# with it.  A case with a single sign never draws eps from the RNG.
_JORDAN_W = {
    "jordan_plus": {1: range(1, 7), -1: (1, 3, 5)},
    "jordan_minus": {-1: (2, 4, 6)},
}


def _sample_jordan(rng: Random, w_choices: dict) -> GlueInstance:
    signs = tuple(w_choices)
    while True:
        p, q = _sample_slope(rng)
        eps = rng.choice(signs) if len(signs) > 1 else signs[0]
        w = rng.choice(w_choices[eps])
        etas = _valid_etas(eps, p, q)
        if not etas:
            continue
        eta = rng.choice(etas)
        a_off = _sample_off_diagonal(rng)
        b_off = -a_off * p / q
        mu = Mat2C.upper(eps, a_off)
        lam = Mat2C.upper(eta, b_off)
        return glue_instance(p, q, w, mu, lam)
