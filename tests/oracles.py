"""Independent oracles used to freeze expected values.

Everything here is deliberately written against different representations
than the library uses: dense coefficient lists instead of sparse dicts,
schoolbook long division instead of leading-term elimination, brute-force
scans instead of closed forms.  Test modules import these to cross-check
library output; none of this code imports the package under test.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from math import gcd

# A dense polynomial is (offset, coeffs) representing
# sum(coeffs[i] * t**(offset + i)); coeffs[0] and coeffs[-1] nonzero.


def dense_trim(offset: int, coeffs: list[int]) -> tuple[int, list[int]]:
    lo = 0
    hi = len(coeffs)
    while lo < hi and coeffs[lo] == 0:
        lo += 1
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    if lo == hi:
        return 0, []
    return offset + lo, coeffs[lo:hi]


def dense_mul(a: tuple[int, list[int]], b: tuple[int, list[int]]) -> tuple[int, list[int]]:
    ao, ac = a
    bo, bc = b
    if not ac or not bc:
        return 0, []
    out = [0] * (len(ac) + len(bc) - 1)
    for i, x in enumerate(ac):
        for j, y in enumerate(bc):
            out[i + j] += x * y
    return dense_trim(ao + bo, out)


def dense_divmod(num: tuple[int, list[int]], den: tuple[int, list[int]]):
    """Schoolbook long division from the top; exact integer steps only."""
    do, dc = den
    if not dc:
        raise ZeroDivisionError("dense division by zero")
    no, nc = num
    rem = list(nc)
    rem_off = no
    lead = dc[-1]
    quot: dict[int, int] = {}
    while rem:
        ro, rc = dense_trim(rem_off, rem)
        if not rc:
            return quot, (0, [])
        top_exp = ro + len(rc) - 1
        den_top = do + len(dc) - 1
        if top_exp < den_top:
            return quot, (ro, rc)
        c = rc[-1]
        if c % lead:
            return quot, (ro, rc)
        factor = c // lead
        shift = top_exp - den_top
        quot[shift] = quot.get(shift, 0) + factor
        rem_off = ro
        rem = rc
        for i, d in enumerate(dc):
            rem[shift + (do + i) - rem_off] -= factor * d
    return quot, (0, [])


def tpow_minus_one(n: int) -> tuple[int, list[int]]:
    coeffs = [0] * (n + 1)
    coeffs[0] = -1
    coeffs[n] = 1
    return 0, coeffs


def torus_alexander_oracle(p: int, q: int) -> dict[int, int]:
    """Symmetric Alexander coefficients of the (p, q) torus knot by long
    division of (t^{pq}-1)(t-1) by (t^p-1)(t^q-1)."""
    p, q = abs(p), abs(q)
    if p < q:
        p, q = q, p
    num = dense_mul(tpow_minus_one(p * q), tpow_minus_one(1))
    den = dense_mul(tpow_minus_one(p), tpow_minus_one(q))
    quot, rem = dense_divmod(num, den)
    assert rem == (0, []), "division was not exact"
    genus = (p - 1) * (q - 1) // 2
    return {e - genus: c for e, c in quot.items() if c}


def coprime_pairs(p_max: int) -> list[tuple[int, int]]:
    """Every (p, q) with 2 <= q < p <= p_max and gcd(p, q) = 1, p ascending
    and then q: one torus knot T(p, q) per mirror pair."""
    return [(p, q) for p in range(3, p_max + 1) for q in range(2, p) if gcd(p, q) == 1]


def dilate_dict(coeffs: dict[int, int], w: int) -> dict[int, int]:
    return {e * w: c for e, c in coeffs.items()}


def mul_dicts(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def admissible_bool(coeffs: dict[int, int]) -> bool:
    """Flat restatement of the coefficient conditions, no witness logic."""
    if not coeffs:
        return False
    g = max(coeffs)
    if any(abs(c) > 1 for c in coeffs.values()):
        return False
    nonzero = [coeffs[e] for e in sorted(coeffs, reverse=True) if coeffs[e]]
    if any(x * y > 0 for x, y in zip(nonzero, nonzero[1:])):
        return False
    if g >= 1 and coeffs.get(g - 1, 0) * coeffs[g] >= 0:
        return False
    return True


def brute_k(m: int, p: int, d: int) -> int:
    for k in range(d):
        if (m + p * k) % d == 0:
            return k
    raise AssertionError(f"no k with d | m + p*k for m={m} p={p} d={d}")


def cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_is_valid(points, hull) -> bool:
    """Check hull is THE convex hull of points, CCW from the lex-least
    vertex: vertices drawn from points, strict turns, all points weakly
    inside.  Those conditions pin the vertex sequence uniquely."""
    pts = sorted(set(points))
    if not hull or set(hull) - set(pts):
        return False
    if hull[0] != min(hull):
        return False
    if len(hull) != len(set(hull)):
        return False
    n = len(hull)
    if n >= 3:
        for i in range(n):
            if cross(hull[i - 1], hull[i % n], hull[(i + 1) % n]) <= 0:
                return False
        for p in pts:
            for i in range(n):
                if cross(hull[i], hull[(i + 1) % n], p) < 0:
                    return False
    elif n == 2:
        a, b = hull
        dx, dy = b[0] - a[0], b[1] - a[1]
        for p in pts:
            if cross(a, b, p) != 0:
                return False
            t = (p[0] - a[0]) * dx + (p[1] - a[1]) * dy
            if t < 0 or t > dx * dx + dy * dy:
                return False
    else:
        if pts != list(hull):
            return False
    return True


def thinness_brute(points) -> tuple:
    """(kind, slope, infinite_slope) of a nonempty support, from cross
    products against its two extreme points in sorted order; no hull."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return "point", None, False
    first, last = pts[0], pts[-1]
    if any(cross(first, last, p) for p in pts):
        return "not_thin", None, False
    if first[0] == last[0]:
        return "not_thin", None, True
    return "thin", Fraction(last[1] - first[1], last[0] - first[0]), False


def omega(n: int) -> int:
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            count += 1
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        count += 1
    return count


def coprime_splits_brute(n: int) -> list[tuple[int, int]]:
    out = []
    for small in range(2, math.isqrt(n) + 1):
        if n % small == 0:
            big = n // small
            if big > small and gcd(small, big) == 1:
                out.append((small, big))
    return out


def is_prime_power_brute(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, n + 1):
        m = n
        while m % p == 0:
            m //= p
        if m == 1:
            return True
        if n % p == 0:
            return False
    return False


def diagonal_scalar_identity(p, q, w, d, s, t, theta, phi, m, k) -> complex:
    """Recompute the closure scalar from polar data alone: the product
    eta^{p w^2 / d} * (beta^w)^{q / d} that must come back to 1."""
    eta = s ** (1.0 / w) * cmath.exp(1j * (theta + 2 * math.pi * k) / w)
    lam_scalar = (t**w) * cmath.exp(1j * w * phi)
    return eta ** (p * w * w // d) * lam_scalar ** (q // d)


# 2x2 matrices for the glue references: any type with fields a, b, c, d
# that builds positionally as type(m)(a, b, c, d).  Each product and
# inverse is written out here, so the references share no arithmetic
# with the package's entry-level helpers.


def mat_identity(like):
    return type(like)(1, 0, 0, 1)


def mat_product(x, y):
    return type(x)(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def mat_inverse(m):
    det = m.a * m.d - m.b * m.c
    return type(m)(m.d / det, -m.b / det, -m.c / det, m.a / det)


def mat_dist(x, y) -> float:
    """Largest entry-wise distance |x - y|."""
    return max(abs(x.a - y.a), abs(x.b - y.b), abs(x.c - y.c), abs(x.d - y.d))


def binary_power_reference(m, n: int):
    """m ** n for a 2x2 matrix, from mat_product and mat_inverse only.

    Binary exponentiation from the low bit: start at the identity with
    int entries, multiply result * base when the bit is set, square base
    after every bit.  Built from whole-matrix products, so it checks a
    power that avoids building the intermediate matrices against the
    chain of products it must reproduce bit for bit.
    """
    if n < 0:
        return binary_power_reference(mat_inverse(m), -n)
    result = mat_identity(m)
    base = m
    while n:
        if n & 1:
            result = mat_product(result, base)
        base = mat_product(base, base)
        n >>= 1
    return result


def instance_residuals_reference(mu, lam, p: int, q: int) -> tuple[float, float]:
    """Commutation and relation residuals of a glue instance, from whole
    matrices: the distance from mu * lam to lam * mu and from
    mu^p * lam^q to the identity, with powers by binary_power_reference."""
    relation = mat_product(binary_power_reference(mu, p), binary_power_reference(lam, q))
    return (
        mat_dist(mat_product(mu, lam), mat_product(lam, mu)),
        mat_dist(relation, mat_identity(mu)),
    )


def extension_residuals_reference(g, e) -> tuple[float, float, float]:
    """The three residuals of an extension e of instance g, from whole
    matrices: (1) mu_P^w against mu (times -1 in the jordan_minus case, the
    central twist), (2) lam_P against lam^w, (3) mu_P^(p w^2 / d) *
    lam_P^(q / d) against the identity; powers by binary_power_reference."""
    mu = g.mu
    if g.case == "jordan_minus":
        mu = type(mu)(-1 * mu.a, -1 * mu.b, -1 * mu.c, -1 * mu.d)
    e1 = g.p * (g.w * g.w // g.d)
    e2 = g.q // g.d
    relation = mat_product(
        binary_power_reference(e.mu_p, e1), binary_power_reference(e.lam_p, e2)
    )
    return (
        mat_dist(binary_power_reference(e.mu_p, g.w), mu),
        mat_dist(e.lam_p, binary_power_reference(g.lam, g.w)),
        mat_dist(relation, mat_identity(e.mu_p)),
    )


_Mat = namedtuple("_Mat", "a b c d")


def _power_coefficients(theta: float, e: int) -> tuple[float, float]:
    """(s, t) with A^e = s*A + t*I for every A in SL(2,C) with eigenvalues
    e^(+-i*theta), theta not a multiple of pi (Cayley-Hamilton)."""
    return math.sin(e * theta) / math.sin(theta), -math.sin((e - 1) * theta) / math.sin(theta)


def irreducible_reps(a: int, b: int, angles):
    """Irreducible SL(2,C) representations of the torus knot group of
    T(a, b), a, b >= 2 coprime, sampled by the eigenvalues e^(+-i*phi) of
    the meridian: yields (eps, X, mu) for each phi in angles(eps).

    The group is <x, y | x^a = y^b>, with meridian mu = x^u y^v where
    b*u + a*v = 1, and longitude lam = x^a mu^(-ab).  An irreducible rep
    sends the central x^a to eps*I, eps = +-1: X and Y have eigenvalues
    e^(+-i*pi*k/a) and e^(+-i*pi*l/b), 0 < k < a, 0 < l < b, with
    (-1)^k = (-1)^l = eps.  With X^u = alpha*X + beta*I and
    Y^v = gamma*Y + delta*I, tr mu is alpha*gamma*tr(XY) + const, and
    alpha*gamma != 0 because u and v are units mod a and mod b, so each
    phi (not a multiple of pi) fixes tr XY.  Solutions with tr[X, Y] = 2
    are reducible and skipped; the others are built as explicit matrices
    and yielded when X^a = Y^b = eps*I holds within 1e-6.
    """
    u = pow(b, -1, a)
    v = (1 - b * u) // a
    for k in range(1, a):
        eps = -1 if k % 2 else 1
        mu_traces = [2 * math.cos(phi) for phi in angles(eps) if abs(math.sin(phi)) > 1e-9]
        for l in range(k % 2 or 2, b, 2):
            theta, psi = math.pi * k / a, math.pi * l / b
            x, y = 2 * math.cos(theta), 2 * math.cos(psi)
            alpha, beta = _power_coefficients(theta, u)
            gamma, delta = _power_coefficients(psi, v)
            const = alpha * delta * x + beta * gamma * y + 2 * beta * delta
            for t in mu_traces:
                z = (t - const) / (alpha * gamma)
                if abs(x * x + y * y + z * z - x * y * z - 4) < 1e-9:
                    continue
                xi = cmath.exp(1j * theta)
                y11 = (z - y / xi) / (xi - 1 / xi)
                y22 = y - y11
                big_x = _Mat(xi, 0, 0, 1 / xi)
                big_y = _Mat(y11, 1, y11 * y22 - 1, y22)
                residual = max(
                    mat_dist(binary_power_reference(big_x, a), _Mat(eps, 0, 0, eps)),
                    mat_dist(binary_power_reference(big_y, b), _Mat(eps, 0, 0, eps)),
                )
                if residual < 1e-6:
                    mu = mat_product(
                        binary_power_reference(big_x, u), binary_power_reference(big_y, v)
                    )
                    yield eps, big_x, mu


def nonabelian_surgery_rep(a: int, b: int, p: int, q: int) -> bool:
    """Whether p/q surgery on the torus knot T(a, b), a, b >= 2 coprime, has
    an irreducible (so non-abelian) SL(2,C) representation.

    In a rep of irreducible_reps, the surgery relation mu^p lam^q = I
    becomes mu^n = eps^q I with n = p - q*ab.  Since mu normally generates,
    it is not +-I, so it has an eigenvalue zeta = e^(i*phi) != +-1 with
    zeta^n = eps^q; for n = 0 only eps^q = 1 is needed, and any generic phi
    will do.  A rep is accepted when mu^n = eps^q I holds within 1e-6.
    """
    n = p - q * a * b

    def angles(eps):
        target = eps**q
        if n == 0:
            return [1.0] if target == 1 else []
        # n*phi = 0 (eps^q = 1) or pi (eps^q = -1), mod 2*pi
        return [(2 * j + (target < 0)) * math.pi / n for j in range(abs(n))]

    for eps, _, mu in irreducible_reps(a, b, angles):
        target = eps**q
        if mat_dist(binary_power_reference(mu, n), _Mat(target, 0, 0, target)) < 1e-6:
            return True
    return False


def _eigenvector(m, value) -> tuple[complex, complex]:
    """An eigenvector of the 2x2 matrix m for its eigenvalue value: the
    larger of the two kernel vectors its rows give."""
    return max((m.b, value - m.a), (value - m.d, m.c), key=lambda v: abs(v[0]) + abs(v[1]))


def torus_apoly_oracle(a: int, b: int) -> tuple[dict[tuple[int, int], int], float]:
    """The enhanced A-polynomial of T(a, b), |a| > b >= 2 coprime, derived
    from irreducible_reps, with the largest relative commutator
    |mu*lam - lam*mu| / (|mu| |lam|) met (max-entry norms).

    On a common eigenvector of mu and lam = x^a mu^(-ab) = eps*mu^(-ab),
    their eigenvalues M, L satisfy L*M^(ab) = eps.  Each eps is read from
    the computed L*M^(ab) at one generic phi per (k, l), and the
    polynomial is the product over the eps met of 1 - eps*L*M^(ab), as
    {(l_exp, m_exp): c}.  The mirror T(-a, b) reverses the longitude, so
    L -> 1/L, and its factors are L - eps*M^(ab) once the L-powers are
    cleared.
    """
    ab = abs(a) * b
    signs = set()
    worst = 0.0
    for _, big_x, mu in irreducible_reps(abs(a), b, lambda eps: [1.0]):
        lam = mat_product(binary_power_reference(big_x, abs(a)), binary_power_reference(mu, -ab))
        if a < 0:
            lam = mat_inverse(lam)
        size = max(map(abs, mu)) * max(map(abs, lam))
        worst = max(worst, mat_dist(mat_product(mu, lam), mat_product(lam, mu)) / size)
        tr = mu.a + mu.d
        m = (tr + cmath.sqrt(tr * tr - 4)) / 2
        vec = _eigenvector(mu, m)
        lam_vec = (lam.a * vec[0] + lam.b * vec[1], lam.c * vec[0] + lam.d * vec[1])
        l = (lam_vec[0] * vec[0].conjugate() + lam_vec[1] * vec[1].conjugate()) / (
            abs(vec[0]) ** 2 + abs(vec[1]) ** 2
        )
        value = (l if a > 0 else 1 / l) * m**ab
        eps = 1 if value.real > 0 else -1
        if abs(value - eps) > 1e-6:
            raise ArithmeticError(f"L*M^{ab} = {value} is not +-1 for T({a},{b})")
        signs.add(eps)
    poly = {(0, 0): 1}
    for eps in sorted(signs):
        factor = {(0, 0): 1, (1, ab): -eps} if a > 0 else {(1, 0): 1, (0, ab): -eps}
        product: dict[tuple[int, int], int] = {}
        for (l1, m1), c1 in poly.items():
            for (l2, m2), c2 in factor.items():
                key = (l1 + l2, m1 + m2)
                product[key] = product.get(key, 0) + c1 * c2
        poly = {key: c for key, c in product.items() if c}
    return poly, worst


def figure_eight_reps(meridians):
    """Non-abelian SL(2,C) representations of the figure-eight knot group
    <x, y | w x = y w>, w = x^-1 y x y^-1, in Riley's normal form (Riley,
    "Nonabelian representations of 2-bridge knot groups", Quart. J. Math. 35,
    1984): rho(x) = [[M, 1], [0, 1/M]] and rho(y) = [[M, 0], [u, 1/M]].
    Yields (M, L, residual) for each M in meridians and both roots u.

    The relation holds exactly when u is a root of the Riley polynomial
    u^2 + (M^2 + M^-2 - 3)u + 3 - M^2 - M^-2, solved here by the quadratic
    formula.  The longitude w~ w, with w~ = y^-1 x y x^-1 the word w
    reversed, commutes with x, so rho(w~ w) is upper triangular and its
    (1, 1) entry L is the longitude's eigenvalue on the eigenvector where
    the meridian's is M.  residual is the larger of the relation's
    |rho(w x) - rho(y w)| / (|rho(w)| |rho(x)|) and rho(w~ w)'s lower-left
    entry over its largest one (max-entry norms): both 0 in exact arithmetic.
    """
    for m in meridians:
        s = m * m + 1 / (m * m)
        root = cmath.sqrt((s - 3) ** 2 - 4 * (3 - s))
        for u in ((3 - s + root) / 2, (3 - s - root) / 2):
            x, y = _Mat(m, 1, 0, 1 / m), _Mat(m, 0, u, 1 / m)
            x_inv, y_inv = mat_inverse(x), mat_inverse(y)
            w = mat_product(mat_product(mat_product(x_inv, y), x), y_inv)
            w_rev = mat_product(mat_product(mat_product(y_inv, x), y), x_inv)
            lon = mat_product(w_rev, w)
            relation = mat_dist(mat_product(w, x), mat_product(y, w))
            residual = max(
                relation / (max(map(abs, w)) * max(map(abs, x))),
                abs(lon.c) / max(map(abs, lon)),
            )
            yield m, lon.a, residual


def relative_value(terms: dict[tuple[int, int], int], l: complex, m: complex) -> float:
    """|A(L, M)| over the sum of its terms' sizes |c| |L|^i |M|^j, for A
    given as {(i, j): c}, the L-exponent first: 0 on the curve A = 0."""
    value = sum(c * l**i * m**j for (i, j), c in terms.items())
    return abs(value) / sum(abs(c) * abs(l) ** i * abs(m) ** j for (i, j), c in terms.items())


def _selftest() -> None:
    assert torus_alexander_oracle(3, 2) == {1: 1, 0: -1, -1: 1}
    assert torus_alexander_oracle(5, 2) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    sq = mul_dicts(torus_alexander_oracle(3, 2), torus_alexander_oracle(3, 2))
    assert sq == {2: 1, 1: -2, 0: 3, -1: -2, -2: 1}
    assert not admissible_bool(sq)
    assert admissible_bool(torus_alexander_oracle(4, 3))
    assert brute_k(1, 3, 4) == 1
    assert brute_k(2, 5, 3) == 2
    assert coprime_pairs(5) == [(3, 2), (4, 3), (5, 2), (5, 3), (5, 4)]
    assert coprime_splits_brute(105) == [(3, 35), (5, 21), (7, 15)]
    assert coprime_splits_brute(75) == [(3, 25)]
    assert hull_is_valid([(0, 0), (2, 210)], [(0, 0), (2, 210)])
    assert hull_is_valid([(0, 0), (1, 0), (1, 6), (2, 6)], [(0, 0), (1, 0), (2, 6), (1, 6)])
    assert thinness_brute([(0, 0), (1, 2), (2, 4)]) == ("thin", Fraction(2), False)
    assert thinness_brute([(1, 0), (1, 4), (1, 9)]) == ("not_thin", None, True)
    assert thinness_brute([(0, 0), (1, 0), (1, 6)]) == ("not_thin", None, False)
    m = _Mat(2, 1, 1, 1)
    assert mat_identity(m) == _Mat(1, 0, 0, 1)
    assert mat_product(_Mat(1, 2, 3, 4), _Mat(5, 6, 7, 8)) == _Mat(19, 22, 43, 50)
    assert mat_inverse(m) == _Mat(1, -1, -1, 2)
    assert mat_product(m, mat_inverse(m)) == mat_identity(m)
    assert mat_dist(m, _Mat(2, 1, 1.5, 1 - 2j)) == 2
    assert binary_power_reference(m, 3) == _Mat(13, 8, 8, 5)
    assert binary_power_reference(m, -2) == _Mat(2, -3, -3, 5)
    # trefoil: 5/1 and 7/1 are lens spaces, 6/1 is L(3, 2) # RP^3, 4/1 and 8/1 are neither
    assert [nonabelian_surgery_rep(3, 2, p, 1) for p in (4, 5, 6, 7, 8)] == [
        True, False, False, False, True
    ]
    assert torus_apoly_oracle(3, 2)[0] == {(0, 0): 1, (1, 6): 1}
    assert torus_apoly_oracle(-5, 3)[0] == {(2, 0): 1, (0, 30): -1}
    # at M = 1 (the complete hyperbolic structure) the longitude is -1
    for _, l, residual in figure_eight_reps([1]):
        assert residual < 1e-12 and abs(l + 1) < 1e-12
    assert relative_value({(2, 0): 1, (0, 1): -4}, 2, 1) == 0
    print("oracle selftest passed")


if __name__ == "__main__":
    _selftest()
    for p, q in [(3, 2), (5, 2), (7, 2), (4, 3), (5, 3), (5, 4), (7, 3)]:
        d = torus_alexander_oracle(p, q)
        print(f"T({p},{q}):", {e: d[e] for e in sorted(d, reverse=True)})
