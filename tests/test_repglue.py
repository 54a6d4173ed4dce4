"""Peripheral representation extension: case classification, the three
construction cases, residual verification, and seeded samplers."""

import cmath
import math
from random import Random

import pytest

from knotpoly import repglue
from knotpoly.repglue import (
    CASE_KINDS,
    DEFAULT_TOL,
    Extension,
    GlueInstance,
    Mat2C,
    choose_k,
    classify_case,
    construct_extension,
    diagonal_polar_data,
    glue_instance,
    sample_instance,
    verify_extension,
)

import oracles


IDENTITY = Mat2C(1, 0, 0, 1)


def replace(value, **changes):
    """A value type rebuilt from its fields, with some of them changed."""
    assert changes.keys() <= set(value.__slots__), changes
    return type(value)(*[changes.get(name, getattr(value, name)) for name in value.__slots__])


def diag(x, y):
    return Mat2C.diagonal(x, y)


class TestMat2C:
    def test_mul_identity(self):
        m = Mat2C(1, 2, 3, 4)
        assert repglue._product(m, IDENTITY) == (1, 2, 3, 4)
        assert repglue._product(IDENTITY, m) == (1, 2, 3, 4)

    def test_no_whole_matrix_algebra(self):
        # products, inverses and the identity a check needs are entries;
        # the whole-matrix versions live in tests/oracles.py
        for name in ("__mul__", "inverse", "identity"):
            assert not hasattr(Mat2C, name), name
        assert not hasattr(repglue.VerifyResult((0.0, 0.0, 0.0), None), "residual")

    def test_pow(self):
        m = Mat2C(1, 1, 0, 1)
        assert (m ** 5).b == 5
        assert (m ** 0) == IDENTITY
        assert (m ** -3).b == -3

    def test_inverse(self):
        m = Mat2C(2, 1, 1, 1)
        assert oracles.mat_product(m, m ** -1).dist(IDENTITY) < 1e-15

    def test_pow_matches_repeated_mul(self):
        m = Mat2C(0.8 + 0.1j, 0.2, 0.05, 1.1)
        acc = IDENTITY
        for _ in range(7):
            acc = oracles.mat_product(acc, m)
        assert (m ** 7).dist(acc) < 1e-12

    @pytest.mark.parametrize("shape", ["general", "diagonal", "jordan", "real"])
    def test_pow_bit_identical_to_reference(self, shape):
        # Every entry is compared by repr, so -0.0, inf and nan must match
        # too; large general draws overflow on purpose.
        rng = Random(shape)

        def rand_complex(spread):
            return cmath.rect(math.exp(rng.uniform(-spread, spread)), rng.uniform(-math.pi, math.pi))

        def draw():
            if shape == "general":
                spread = rng.choice((1.0, 20.0))
                return Mat2C(*(rand_complex(spread) for _ in range(4)))
            if shape == "diagonal":
                x = rand_complex(3.0)
                return Mat2C(x, 0, 0, 1 / x)
            if shape == "jordan":
                eps = rng.choice((1, -1))
                return Mat2C(eps, rand_complex(3.0), 0, eps)
            return Mat2C(*(rng.choice((rng.randint(-3, 3), rng.uniform(-2, 2), -0.0)) for _ in range(4)))

        compared = 0
        for _ in range(60):
            m = draw()
            for n in range(-40, 41):
                try:
                    expected = oracles.binary_power_reference(m, n)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        m ** n
                    continue
                got = m ** n
                assert type(got) is Mat2C
                assert [repr(getattr(got, e)) for e in "abcd"] == [
                    repr(getattr(expected, e)) for e in "abcd"
                ], (m, n)
                compared += 1
        # at least half of the 60 * 81 draws are invertible where needed
        assert compared >= 2430

    def test_pow_squares_once_per_bit_below_the_top(self):
        # a product per set bit and a square per bit below the top one, 8
        # scalar products each: n = 1 squares nothing and n = 2**k squares k
        # times, so a square after the top bit, which no entry reads, fails
        products = []

        class Counted:
            def __init__(self, value):
                self.value = value

            def __mul__(self, other):
                products.append(None)
                return Counted(self.value * getattr(other, "value", other))

            def __add__(self, other):
                return Counted(self.value + getattr(other, "value", other))

            __rmul__, __radd__ = __mul__, __add__

        m = Mat2C(*map(Counted, (1, 1, 0, 1)))
        for n in range(1, 70):
            products.clear()
            assert (m ** n).b.value == n
            assert len(products) == 8 * (bin(n).count("1") + n.bit_length() - 1), n
        for k in range(8):
            products.clear()
            m ** 2**k
            assert len(products) == 8 * (1 + k), k

    def test_det_and_dist(self):
        assert Mat2C(2, 0, 0, 0.5).det() == 1
        assert Mat2C(1, 2, 3, 4).det() == -2
        assert diag(1, 1).dist(diag(1, 1 + 3e-4)) == pytest.approx(3e-4)

    @pytest.mark.parametrize("entry", "abcd")
    def test_dist_is_nan_when_any_entry_is(self, entry):
        # a plain max would keep a finite distance over a later NaN
        bad = replace(IDENTITY, **{entry: math.nan})
        assert math.isnan(bad.dist(IDENTITY))
        assert math.isnan(IDENTITY.dist(bad))
        assert math.isnan(repglue._entry_dist((bad.a, bad.b, bad.c, bad.d), (1, 0, 0, 1)))

    def test_upper(self):
        m = Mat2C.upper(-1, 2)
        assert (m.a, m.b, m.c, m.d) == (-1, -2, 0, -1)


def classified_extension(mu, lam, w):
    """The case of (mu, lam) and the extension built for it; the slope
    takes no part in these constructions, so the instance is built directly."""
    case = classify_case(mu, lam, w)
    return case, construct_extension(GlueInstance(1, 1, w, 1, mu, lam, case))


class TestClassifyCase:
    def test_diagonal(self):
        case, e = classified_extension(diag(2, 0.5), diag(0.125, 8), w=3)
        # the eigenvalues alpha = 2 and beta = 0.125, read from mu and lam
        assert case == "diagonal"
        assert e.mu_p.a == 2 ** (1 / 3) and e.lam_p.a == 0.125 ** 3

    def test_jordan_plus_eps_positive(self):
        case, e = classified_extension(Mat2C(1, 2, 0, 1), Mat2C(1, -2, 0, 1), w=4)
        # eps = 1 and a_off = 2; eta = 1 and b_off = -2
        assert case == "jordan_plus"
        assert e.mu_p == Mat2C.upper(1, 2 / 4) and e.lam_p == Mat2C.upper(1, -2 * 4)

    def test_jordan_plus_eps_negative_odd_w(self):
        case, e = classified_extension(Mat2C(-1, -1, 0, -1), Mat2C(1, 1, 0, 1), w=3)
        # eps = -1 and a_off = 1; eta = 1 and b_off = 1
        assert case == "jordan_plus"
        assert e.mu_p == Mat2C.upper(-1, 1 / 3) and e.lam_p == Mat2C.upper(1, 1 * 3)

    def test_jordan_minus_eps_negative_even_w(self):
        case, e = classified_extension(Mat2C(-1, 4, 0, -1), Mat2C(-1, -4, 0, -1), w=2)
        # eps = -1 and a_off = -4, mu_p's sign twisted to 1; eta = -1 and b_off = 4
        assert case == "jordan_minus"
        assert e.mu_p == Mat2C.upper(1, -4 / 2) and e.lam_p == Mat2C.upper((-1) ** 2, 4 * 2)

    def test_rejects_non_unit_determinant(self):
        with pytest.raises(ValueError):
            classify_case(diag(2, 2), diag(1, 1), w=1)

    def test_rejects_lower_triangular(self):
        # both have determinant 1, so the shape is what is refused
        for mu in (Mat2C(2, 0, 1, 0.5), Mat2C(2, 1, 1, 1)):
            with pytest.raises(ValueError, match=r"^mu must be in \(upper triangular\) Jordan"):
                classify_case(mu, diag(1, 1), w=1)

    def test_rejects_identity_up_to_sign(self):
        with pytest.raises(ValueError):
            classify_case(diag(1, 1), diag(1, 1), w=1)
        with pytest.raises(ValueError):
            classify_case(diag(-1, -1), diag(1, 1), w=1)

    def test_rejects_diagonal_mu_with_jordan_lam(self):
        with pytest.raises(ValueError):
            classify_case(diag(2, 0.5), Mat2C(1, 1, 0, 1), w=1)

    def test_rejects_mismatched_jordan_diagonal(self):
        with pytest.raises(ValueError):
            classify_case(Mat2C(1, 1, 0, 1.5), diag(1, 1), w=1)
        # determinant 1, but the diagonal is away from +-1, or each entry is
        # within DEFAULT_TOL of 1 and the two are not within it of each other
        with pytest.raises(ValueError, match=r"^a Jordan block in SL\(2,C\) must have eigenvalue \+-1$"):
            classify_case(Mat2C(2, 1, 0, 0.5), diag(1, 1), w=1)
        with pytest.raises(ValueError, match="^mu must be in Jordan normal form$"):
            classify_case(Mat2C(1 + 9e-10, 1, 0, 1 - 9e-10), diag(1, 1), w=1)

    def test_rejects_bad_lam_eigenvalue(self):
        with pytest.raises(ValueError):
            classify_case(Mat2C(1, 1, 0, 1), diag(2, 0.5), w=1)
        # Jordan-shaped with determinant 1, but with eigenvalue sqrt(2)
        r2 = math.sqrt(2)
        with pytest.raises(ValueError, match="^lam must have eigenvalue [+]-1 when mu is a Jordan block$"):
            classify_case(Mat2C.upper(1, 0.5), Mat2C(r2, 1e10, 1e-10, r2), w=1)


class TestGlueInstance:
    def test_valid(self):
        g = glue_instance(3, 1, 2, diag(2, 0.5), diag(0.125, 8))
        assert (g.p, g.q, g.w, g.d) == (3, 1, 2, 1)

    def test_d_formula(self):
        beta = 2 ** (-1 / 8)
        g = glue_instance(1, 8, 6, diag(2, 0.5), diag(beta, 1 / beta))
        assert g.d == math.gcd(8, 36) == 4

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            glue_instance(3, 0, 1, diag(2, 0.5), diag(0.125, 8))
        with pytest.raises(ValueError):
            glue_instance(3, -1, 1, diag(2, 0.5), diag(0.125, 8))

    def test_rejects_non_reduced_slope(self):
        with pytest.raises(ValueError):
            glue_instance(2, 4, 1, diag(2, 0.5), diag(2 ** -0.5, 2 ** 0.5))

    def test_rejects_bad_winding(self):
        with pytest.raises(ValueError):
            glue_instance(3, 1, 0, diag(2, 0.5), diag(0.125, 8))

    @pytest.mark.parametrize("p, q, message", [
        (1.0, 1, "slope numerator must be an integer, got 1.0"),
        (True, 1, "slope numerator must be an integer, got True"),
        ("1", 1, "slope numerator must be an integer, got '1'"),
        (1, 1.0, "slope denominator must be an integer, got 1.0"),
        (1, True, "slope denominator must be an integer, got True"),
        (1, None, "slope denominator must be an integer, got None"),
    ], ids=["float-p", "bool-p", "str-p", "float-q", "bool-q", "none-q"])
    def test_rejects_slope_that_is_not_an_int(self, p, q, message):
        # the slope 1/1 makes this pair a valid instance
        assert glue_instance(1, 1, 1, diag(2, 0.5), diag(0.5, 2)).case == "diagonal"
        with pytest.raises(ValueError) as err:
            glue_instance(p, q, 1, diag(2, 0.5), diag(0.5, 2))
        assert str(err.value) == message

    def test_rejects_broken_relation(self):
        with pytest.raises(ValueError):
            glue_instance(3, 1, 2, diag(2, 0.5), diag(0.25, 4))

    @pytest.mark.parametrize("entry", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("matrix", ["mu", "lam"])
    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_rejects_nan_entry(self, kind, matrix, entry):
        # a NaN entry makes the determinant NaN, which classify_case's
        # "not x <= tol" rejects
        g = sample_instance(kind, Random(1))
        pair = {"mu": g.mu, "lam": g.lam}
        pair[matrix] = replace(pair[matrix], **{entry: math.nan})
        with pytest.raises(ValueError):
            glue_instance(g.p, g.q, g.w, pair["mu"], pair["lam"])

    def test_rejects_commutator_that_overflows(self):
        # mu lam and lam mu are both inf in entry b, so their difference
        # there is NaN while the other three entries agree
        big = Mat2C.upper(1, 1e308)
        assert classify_case(big, big, w=1) == "jordan_plus"
        with pytest.raises(ValueError, match="must commute"):
            glue_instance(-1, 1, 1, big, big)

    def test_commutation_enforced(self):
        # the pair classifies as diagonal (lam.b is within DEFAULT_TOL), but
        # mu * lam and lam * mu differ by (10 - 0.1) * 9e-10 in the corner
        classify_case(diag(10, 0.1), Mat2C(2, 9e-10, 0, 0.5), w=1)
        with pytest.raises(ValueError, match="must commute"):
            glue_instance(1, 1, 1, diag(10, 0.1), Mat2C(2, 9e-10, 0, 0.5))


class TestChooseK:
    def test_goldens(self):
        assert choose_k(1, 3, 4) == 1
        assert choose_k(2, 5, 3) == 2
        assert choose_k(0, 7, 5) == 0
        assert choose_k(5, 1, 1) == 0
        # d = 1: pow(p, -1, 1) is 0, so every residue class is k = 0
        assert choose_k(4, 0, 1) == 0

    def test_matches_brute_oracle(self):
        for d in range(1, 40):
            for p in range(-9, 10):
                if math.gcd(p, d) != 1:
                    continue
                for m in range(-30, 31):
                    assert choose_k(m, p, d) == oracles.brute_k(m, p, d), (m, p, d)

    def test_rejects_non_invertible(self):
        with pytest.raises(ValueError):
            choose_k(1, 2, 4)
        with pytest.raises(ValueError):
            choose_k(1, 3, 0)


class TestWorkedExamples:
    def test_diagonal_case(self):
        g = glue_instance(3, 1, 2, diag(2, 0.5), diag(0.125, 8))
        data = diagonal_polar_data(g)
        assert data["s"] == 2 and data["t"] == 0.125
        assert data["theta"] == 0 and data["phi"] == 0
        assert data["m"] == 0 and data["k"] == 0
        e = construct_extension(g)
        root2 = math.sqrt(2)
        assert e.mu_p.dist(diag(root2, 1 / root2)) < 1e-15
        assert e.lam_p.dist(diag(1 / 64, 64)) < 1e-15
        assert e.polar == data
        assert max(verify_extension(g, e).residuals) < 1e-12
        assert oracles.mat_product(e.mu_p ** 12, e.lam_p).dist(IDENTITY) < 1e-12

    def test_jordan_plus_case(self):
        mu = Mat2C.upper(1, 2)
        lam = Mat2C.upper(-1, -1)
        g = glue_instance(1, 2, 2, mu, lam)
        assert g.d == 2
        e = construct_extension(g)
        assert e.mu_p.dist(Mat2C(1, 1, 0, 1)) < 1e-15
        assert e.lam_p.dist(Mat2C(1, -2, 0, 1)) < 1e-15
        assert g.case == "jordan_plus" and e.polar is None
        assert oracles.mat_product(e.mu_p ** 2, e.lam_p).dist(IDENTITY) < 1e-15

    def test_jordan_minus_case(self):
        mu = Mat2C.upper(-1, 2)
        lam = Mat2C.upper(-1, -2)
        g = glue_instance(1, 1, 2, mu, lam)
        assert g.d == 1
        e = construct_extension(g)
        assert g.case == "jordan_minus" and e.polar is None
        assert e.mu_p.dist(Mat2C(1, 1, 0, 1)) < 1e-15
        assert e.lam_p.dist(Mat2C(1, -4, 0, 1)) < 1e-15
        assert oracles.mat_product(e.mu_p ** 4, e.lam_p).dist(IDENTITY) < 1e-15
        # the root equation only closes after the central sign twist
        assert (e.mu_p ** 2).dist(mu.scaled(-1)) < 1e-15

    def test_polar_data_requires_diagonal(self):
        g = glue_instance(1, 1, 2, Mat2C.upper(-1, 2), Mat2C.upper(-1, -2))
        with pytest.raises(ValueError):
            diagonal_polar_data(g)

    def test_angle_drift_is_hard_error(self):
        alpha = 2
        beta = 0.5 * cmath.exp(1e-4j)
        # the relation mu * lam = 1 is off by about 1e-4, past what
        # glue_instance accepts, so the instance is built directly
        g = GlueInstance(1, 1, 1, 1, diag(alpha, 1 / alpha), diag(beta, 1 / beta), "diagonal")
        with pytest.raises(ArithmeticError):
            diagonal_polar_data(g)


class TestRandomizedSweep:
    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_construct_verify_ok(self, kind):
        rng = Random(101)
        for _ in range(60):
            g = sample_instance(kind, rng)
            e = construct_extension(g)
            res = verify_extension(g, e)
            assert res.ok and max(res.residuals) < 1e-9
            commutator = oracles.mat_product(e.mu_p, e.lam_p).dist(
                oracles.mat_product(e.lam_p, e.mu_p)
            )
            assert commutator < 1e-12

    def test_case_shape_invariants(self):
        rng = Random(77)
        for _ in range(40):
            g = sample_instance("jordan_minus", rng)
            assert g.case == "jordan_minus" and g.mu.a == -1 and g.w % 2 == 0
            e = construct_extension(g)
            # the central twist gives mu_p the sign 1
            assert e.mu_p.a == 1 and e.polar is None
        for _ in range(40):
            g = sample_instance("jordan_plus", rng)
            assert g.case == "jordan_plus" and (g.mu.a == 1 or g.w % 2 == 1)
            e = construct_extension(g)
            assert e.mu_p.a == g.mu.a and e.polar is None
        for _ in range(40):
            g = sample_instance("diagonal", rng)
            e = construct_extension(g)
            assert 0 <= e.polar["k"] < g.d

    def test_rejects_unknown_case_kind(self):
        with pytest.raises(ValueError, match="^unknown case kind 'bogus'$"):
            sample_instance("bogus", Random(0))
        g = replace(sample_instance("diagonal", Random(0)), case="bogus")
        with pytest.raises(ValueError, match="^unknown case kind 'bogus'$"):
            construct_extension(g)

    def test_sampler_determinism(self):
        a = [sample_instance("diagonal", Random(5)) for _ in range(1)][0]
        b = [sample_instance("diagonal", Random(5)) for _ in range(1)][0]
        assert a == b

    def test_jordan_plus_sign_identity_exact(self):
        # scalar part of the surgery relation, done in pure integer parity
        rng = Random(13)
        d_parities = set()
        for _ in range(120):
            g = sample_instance("jordan_plus", rng)
            eps, eta = g.mu.a, g.lam.a
            assert eps in (1, -1) and eta in (1, -1)
            e1 = g.p * (g.w * g.w // g.d)
            e2 = g.w * (g.q // g.d)
            sign = (eps ** abs(e1)) * (eta ** abs(e2))
            assert sign == 1, (g.p, g.q, g.w, g.d, eps, eta)
            d_parities.add(g.d % 2)
        assert d_parities == {0, 1}

    def test_diagonal_scalar_identity(self):
        rng = Random(29)
        for _ in range(80):
            g = sample_instance("diagonal", rng)
            data = diagonal_polar_data(g)
            z = oracles.diagonal_scalar_identity(
                g.p, g.q, g.w, g.d,
                data["s"], data["t"], data["theta"], data["phi"],
                data["m"], data["k"],
            )
            assert abs(z - 1) < 1e-9


class TestPerturbation:
    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_every_entry_perturbation_caught(self, kind):
        rng = Random(4242)
        for _ in range(25):
            g = sample_instance(kind, rng)
            e = construct_extension(g)
            for target in ("mu_p", "lam_p"):
                for entry in "abcd":
                    mat = getattr(e, target)
                    bumped = replace(mat, **{entry: getattr(mat, entry) + 1e-3})
                    mutated = Extension(
                        bumped if target == "mu_p" else e.mu_p,
                        bumped if target == "lam_p" else e.lam_p,
                        None,
                    )
                    res = verify_extension(g, mutated)
                    assert not res.ok, (kind, target, entry)
                    assert res.failed_equation in (1, 2, 3)

    def test_lam_perturbation_breaks_surgery_relation(self):
        g = glue_instance(3, 1, 2, diag(2, 0.5), diag(0.125, 8))
        e = construct_extension(g)
        bumped = replace(e.lam_p, d=e.lam_p.d + 1e-3)
        mutated = Extension(e.mu_p, bumped, None)
        res = verify_extension(g, mutated)
        assert not res.ok
        # both the longitude equation and the surgery relation go bad
        assert res.residuals[1] > DEFAULT_TOL
        assert res.residuals[2] > DEFAULT_TOL

    def test_tolerance_is_respected(self):
        g = glue_instance(3, 1, 2, diag(2, 0.5), diag(0.125, 8))
        e = construct_extension(g)
        bumped = replace(e.lam_p, d=e.lam_p.d + 1e-3)
        mutated = Extension(e.mu_p, bumped, None)
        assert verify_extension(g, mutated, tol=1.0).ok

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_residual_fails(self, bad):
        g = glue_instance(3, 1, 2, diag(2, 0.5), diag(0.125, 8))
        e = construct_extension(g)
        mutated = Extension(replace(e.mu_p, a=bad), e.lam_p, None)
        res = verify_extension(g, mutated)
        assert res.ok is False
        assert res.failed_equation == 1

    @pytest.mark.parametrize("entry", "abcd")
    def test_nan_in_any_entry_fails_the_first_equation(self, entry):
        # with w = 1, mu_p ** w keeps entry a finite unless the NaN is there
        g = glue_instance(3, 1, 1, diag(2, 0.5), diag(0.125, 8))
        e = construct_extension(g)
        mutated = Extension(replace(e.mu_p, **{entry: math.nan}), e.lam_p, None)
        res = verify_extension(g, mutated)
        assert res.ok is False
        assert res.failed_equation == 1
        assert math.isnan(res.residuals[0])

    def test_jordan_minus_target_is_set_by_the_case(self):
        # mu_p = e^(i pi / w) [[1, a/w], [0, 1]] has mu_p^w = mu, not the -mu
        # that equation (1) asks for under the central twist
        rng = Random(8)
        for _ in range(20):
            g = sample_instance("jordan_minus", rng)
            e = construct_extension(g)
            untwisted = Mat2C.upper(cmath.exp(1j * math.pi / g.w), -g.mu.b / g.w)
            assert (untwisted ** g.w).dist(g.mu) < 1e-12
            res = verify_extension(g, Extension(untwisted, e.lam_p, None))
            assert res.failed_equation == 1 and not res.ok
            assert verify_extension(g, e).ok

    def test_verify_rejects_impossible_tolerance(self):
        rng = Random(9)
        g = sample_instance("diagonal", rng)
        assert not verify_extension(g, construct_extension(g), tol=1e-18).ok


class TestResidualsMatchReference:
    """glue_instance and verify_extension read matrix entries; their
    residuals must equal, by repr, those of the whole-matrix chain in
    tests/oracles.py, and their errors must be the same."""

    @staticmethod
    def assert_same_outcome(p, q, w, mu, lam):
        """glue_instance raises the error the reference residuals predict,
        or none; returns that error's message or None."""
        commute, relation = oracles.instance_residuals_reference(mu, lam, p, q)
        if commute > DEFAULT_TOL:
            expected = "mu and lam must commute"
        elif relation > DEFAULT_TOL:
            expected = f"peripheral relation mu^p lam^q = 1 fails (residual {relation:g})"
        else:
            glue_instance(p, q, w, mu, lam)
            return None
        with pytest.raises(ValueError) as info:
            glue_instance(p, q, w, mu, lam)
        assert str(info.value) == expected
        return expected

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_residuals_bit_identical(self, kind, monkeypatch):
        # glue_instance's two residuals are read where it computes them,
        # from the entry distance it calls
        entry_dist = repglue._entry_dist
        seen = []

        def recorded(x, y):
            seen.append(entry_dist(x, y))
            return seen[-1]

        monkeypatch.setattr(repglue, "_entry_dist", recorded)
        rng = Random(kind)
        negative_p = 0
        for _ in range(300):
            g = sample_instance(kind, rng)
            negative_p += g.p < 0
            seen.clear()
            assert glue_instance(g.p, g.q, g.w, g.mu, g.lam) == g
            expected = oracles.instance_residuals_reference(g.mu, g.lam, g.p, g.q)
            assert list(map(repr, seen)) == list(map(repr, expected)), g
            e = construct_extension(g)
            bumped = Extension(e.mu_p, replace(e.lam_p, d=e.lam_p.d + 1e-3), None)
            for ext in (e, bumped):
                got = verify_extension(g, ext).residuals
                expected = oracles.extension_residuals_reference(g, ext)
                assert list(map(repr, got)) == list(map(repr, expected)), g
        assert negative_p >= 100

    def test_non_commuting_pairs_match_reference(self):
        # lam.b within DEFAULT_TOL still classifies as diagonal, so the
        # commutation residual |lam.b (alpha - 1/alpha)| decides
        rng = Random(31)
        outcomes = set()
        for _ in range(300):
            g = sample_instance("diagonal", rng)
            off = cmath.rect(rng.uniform(0, DEFAULT_TOL), rng.uniform(-math.pi, math.pi))
            lam = replace(g.lam, b=off)
            classify_case(g.mu, lam, g.w)
            outcomes.add(self.assert_same_outcome(g.p, g.q, g.w, g.mu, lam))
        assert "mu and lam must commute" in outcomes
        assert len(outcomes) >= 2

    @pytest.mark.parametrize("kind", CASE_KINDS)
    def test_failing_relation_matches_reference(self, kind):
        rng = Random(f"relation-{kind}")
        for _ in range(200):
            g = sample_instance(kind, rng)
            delta = rng.uniform(1e-8, 1e-3)
            if kind == "diagonal":
                beta = g.lam.a * (1 + delta)
                lam = diag(beta, 1 / beta)
            else:
                lam = replace(g.lam, b=g.lam.b + delta)
            expected = self.assert_same_outcome(g.p, g.q, g.w, g.mu, lam)
            assert expected is not None and expected.startswith("peripheral relation")

    def test_oracle_selftest(self):
        # worked examples of every oracle, the matrix helpers among them
        oracles._selftest()

    def test_singular_negative_power_raises(self):
        for m in (Mat2C(1, 2, 2, 4), Mat2C(1j, 1, -1, 1j), Mat2C(0, 0, 0, 0)):
            for n in (-1, -2, -7):
                with pytest.raises(ZeroDivisionError):
                    oracles.binary_power_reference(m, n)
                with pytest.raises(ZeroDivisionError):
                    m ** n
        # residual (3) takes mu_P to p w^2 / d < 0
        rng = Random(3)
        g = sample_instance("jordan_plus", rng)
        while g.p >= 0:
            g = sample_instance("jordan_plus", rng)
        e = construct_extension(g)
        singular = Extension(Mat2C(1, 2, 2, 4), e.lam_p, None)
        with pytest.raises(ZeroDivisionError):
            oracles.extension_residuals_reference(g, singular)
        with pytest.raises(ZeroDivisionError):
            verify_extension(g, singular)
