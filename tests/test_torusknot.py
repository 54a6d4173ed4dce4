"""Torus knot invariants: spec parsing, Alexander polynomials, leading
forms, enhanced A-polynomials, cabling slope families."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knotpoly.apolygon import BiPoly
from knotpoly.laurent import LaurentPoly
from knotpoly.torusknot import (
    TorusKnotSpec,
    abelian_slope_family,
    alexander,
    enhanced_apoly,
    genus,
    leading_form,
    MAX_TERMS,
    parse_spec,
    term_count,
    torus_coefficient,
)

import oracles


def coprime_pairs(limit):
    from math import gcd

    for p in range(3, limit + 1):
        for q in range(2, p):
            if gcd(p, q) == 1:
                yield p, q


class TestSpec:
    def test_canonicalization(self):
        assert (TorusKnotSpec(2, 3).a, TorusKnotSpec(2, 3).b) == (3, 2)
        assert (TorusKnotSpec(-3, 2).a, TorusKnotSpec(-3, 2).b) == (-3, 2)
        assert (TorusKnotSpec(3, -2).a, TorusKnotSpec(3, -2).b) == (-3, 2)
        assert (TorusKnotSpec(-3, -2).a, TorusKnotSpec(-3, -2).b) == (3, 2)
        assert (TorusKnotSpec(-2, 5).a, TorusKnotSpec(-2, 5).b) == (-5, 2)

    @pytest.mark.parametrize("a,b", [(4, 2), (6, 3), (0, 2), (3, 0), (1, 3), (3, 1), (5, 5)])
    def test_rejects_degenerate(self, a, b):
        with pytest.raises(ValueError):
            TorusKnotSpec(a, b)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            TorusKnotSpec(3.0, 2)

    def test_parse_spec(self):
        assert parse_spec("T(3,2)") == TorusKnotSpec(3, 2)
        assert parse_spec(" T( -7 , 2 ) ") == TorusKnotSpec(-7, 2)
        with pytest.raises(ValueError):
            parse_spec("T(3;2)")
        with pytest.raises(ValueError):
            parse_spec("3,2")

    def test_str(self):
        assert str(TorusKnotSpec(2, -5)) == "T(-5,2)"

    @given(st.integers(-9, 9), st.integers(-9, 9))
    def test_mirror_pairs_collapse(self, a, b):
        from math import gcd

        if a == 0 or b == 0 or gcd(a, b) != 1 or min(abs(a), abs(b)) < 2:
            return
        k1 = TorusKnotSpec(a, b)
        k2 = TorusKnotSpec(b, a)
        assert (k1.a, k1.b) == (k2.a, k2.b)
        assert abs(k1.a) > abs(k1.b) >= 2


class TestAlexander:
    def test_goldens(self):
        # frozen from the dense long-division oracle
        assert alexander(TorusKnotSpec(3, 2)).as_dict() == {1: 1, 0: -1, -1: 1}
        assert alexander(TorusKnotSpec(5, 2)).as_dict() == {
            2: 1, 1: -1, 0: 1, -1: -1, -2: 1,
        }
        assert alexander(TorusKnotSpec(4, 3)).as_dict() == {
            3: 1, 2: -1, 0: 1, -2: -1, -3: 1,
        }
        assert alexander(TorusKnotSpec(7, 2)).as_dict() == {
            3: 1, 2: -1, 1: 1, 0: -1, -1: 1, -2: -1, -3: 1,
        }
        assert alexander(TorusKnotSpec(5, 3)).as_dict() == {
            4: 1, 3: -1, 1: 1, 0: -1, -1: 1, -3: -1, -4: 1,
        }

    def test_matches_oracle_sweep(self):
        for p, q in [*coprime_pairs(30), (64, 45), (97, 94), (100, 3)]:
            assert alexander(TorusKnotSpec(p, q)).as_dict() == oracles.torus_alexander_oracle(
                p, q
            ), (p, q)

    def test_matches_exact_division_large(self):
        # The benchmark's large shape T(p, p - 3), past what the dense
        # oracle reaches quickly.
        p, q = 320, 317
        one = LaurentPoly({0: 1})

        def t(e):
            return LaurentPoly({e: 1})

        quotient = ((t(p * q) - one) * (t(1) - one)).exact_divide((t(p) - one) * (t(q) - one))
        assert alexander(TorusKnotSpec(p, q)) == quotient.symmetrize()

    def test_mirror_invariance(self):
        for spec in [(3, 2), (-3, 2), (5, 3), (-7, 4)]:
            k = TorusKnotSpec(*spec)
            f = alexander(k)
            assert LaurentPoly({-e: c for e, c in f.as_dict().items()}) == f
            assert f == alexander(TorusKnotSpec(-k.a, k.b))

    def test_genus_is_top_exponent(self):
        for p, q in coprime_pairs(10):
            k = TorusKnotSpec(p, q)
            assert alexander(k).span() == (-genus(k), genus(k))
            assert genus(k) == (p - 1) * (q - 1) // 2

    def test_value_at_one(self):
        f = alexander(TorusKnotSpec(9, 4))
        assert sum(c for _, c in f.items()) == 1

    def test_term_count_formula(self):
        # r, s >= 0 with rp + sq = 2g and r < q, found by search here
        for p, q in [*coprime_pairs(40), (64, 45), (97, 94), (100, 3)]:
            k = TorusKnotSpec(p, q)
            g2 = 2 * genus(k)
            r = next(r for r in range(q) if (g2 - r * p) % q == 0 and g2 >= r * p)
            s = (g2 - r * p) // q
            expected = (r + 1) * (s + 1) + (q - r - 1) * (p - s - 1)
            assert len(oracles.torus_alexander_oracle(p, q)) == expected, (p, q)
            assert term_count(k) == expected == term_count(TorusKnotSpec(-p, q)), (p, q)

    def test_size_guard(self):
        assert MAX_TERMS >= 133_333
        big = TorusKnotSpec(100000, 3)
        assert term_count(big) == 133_333
        assert len(alexander(big).as_dict()) == 133_333
        refused = TorusKnotSpec(750001, 3)
        assert term_count(refused) == MAX_TERMS + 1
        with pytest.raises(ValueError, match="more than the limit 1000000"):
            alexander(refused)


class TestTorusCoefficient:
    def test_matches_oracle(self):
        # every knot T(+-p, q) with p < 30, every exponent in [-g-2, g+2]
        for p, q in coprime_pairs(29):
            dense = oracles.torus_alexander_oracle(p, q)
            for a in (p, -p):
                k = TorusKnotSpec(a, q)
                g = genus(k)
                got = {e: torus_coefficient(k, e) for e in range(-g - 2, g + 3)}
                assert got == {e: dense.get(e, 0) for e in got}, (a, q)

    def test_far_exponents_and_huge_knots(self):
        k = TorusKnotSpec(100003, 100002)
        g = genus(k)
        assert [torus_coefficient(k, e) for e in (g, g - 1, g - 2, -g)] == [1, -1, 0, 1]
        assert torus_coefficient(k, g + 1) == torus_coefficient(k, -g - 1) == 0


class TestLeadingForm:
    def test_golden(self):
        assert leading_form(TorusKnotSpec(7, 2)).as_dict() == {
            3: 1, 2: -1, 1: 1, 0: -1, -1: 1, -2: -1, -3: 1, -4: -1,
        }

    def test_trefoil(self):
        # block i=1 overshoots the true polynomial below exponent g - p
        assert leading_form(TorusKnotSpec(3, 2)).as_dict() == {1: 1, 0: -1, -1: 1, -2: -1}

    def test_agreement_range(self):
        # coefficients above exponent g - p agree with the full polynomial
        for p, q in coprime_pairs(14):
            k = TorusKnotSpec(p, q)
            g = genus(k)
            full = alexander(k)
            lead = leading_form(k)
            for e in range(g - p + 1, g + 1):
                assert lead.coefficient(e) == full.coefficient(e), (p, q, e)

    def test_block_structure(self):
        k = TorusKnotSpec(11, 3)
        g = genus(k)
        expected = {}
        for i in range(11 // 3 + 1):
            expected[g - 3 * i] = 1
            expected[g - 3 * i - 1] = -1
        assert leading_form(k).as_dict() == expected


class TestEnhancedApoly:
    def test_four_template_goldens(self):
        assert enhanced_apoly(TorusKnotSpec(3, 2)) == BiPoly.parse("1 + M^6*L")
        assert enhanced_apoly(TorusKnotSpec(-3, 2)) == BiPoly.parse("M^6 + L")
        assert enhanced_apoly(TorusKnotSpec(5, 3)) == BiPoly.parse("-1 + M^30*L^2")
        assert enhanced_apoly(TorusKnotSpec(-5, 3)) == BiPoly.parse("-M^30 + L^2")

    def test_b2_exponent_formula(self):
        for a in (3, 5, 7, 9, 11):
            f = enhanced_apoly(TorusKnotSpec(a, 2))
            assert f.as_dict() == {(0, 0): 1, (1, 2 * a): 1}
            g = enhanced_apoly(TorusKnotSpec(-a, 2))
            assert g.as_dict() == {(0, 2 * a): 1, (1, 0): 1}

    def test_general_exponent_formula(self):
        for p, q in coprime_pairs(9):
            if q == 2:
                continue
            f = enhanced_apoly(TorusKnotSpec(p, q))
            assert f.as_dict() == {(0, 0): 1, (2, 2 * p * q): -1}, (p, q)

    def test_sign_normalized_equality(self):
        f = enhanced_apoly(TorusKnotSpec(5, 3))
        assert f == BiPoly({k: -c for k, c in f.as_dict().items()})


class TestSlopeFamily:
    def test_trefoil_golden(self):
        slopes, limit = abelian_slope_family(TorusKnotSpec(3, 2), 3)
        assert slopes == [Fraction(7), Fraction(13, 2), Fraction(19, 3)]
        assert limit == 6

    def test_negative_knot(self):
        slopes, limit = abelian_slope_family(TorusKnotSpec(-3, 2), 4)
        assert limit == -6
        assert slopes == [Fraction(-5), Fraction(-11, 2), Fraction(-17, 3), Fraction(-23, 4)]

    def test_lowest_terms_and_convergence(self):
        slopes, limit = abelian_slope_family(TorusKnotSpec(5, 2), 30)
        assert all(s.denominator == n for n, s in enumerate(slopes, start=1))
        assert all(abs(s.numerator - s.denominator * limit) == 1 for s in slopes)
        diffs = [abs(s - limit) for s in slopes]
        assert all(x > y for x, y in zip(diffs, diffs[1:]))

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            abelian_slope_family(TorusKnotSpec(3, 2), 0)
