"""Two-variable polynomials, Newton polygons, thinness, and torus knot
detection from enhanced A-polynomials."""

import cmath
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotpoly.apolygon import (
    INFINITE_SLOPE,
    MAX_FACTORIZED,
    BiPoly,
    _is_prime_power,
    coprime_factorizations,
    detect_torus_from_apoly,
    detect_with_degree,
    detectability,
    newton_polygon,
    thinness,
)
from knotpoly.torusknot import TorusKnotSpec, enhanced_apoly, genus

import oracles

bipoly_dicts = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(-6, 6)),
    st.integers(min_value=-4, max_value=4),
    max_size=7,
)
bipolys = bipoly_dicts.map(BiPoly)
nonzero_bipolys = bipolys.filter(bool)
# supports on one line, vertical ones (a zero L-step) included
collinear_bipolys = st.builds(
    lambda origin, step, ks, c: BiPoly(
        {(origin[0] + k * step[0], origin[1] + k * step[1]): c for k in ks}
    ),
    st.tuples(st.integers(-3, 3), st.integers(-6, 6)),
    st.tuples(st.integers(0, 2), st.integers(-3, 3)),
    st.sets(st.integers(-3, 3), min_size=1, max_size=5),
    st.sampled_from([1, -1, 2]),
)


class TestBiPoly:
    def test_parse_goldens(self):
        assert BiPoly.parse("1 + M^6*L").as_dict() == {(0, 0): 1, (1, 6): 1}
        assert BiPoly.parse("M^6 + L").as_dict() == {(0, 6): 1, (1, 0): 1}
        assert BiPoly.parse("1 - M^30*L^2").as_dict() == {(0, 0): 1, (2, 30): -1}
        # sign normalization: lex-least key gets positive coefficient
        f = BiPoly.parse("-1 + M^30*L^2")
        assert f.as_dict() == {(0, 0): 1, (2, 30): -1}

    def test_parse_compact_and_variants(self):
        assert BiPoly.parse("1+M^6*L") == BiPoly.parse("1 + M^6*L")
        assert BiPoly.parse("M*L") .as_dict() == {(1, 1): 1}
        assert BiPoly.parse("2*M^3") .as_dict() == {(0, 3): 2}
        assert BiPoly.parse("L^2") .as_dict() == {(2, 0): 1}
        assert BiPoly.parse("M^-2*L") .as_dict() == {(1, -2): 1}

    @pytest.mark.parametrize("bad", ["", "+", "-", "L*M", "M^", "1 +", "M^2*", "x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            BiPoly.parse(bad)

    @given(bipolys)
    def test_str_parse_round_trip(self, f):
        if not f:
            return
        assert BiPoly.parse(str(f)) == f

    @given(bipolys)
    def test_sign_normalization(self, f):
        d = f.as_dict()
        if d:
            assert d[min(d)] > 0
        assert f == BiPoly({k: -c for k, c in f.as_dict().items()})

    def test_equality_up_to_sign(self):
        assert BiPoly({(0, 0): 1, (1, 4): -1}) == BiPoly({(0, 0): -1, (1, 4): 1})


class TestNewtonPolygon:
    def test_segment(self):
        npg = newton_polygon(BiPoly.parse("-1 + M^210*L^2"))
        assert npg.lattice_points == ((0, 0), (2, 210))
        assert npg.hull_vertices == ((0, 0), (2, 210))
        assert npg.edge_slopes == (Fraction(105),)

    def test_single_point(self):
        npg = newton_polygon(BiPoly.parse("7"))
        assert npg.hull_vertices == ((0, 0),)
        assert npg.edge_slopes == ()

    def test_vertical_segment(self):
        npg = newton_polygon(BiPoly.parse("1 + M^4"))
        assert npg.edge_slopes == (INFINITE_SLOPE,)

    def test_parallelogram(self):
        f = BiPoly({(0, 0): 1, (1, 0): 1, (1, 6): 1, (2, 6): 1, (1, 3): 5})
        npg = newton_polygon(f)
        assert npg.hull_vertices == ((0, 0), (1, 0), (2, 6), (1, 6))
        assert npg.edge_slopes == (Fraction(0), Fraction(6))

    def test_square_with_vertical_edges(self):
        f = BiPoly({(0, 0): 1, (0, 4): 1, (1, 0): 2, (1, 4): -1})
        npg = newton_polygon(f)
        assert npg.hull_vertices == ((0, 0), (1, 0), (1, 4), (0, 4))
        assert npg.edge_slopes == (Fraction(0), INFINITE_SLOPE)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            newton_polygon(BiPoly({}))

    @given(nonzero_bipolys)
    @settings(max_examples=200)
    def test_hull_matches_brute_oracle(self, f):
        npg = newton_polygon(f)
        assert oracles.hull_is_valid(list(npg.lattice_points), list(npg.hull_vertices))

    @given(nonzero_bipolys)
    @settings(max_examples=100)
    def test_slopes_consistent_with_hull(self, f):
        npg = newton_polygon(f)
        hull = npg.hull_vertices
        if len(hull) < 2:
            assert npg.edge_slopes == ()
            return
        expected = set()
        edges = (
            [(hull[0], hull[1])]
            if len(hull) == 2
            else [(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))]
        )
        for (l1, m1), (l2, m2) in edges:
            expected.add(INFINITE_SLOPE if l1 == l2 else Fraction(m2 - m1, l2 - l1))
        # each slope once, finite ones ascending, INFINITE_SLOPE only last
        finite = sorted(s for s in expected if s != INFINITE_SLOPE)
        vertical = (INFINITE_SLOPE,) if INFINITE_SLOPE in expected else ()
        assert npg.edge_slopes == tuple(finite) + vertical


class TestThinness:
    def test_point(self):
        assert thinness(BiPoly.parse("3")).kind == "point"

    def test_thin_templates(self):
        r = thinness(enhanced_apoly(TorusKnotSpec(3, 2)))
        assert r.kind == "thin" and r.slope == Fraction(6)
        r = thinness(enhanced_apoly(TorusKnotSpec(-3, 2)))
        assert r.kind == "thin" and r.slope == Fraction(-6)
        r = thinness(enhanced_apoly(TorusKnotSpec(5, 3)))
        assert r.kind == "thin" and r.slope == Fraction(15)

    def test_three_collinear_points_thin(self):
        f = BiPoly({(0, 0): 1, (1, 2): 1, (2, 4): -1})
        r = thinness(f)
        assert r.kind == "thin" and r.slope == Fraction(2)

    def test_vertical_not_thin(self):
        r = thinness(BiPoly.parse("1 + M^4"))
        assert r.kind == "not_thin" and r.infinite_slope
        assert r.slope is INFINITE_SLOPE

    def test_triangle_not_thin(self):
        f = BiPoly({(0, 0): 1, (1, 0): 1, (1, 6): 1})
        r = thinness(f)
        assert r.kind == "not_thin" and not r.infinite_slope

    @given(st.one_of(nonzero_bipolys, collinear_bipolys))
    @example(BiPoly({(1, -2): 1, (1, 0): 3, (1, 5): -1}))
    @example(BiPoly({(0, 0): 1, (1, 2): 1, (2, 4): 1, (3, 6): -2}))
    @settings(max_examples=300)
    def test_matches_brute_oracle(self, f):
        r = thinness(f)
        kind, slope, infinite_slope = oracles.thinness_brute(f.support())
        # the oracle reports a vertical segment's slope as None
        r_slope = None if r.infinite_slope else r.slope
        assert (r.kind, r_slope, r.infinite_slope) == (kind, slope, infinite_slope)
        assert type(r_slope) is type(slope)

    def test_sweep_slope_equals_product(self):
        for p in range(3, 15):
            for q in range(2, p):
                if math.gcd(p, q) != 1:
                    continue
                for a in (p, -p):
                    k = TorusKnotSpec(a, q)
                    r = thinness(enhanced_apoly(k))
                    assert r.kind == "thin" and r.slope == k.a * k.b, (a, q)


class TestCoprimeFactorizations:
    def test_goldens(self):
        assert coprime_factorizations(105) == [(3, 35), (5, 21), (7, 15)]
        assert coprime_factorizations(75) == [(3, 25)]
        assert coprime_factorizations(6) == [(2, 3)]
        assert coprime_factorizations(8) == []
        assert coprime_factorizations(210) == [(2, 105), (3, 70), (5, 42), (6, 35), (7, 30), (10, 21), (14, 15)]

    def test_rejects_small(self):
        for n in (3, 2, 1, 0, -5):
            with pytest.raises(ValueError):
                coprime_factorizations(n)

    def test_refuses_above_limit(self):
        assert coprime_factorizations(MAX_FACTORIZED) == [(4096, 244140625)]
        with pytest.raises(ValueError, match="more than the limit"):
            coprime_factorizations(MAX_FACTORIZED + 1)

    def test_matches_brute_and_count_formula(self):
        for n in range(4, 2000):
            got = coprime_factorizations(n)
            assert got == oracles.coprime_splits_brute(n), n
            assert len(got) == 2 ** (oracles.omega(n) - 1) - 1, n

    @given(st.integers(min_value=4, max_value=10**6))
    @settings(max_examples=200)
    def test_matches_brute_sampled_large(self, n):
        assert coprime_factorizations(n) == oracles.coprime_splits_brute(n)


class TestDetection:
    def test_ambiguous_golden(self):
        r = detect_torus_from_apoly(BiPoly.parse("-1 + M^210*L^2"))
        assert not r.is_unknot and not r.unique
        assert [(k.a, k.b) for k in r.candidates] == [(35, 3), (21, 5), (15, 7)]

    def test_unique_golden(self):
        r = detect_torus_from_apoly(BiPoly.parse("-1 + M^150*L^2"))
        assert r.unique and [(k.a, k.b) for k in r.candidates] == [(25, 3)]

    def test_b2_positive(self):
        r = detect_torus_from_apoly(BiPoly.parse("1 + M^6*L"))
        assert r.unique and r.candidates == (TorusKnotSpec(3, 2),)

    def test_b2_negative(self):
        r = detect_torus_from_apoly(BiPoly.parse("M^6 + L"))
        assert r.unique and r.candidates == (TorusKnotSpec(-3, 2),)

    def test_negative_general(self):
        r = detect_torus_from_apoly(BiPoly.parse("-M^30 + L^2"))
        assert r.unique and r.candidates == (TorusKnotSpec(-5, 3),)

    def test_unknot(self):
        r = detect_torus_from_apoly(BiPoly.parse("1"))
        assert r.is_unknot and not r.candidates

    def test_non_template_no_match(self):
        for text in ["1 + M^5*L", "1 + M^4*L", "1 + M^30*L^2", "-1 + M^31*L^2", "1 + M^6*L + L^2"]:
            r = detect_torus_from_apoly(BiPoly.parse(text))
            assert not r.candidates and not r.is_unknot, text

    def test_round_trip_all_templates(self):
        for p in range(3, 12):
            for q in range(2, p):
                if math.gcd(p, q) != 1:
                    continue
                for a in (p, -p):
                    k = TorusKnotSpec(a, q)
                    r = detect_torus_from_apoly(enhanced_apoly(k))
                    assert k in r.candidates, (a, q)

    def test_degree_filter_golden(self):
        f = BiPoly.parse("-1 + M^210*L^2")
        r = detect_with_degree(f, 68)
        assert r.unique and r.candidates == (TorusKnotSpec(35, 3),)
        r = detect_with_degree(f, 80)
        assert r.unique and r.candidates == (TorusKnotSpec(21, 5),)
        r = detect_with_degree(f, 84)
        assert r.unique and r.candidates == (TorusKnotSpec(15, 7),)
        r = detect_with_degree(f, 2)
        assert not r.candidates

    def test_degree_unknot(self):
        assert detect_with_degree(BiPoly.parse("1"), 0).is_unknot
        assert not detect_with_degree(BiPoly.parse("1"), 2).is_unknot

    def test_degree_rejects_negative(self):
        with pytest.raises(ValueError, match="^degree must be nonnegative$"):
            detect_with_degree(BiPoly.parse("1"), -2)

    @pytest.mark.parametrize("degree", [False, True, 2.0, 2.5, None, "2"])
    def test_degree_rejects_what_is_not_an_int(self, degree):
        # a bool or a float must not pass for the degree: False read as 0
        # once matched the unknot, and 2.0 as 2 matched T(3,2)
        for text in ("1", "1 + M^6*L"):
            with pytest.raises(ValueError, match=r"^degree must be an integer, got "):
                detect_with_degree(BiPoly.parse(text), degree)

    def test_degree_always_at_most_one(self):
        # (|a|-1)(b-1) separates every coprime factorization pair
        f = BiPoly.parse("-1 + M^420*L^2")
        r = detect_torus_from_apoly(f)
        assert len(r.candidates) == 6
        degrees = {2 * genus(k) for k in r.candidates}
        assert len(degrees) == len(r.candidates)


class TestDetectability:
    def test_goldens(self):
        assert detectability(TorusKnotSpec(3, 2))
        assert detectability(TorusKnotSpec(35, 3)) is False
        assert detectability(TorusKnotSpec(25, 3))
        assert detectability(TorusKnotSpec(15, 2))
        assert detectability(TorusKnotSpec(-35, 3)) is False
        assert detectability(TorusKnotSpec(35, 2))

    def test_matches_unique_detection(self):
        for p in range(3, 40):
            for q in range(2, p):
                if math.gcd(p, q) != 1:
                    continue
                for a in (p, -p):
                    k = TorusKnotSpec(a, q)
                    r = detect_torus_from_apoly(enhanced_apoly(k))
                    assert detectability(k) == r.unique, (a, q)

    def test_refuses_a_parameter_above_the_factoring_limit(self):
        # trial division of 2^61 - 1 would take about 1.5e9 steps
        with pytest.raises(ValueError, match="more than the limit"):
            detectability(TorusKnotSpec(2**61 - 1, 3))
        with pytest.raises(ValueError, match="more than the limit"):
            detectability(TorusKnotSpec(-(MAX_FACTORIZED + 1), 3))
        assert detectability(TorusKnotSpec(MAX_FACTORIZED, 3)) is False  # 2^12 5^12
        assert detectability(TorusKnotSpec(2**61 - 1, 2))
        assert detectability(TorusKnotSpec(999_983, 3))

    def test_prime_power_condition(self):
        # b > 2 and |a| > 2: detectable iff both are prime powers
        k = TorusKnotSpec(8, 3)
        assert detectability(k)
        k = TorusKnotSpec(15, 4)
        assert not detectability(k)
        k = TorusKnotSpec(27, 4)
        assert detectability(k)

    def test_prime_power_matches_oracle(self):
        brute = oracles.is_prime_power_brute
        assert [n for n in range(3000) if _is_prime_power(n) != brute(n)] == []

    def test_matches_prime_power_oracle(self):
        brute = oracles.is_prime_power_brute
        checked = 0
        for p in range(3, 80):
            for q in range(2, p):
                if math.gcd(p, q) != 1:
                    continue
                for a in (p, -p):
                    expected = q == 2 or (brute(p) and brute(q))
                    assert detectability(TorusKnotSpec(a, q)) == expected, (a, q)
                    checked += 1
        assert checked > 3000


class TestFigureEightControl:
    """A hyperbolic knot is no torus knot: the A-polynomial of the figure-eight
    knot 4_1 (Cooper, Culler, Gillet, Long and Shalen, Invent. Math. 118,
    1994), written M before L, matches no template.  The tests trust APOLY
    only once it vanishes on the knot group's representations."""

    APOLY = "M^4*L^2 - M^8*L + M^6*L + 2*M^4*L + M^2*L - L + M^4"
    # Hatcher and Thurston's boundary slopes of 4_1
    BOUNDARY_SLOPES = {0, 4, -4}

    @staticmethod
    def riley_values(terms):
        """relative_value of terms at the (L, M) of each of 400 Riley
        representations, 2 for each of 200 meridians drawn from the
        annulus 1/2 <= |M| <= 2; each representation is checked first."""
        rng = Random(4)
        meridians = [
            cmath.rect(rng.uniform(0.5, 2), rng.uniform(-math.pi, math.pi)) for _ in range(200)
        ]
        values = []
        for m, l, residual in oracles.figure_eight_reps(meridians):
            assert residual < 1e-9, (m, residual)
            values.append(oracles.relative_value(terms, l, m))
        assert len(values) == 400
        return values

    @pytest.fixture(scope="class")
    def apoly(self):
        assert max(self.riley_values(BiPoly.parse(self.APOLY).as_dict())) < 1e-9
        return self.APOLY

    def test_riley_check_catches_a_changed_coefficient(self):
        terms = BiPoly.parse(self.APOLY).as_dict()
        terms[(1, 4)] += 1  # 2*M^4*L becomes 3*M^4*L
        assert min(self.riley_values(terms)) > 1e-3

    def test_newton_polygon_slopes_are_boundary_slopes(self, apoly):
        npg = newton_polygon(BiPoly.parse(apoly))
        assert npg.edge_slopes == (Fraction(-4), Fraction(4))
        assert set(npg.edge_slopes) <= self.BOUNDARY_SLOPES
        assert thinness(BiPoly.parse(apoly)).kind == "not_thin"

    def test_no_torus_knot_matches(self, apoly):
        f = BiPoly.parse(apoly)
        for r in (detect_torus_from_apoly(f), detect_with_degree(f, 2)):
            assert r.candidates == () and not r.is_unknot and not r.unique

    def test_cli_text(self, run, apoly):
        newton = run(["newton", apoly])
        assert newton.code == 0
        assert b"edge slopes: -4 4\n" in newton.out and b"thinness: not_thin\n" in newton.out
        for argv in (["detect", apoly], ["detect", "--degree", "2", apoly]):
            assert run(argv) == (0, b"no match\n", b""), argv
