"""Laurent polynomial ring: arithmetic, parsing, division, symmetry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotpoly.laurent import LaurentPoly, NonExactDivision, NotSymmetrizable

import oracles

laurent_dicts = st.dictionaries(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-9, max_value=9),
    max_size=8,
)
polys = laurent_dicts.map(LaurentPoly)
nonzero_polys = polys.filter(bool)


def mirror(f):
    # t -> t^-1
    return LaurentPoly({-e: c for e, c in f.as_dict().items()})


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        f = LaurentPoly({3: 0, 1: 2, 0: 0})
        assert f.as_dict() == {1: 2}

    def test_duplicate_exponents_sum(self):
        f = LaurentPoly([(2, 1), (2, 3), (0, -1)])
        assert f.as_dict() == {2: 4, 0: -1}

    def test_rejects_non_integer_coefficient(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: 1.5})
        with pytest.raises(TypeError, match="^exponent must be an integer"):
            LaurentPoly({1.0: 1})

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: True})

    def test_immutable(self):
        f = LaurentPoly({0: 1})
        with pytest.raises(AttributeError):
            f._terms = {}


class TestParse:
    def test_round_trip_goldens(self):
        for text, expected in [
            ("t - 1 + t^-1", {1: 1, 0: -1, -1: 1}),
            ("t^2 - t + 1 - t^-1 + t^-2", {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}),
            ("3*t^2", {2: 3}),
            ("-t^5 + 2", {5: -1, 0: 2}),
            ("0", {}),
            ("7", {0: 7}),
            ("t", {1: 1}),
            ("-t", {1: -1}),
        ]:
            assert LaurentPoly.parse(text).as_dict() == expected

    def test_compact_spacing(self):
        assert LaurentPoly.parse("t^2-t+1-t^-1+t^-2") == LaurentPoly.parse(
            "t^2 - t + 1 - t^-1 + t^-2"
        )

    def test_explicit_star(self):
        assert LaurentPoly.parse("2*t^3 + 1*t").as_dict() == {3: 2, 1: 1}

    @pytest.mark.parametrize("bad", ["", "t^", "t**2", "x + 1", "t^1.5", "+ + t", "2t^^3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            LaurentPoly.parse(bad)

    @given(polys)
    def test_str_parse_round_trip(self, f):
        assert LaurentPoly.parse(str(f)) == f


class TestArithmetic:
    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_multiplication_distributes(self, f, g, h):
        # the constructor sums equal exponents, so this builds g + h
        g_plus_h = LaurentPoly([*g.items(), *h.items()])
        assert f * g_plus_h == LaurentPoly([*(f * g).items(), *(f * h).items()])

    @given(polys, polys, polys)
    @settings(max_examples=60)
    def test_multiplication_associates(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(polys)
    def test_units(self, f):
        assert f * LaurentPoly({0: 1}) == f
        assert f * 1 == f
        assert 0 * f == LaurentPoly({})

    @given(polys, polys)
    @settings(max_examples=60)
    def test_mul_matches_dense_oracle(self, f, g):
        assert (f * g).as_dict() == oracles.mul_dicts(f.as_dict(), g.as_dict())

    @given(polys, st.integers(min_value=-6, max_value=6))
    def test_int_coercion(self, f, n):
        assert n * f == LaurentPoly({0: n}) * f == f * n

    def test_incompatible_operand(self):
        f = LaurentPoly({0: 1})
        with pytest.raises(TypeError):
            f * "x"
        with pytest.raises(TypeError):
            f.exact_divide(2)


class TestStructure:
    @given(nonzero_polys)
    def test_span_bounds(self, f):
        lo, hi = f.span()
        d = f.as_dict()
        assert lo == min(d) and hi == max(d)

    def test_span_of_zero(self):
        with pytest.raises(ValueError):
            LaurentPoly({}).span()

    @given(polys)
    def test_items_descending(self, f):
        exps = [e for e, _ in f.items()]
        assert exps == sorted(exps, reverse=True)

    @given(polys, st.integers(min_value=1, max_value=5))
    def test_dilate_scales_exponents(self, f, w):
        assert f.dilate(w).as_dict() == {e * w: c for e, c in f.as_dict().items()}

    def test_dilate_requires_positive(self):
        with pytest.raises(ValueError):
            LaurentPoly({1: 1}).dilate(0)

    @given(polys)
    def test_hash_consistent(self, f):
        assert hash(f) == hash(LaurentPoly(f.as_dict()))

    @given(st.integers())
    def test_constant_is_not_its_int(self, n):
        c = LaurentPoly({0: n})
        assert c != n and n != c
        assert len({c, n}) == 2


class TestExactDivide:
    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=80)
    def test_product_division_round_trip(self, f, g):
        assert (f * g).exact_divide(g) == f

    def test_non_exact_raises(self):
        f = LaurentPoly({2: 1, 0: 1})
        with pytest.raises(NonExactDivision):
            f.exact_divide(LaurentPoly({1: 1, 0: 1}))

    def test_integer_obstruction_raises(self):
        with pytest.raises(NonExactDivision):
            LaurentPoly({1: 1}).exact_divide(LaurentPoly({0: 2}))

    def test_zero_divisor(self):
        with pytest.raises(NonExactDivision):
            LaurentPoly({0: 1}).exact_divide(LaurentPoly({}))

    def test_zero_dividend(self):
        assert LaurentPoly({}).exact_divide(LaurentPoly({0: 1})) == LaurentPoly()

    def test_matches_dense_oracle(self):
        num = oracles.dense_mul(oracles.tpow_minus_one(15), oracles.tpow_minus_one(1))
        den = oracles.dense_mul(oracles.tpow_minus_one(5), oracles.tpow_minus_one(3))
        quot, rem = oracles.dense_divmod(num, den)
        assert rem == (0, [])
        lhs = LaurentPoly({15: 1, 0: -1}) * LaurentPoly({1: 1, 0: -1})
        rhs = LaurentPoly({5: 1, 0: -1}) * LaurentPoly({3: 1, 0: -1})
        assert lhs.exact_divide(rhs).as_dict() == {e: c for e, c in quot.items() if c}


class TestSymmetrize:
    def test_centers_and_normalizes(self):
        f = LaurentPoly({2: 1, 1: -1, 0: 1})
        assert f.symmetrize().as_dict() == {1: 1, 0: -1, -1: 1}

    def test_flips_negative_normalization(self):
        f = LaurentPoly({2: -1, 1: 1, 0: -1})
        assert f.symmetrize().as_dict() == {1: 1, 0: -1, -1: 1}

    def test_already_symmetric_fixed(self):
        f = LaurentPoly({1: 1, 0: -1, -1: 1})
        assert f.symmetrize() == f

    def test_odd_span_rejected(self):
        with pytest.raises(NotSymmetrizable):
            LaurentPoly({1: 1, 0: 1}).symmetrize()

    def test_non_palindrome_rejected(self):
        with pytest.raises(NotSymmetrizable):
            LaurentPoly({2: 1, 0: 2}).symmetrize()

    def test_zero_at_one_rejected(self):
        # (t - 1)(t^-1 - 1) is palindromic but vanishes at t = 1
        with pytest.raises(NotSymmetrizable):
            LaurentPoly({1: -1, 0: 2, -1: -1}).symmetrize()

    def test_zero_rejected(self):
        with pytest.raises(NotSymmetrizable):
            LaurentPoly({}).symmetrize()

    @given(nonzero_polys, st.integers(min_value=0, max_value=6))
    @settings(max_examples=80)
    def test_palindromes_symmetrize(self, f, shift):
        sym = f * mirror(f)
        if sum(c for _, c in sym.items()) == 0:
            return
        g = sym * LaurentPoly({shift: 1})
        out = g.symmetrize()
        assert mirror(out) == out
        assert sum(c for _, c in out.items()) > 0


class TestStr:
    def test_magnitude_one_suppressed(self):
        assert str(LaurentPoly({2: 1, 1: -1, 0: 3, -2: -4})) == "t^2 - t + 3 - 4*t^-2"

    def test_zero(self):
        assert str(LaurentPoly({})) == "0"

    def test_negative_leading(self):
        assert str(LaurentPoly({1: -1, 0: 1})) == "-t + 1"
