"""Satellite Alexander polynomials, coefficient admissibility, and the
winding-number obstruction, cross-checked against dense-list oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotpoly import satellite
from knotpoly.laurent import LaurentPoly
from knotpoly.satellite import (
    AdmissibilityReport,
    PredictionMismatch,
    check_companion,
    lspace_admissible,
    satellite_alexander,
    torus_satellite_obstruction,
    winding_violation,
)
from knotpoly.torusknot import TorusKnotSpec, alexander, genus

import oracles

TREFOIL = alexander(TorusKnotSpec(3, 2))


def torus_poly(p, q):
    return alexander(TorusKnotSpec(p, q))


def expected_verdict(b, w):
    # the violation that the residue of w mod b (nonzero) forces
    return "fails_magnitude" if w % b == 1 else "fails_alternation"


class TestSatelliteAlexanderArguments:
    def test_genus_from_top_exponent(self):
        assert satellite_alexander(torus_poly(7, 2), TREFOIL, 3).span() == (-6, 6)

    def test_rejects_zero_winding(self):
        with pytest.raises(ValueError, match=r"^winding number must be an integer >= 1, got 0$"):
            satellite_alexander(TREFOIL, TREFOIL, 0)

    def test_rejects_unsymmetrized_pattern(self):
        with pytest.raises(
            ValueError, match=r"^pattern polynomial must be symmetrized \(equal to its mirror\)$"
        ):
            satellite_alexander(LaurentPoly({2: 1, 0: -1}), TREFOIL, 1)

    def test_rejects_negative_normalization(self):
        with pytest.raises(ValueError, match=r"^pattern polynomial must be positive at t = 1$"):
            satellite_alexander(LaurentPoly({1: -1, 0: 1, -1: -1}), TREFOIL, 1)

    def test_unknot_companion_allowed(self):
        assert satellite_alexander(TREFOIL, LaurentPoly({0: 1}), 5) == TREFOIL

    def test_checks_winding_then_pattern_then_companion(self):
        bad = LaurentPoly({2: 1, 0: -1})
        with pytest.raises(ValueError, match=r"^winding number"):
            satellite_alexander(bad, bad, True)
        with pytest.raises(ValueError, match=r"^pattern polynomial must be nonzero$"):
            satellite_alexander(LaurentPoly(), bad, 1)
        with pytest.raises(ValueError, match=r"^companion polynomial must be symmetrized"):
            satellite_alexander(TREFOIL, bad, 1)


class TestSatelliteAlexander:
    def test_square_of_trefoil(self):
        assert satellite_alexander(TREFOIL, TREFOIL, 1).as_dict() == {2: 1, 1: -2, 0: 3, -1: -2, -2: 1}

    def test_unknot_companion_is_identity(self):
        assert satellite_alexander(TREFOIL, LaurentPoly({0: 1}), 2) == TREFOIL

    def test_winding_three_golden(self):
        assert satellite_alexander(torus_poly(7, 2), TREFOIL, 3).coefficient(3) == -2

    def test_genus_additivity(self):
        for (p, q), (cp, cq), w in [
            ((3, 2), (3, 2), 2),
            ((5, 2), (4, 3), 3),
            ((7, 3), (5, 2), 1),
        ]:
            f = satellite_alexander(torus_poly(p, q), torus_poly(cp, cq), w)
            g = genus(TorusKnotSpec(p, q)) + w * genus(TorusKnotSpec(cp, cq))
            assert f.span() == (-g, g)

    def test_value_at_one_multiplicative(self):
        f = satellite_alexander(torus_poly(5, 3), torus_poly(5, 2), 4)
        assert sum(c for _, c in f.items()) == 1

    @given(
        st.sampled_from([(3, 2), (5, 2), (4, 3), (7, 2), (5, 3)]),
        st.sampled_from([(3, 2), (5, 2), (4, 3)]),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40)
    def test_matches_dense_oracle(self, pat, comp, w):
        expected = oracles.mul_dicts(
            oracles.torus_alexander_oracle(*pat),
            oracles.dilate_dict(oracles.torus_alexander_oracle(*comp), w),
        )
        assert satellite_alexander(torus_poly(*pat), torus_poly(*comp), w).as_dict() == expected


class TestAdmissibility:
    def test_trefoil_admissible(self):
        rep = lspace_admissible(TREFOIL)
        assert rep.ok and rep == AdmissibilityReport("admissible", ())

    def test_square_fails_magnitude(self):
        rep = lspace_admissible(TREFOIL * TREFOIL)
        assert not rep.ok
        assert rep == AdmissibilityReport("fails_magnitude", ((1, -2),))

    def test_positional_scan_order(self):
        # same-sign pair at (5,4) sits above the magnitude hit at 3, so the
        # scan must report alternation first
        f = torus_poly(5, 3) * TREFOIL.dilate(2)
        rep = lspace_admissible(f)
        assert rep == AdmissibilityReport("fails_alternation", ((5, -1), (4, -1)))

    def test_fails_top_two(self):
        f = LaurentPoly({2: 1, 0: -1, -2: 1})
        rep = lspace_admissible(f)
        assert rep == AdmissibilityReport("fails_top_two", ((2, 1), (1, 0)))

    def test_same_sign_top_pair(self):
        f = LaurentPoly({1: 1, 0: 1, -1: 1})
        assert lspace_admissible(f).verdict == "fails_alternation"

    def test_constant_one_admissible(self):
        assert lspace_admissible(LaurentPoly({0: 1})).ok

    def test_rejects_unsymmetrized(self):
        with pytest.raises(ValueError):
            lspace_admissible(LaurentPoly({1: 1}))
        with pytest.raises(ValueError):
            lspace_admissible(LaurentPoly({}))

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=-3, max_value=3),
            max_size=7,
        )
    )
    @settings(max_examples=300)
    def test_verdict_matches_boolean_oracle(self, half):
        # build a symmetric polynomial from a random positive half
        coeffs = dict(half)
        for e, c in half.items():
            if e > 0:
                coeffs[-e] = c
        coeffs = {e: c for e, c in coeffs.items() if c}
        if not coeffs or sum(coeffs.values()) <= 0:
            return
        f = LaurentPoly(coeffs)
        ok = lspace_admissible(f).ok
        assert ok == oracles.admissible_bool(coeffs)
        h = f.span()[1]
        if ok and h >= 1:
            # winding_violation reads a companion of genus h as t^h - t^(h-1)
            assert f.coefficient(h) == 1 and f.coefficient(h - 1) == -1

    def test_admissible_top_two_exhaustive(self):
        # every palindrome with coefficients in {-1, 0, 1} up to genus 5
        from itertools import product

        seen = 0
        for half in product((-1, 0, 1), repeat=6):
            coeffs = {e: c for e, c in enumerate(half) if c}
            coeffs.update({-e: c for e, c in coeffs.items()})
            if not coeffs or sum(coeffs.values()) <= 0:
                continue
            f = LaurentPoly(coeffs)
            h = f.span()[1]
            if h >= 1 and lspace_admissible(f).ok:
                assert f.coefficient(h) == 1 and f.coefficient(h - 1) == -1, coeffs
                seen += 1
        assert seen >= 10


class TestWindingViolation:
    def test_magnitude_case_golden(self):
        v = winding_violation(7, 2, 3, 1)
        assert v == AdmissibilityReport("fails_magnitude", ((3, -2),))

    def test_same_sign_case_golden(self):
        v = winding_violation(5, 3, 2, 1)
        assert v == AdmissibilityReport("fails_alternation", ((5, -1), (4, -1)))

    def test_multiple_of_b_no_violation(self):
        # b | w leaves no residue witness to certify: winding_violation
        # refuses, and the full product is indeed admissible
        for a, b, w in [(7, 2, 2), (5, 2, 4), (7, 3, 3)]:
            with pytest.raises(ValueError, match="no residue witness"):
                winding_violation(a, b, w, 1)
            assert lspace_admissible(satellite_alexander(torus_poly(a, b), TREFOIL, w)).ok, (a, b, w)

    def test_w_equals_one(self):
        v = winding_violation(3, 2, 1, 1)
        assert v.verdict == "fails_magnitude"
        assert v.witness[0][0] == genus(TorusKnotSpec(3, 2)) + 1 - 1

    def test_witness_against_dense_product(self):
        # witness values must be actual coefficients of the product, for
        # every pattern T(a, b) with a <= 12 and every w with w % b != 0
        seen = 0
        companions = [
            (comp, torus_poly(*comp), oracles.torus_alexander_oracle(*comp))
            for comp in [(3, 2), (5, 2), (4, 3), (5, 3)]
        ]
        # admissible companions that are no torus knot's: the (2, 3)-cable of
        # the trefoil, the (-2, 3, 7) pretzel, and a genus-4 palindrome whose
        # terms below the top two sit far from them
        for dense in [
            {3: 1, 2: -1, 0: 1, -2: -1, -3: 1},
            {5: 1, 4: -1, 2: 1, 1: -1, 0: 1, -1: -1, -2: 1, -4: -1, -5: 1},
            {4: 1, 3: -1, 0: 1, -3: -1, -4: 1},
        ]:
            companions.append((dense, LaurentPoly(dense), dense))
        for comp, companion, comp_dense in companions:
            # the witness reads the companion only through its genus
            h = check_companion(companion)
            for a, b in oracles.coprime_pairs(12):
                pattern_dense = oracles.torus_alexander_oracle(a, b)
                for w in range(1, a):
                    if w % b == 0:
                        continue
                    v = winding_violation(a, b, w, h)
                    product = oracles.mul_dicts(
                        pattern_dense, oracles.dilate_dict(comp_dense, w)
                    )
                    where = (a, b, w, comp)
                    assert all(product[e] == c for e, c in v.witness), where
                    if w % b == 1:
                        assert v.verdict == "fails_magnitude", where
                        ((_, c),) = v.witness
                        assert abs(c) == 2, where
                    else:
                        assert v.verdict == "fails_alternation", where
                        (e1, c1), (e2, c2) = v.witness
                        assert c1 * c2 > 0, where
                        assert all(
                            product.get(e, 0) == 0 for e in range(e2 + 1, e1)
                        ), where
                    seen += 1
        assert seen > 500

    def test_genus_shifts_every_exponent_by_w(self):
        # the identity sweep obstruct relies on: genus h is genus 1 with each
        # witness exponent raised by (h - 1)w, verdict and coefficients kept
        seen = 0
        for a, b in oracles.coprime_pairs(29):
            for w in range(1, a):
                if w % b == 0:
                    continue
                base = winding_violation(a, b, w, 1)
                for h in range(1, 12):
                    k = (h - 1) * w
                    shifted = tuple((e + k, c) for e, c in base.witness)
                    assert winding_violation(a, b, w, h) == AdmissibilityReport(
                        base.verdict, shifted
                    ), (a, b, w, h)
                    seen += 1
        assert seen == 45_485  # 4,135 (a, b, w) rows, 11 genera each

    @pytest.mark.parametrize(
        "a,b,w,e,match",
        [
            (7, 2, 3, 3, "magnitude 2"),  # r == 1: the magnitude witness
            (5, 3, 2, 5, "same-sign"),  # r >= 2: the higher witness e1
            (5, 3, 2, 4, "same-sign"),  # r >= 2: the lower witness e2
            (7, 4, 3, 10, "strictly between"),  # r >= 2: the gap scan
        ],
    )
    def test_perturbed_pattern_raises(self, monkeypatch, a, b, w, e, match):
        # The witness reads the pattern only through torusknot's
        # _form_coefficient (torus_coefficient on a precomputed closed form).
        # Adding 1 to the pattern's coefficient at e - w adds 1 to the
        # product's coefficient at e (a genus-1 companion's top term is +t) and moves no
        # other exponent of the window [top - w, top], so the witness
        # computed from the terms must disagree with the prediction.
        assert winding_violation(a, b, w, 1).verdict == expected_verdict(b, w)
        real = satellite._form_coefficient
        reads = []

        def perturbed(form, x):
            reads.append(x)
            return real(form, x) + (x == e - w)

        monkeypatch.setattr(satellite, "_form_coefficient", perturbed)
        with pytest.raises(PredictionMismatch, match=match):
            winding_violation(a, b, w, 1)
        assert e - w in reads

    def test_closed_form_computed_once_per_call(self, monkeypatch):
        real = satellite._closed_form
        forms = []

        def counted(p, q):
            forms.append((p, q))
            return real(p, q)

        monkeypatch.setattr(satellite, "_closed_form", counted)
        # r >= 2 reads both witnesses and every exponent between them
        assert winding_violation(7, 4, 3, 1).verdict == "fails_alternation"
        assert forms == [(7, 4)]

    def test_witness_never_builds_the_pattern(self, monkeypatch):
        # witnesses read pattern coefficients in O(1); w mod b == 0 is
        # refused without building alexander(T(a, b)) either
        def refuse(k):
            raise AssertionError(f"built {k}")

        monkeypatch.setattr(satellite, "alexander", refuse)
        for a, b, w in [(7, 2, 3), (5, 3, 2), (7, 4, 3)]:
            assert winding_violation(a, b, w, 1).verdict == expected_verdict(b, w)
        # a pattern far past alexander's MAX_TERMS costs what a small one does
        v = winding_violation(100003, 100002, 5, 1)
        g = 100002 * 100001 // 2
        assert v.verdict == "fails_alternation"
        assert [e for e, _ in v.witness] == [g + 5 - 1, g + 5 - 5]
        with pytest.raises(ValueError, match="no residue witness"):
            winding_violation(7, 2, 2, 1)

    @pytest.mark.parametrize(
        "a,b,w",
        [(2, 2, 1), (6, 3, 1), (3, 5, 1), (5, 2, 5), (5, 2, 0), (5, 2, -1)],
    )
    def test_rejects_bad_parameters(self, a, b, w):
        with pytest.raises(ValueError):
            winding_violation(a, b, w, 1)

    def test_rejects_inadmissible_companion(self):
        with pytest.raises(ValueError, match="must be admissible, but it fails_magnitude"):
            check_companion(TREFOIL * TREFOIL)
        with pytest.raises(ValueError, match="must be admissible"):
            torus_satellite_obstruction(8, 3, 2, TREFOIL * TREFOIL)

    def test_rejects_genus_zero_companion(self):
        with pytest.raises(ValueError, match="^companion genus must be >= 1$"):
            check_companion(LaurentPoly({0: 1}))
        with pytest.raises(ValueError, match="^companion genus must be >= 1$"):
            torus_satellite_obstruction(9, 2, 3, LaurentPoly({0: 1}))

    @pytest.mark.parametrize("h", [0, -3, 2.5, True])
    def test_rejects_bad_genus(self, h):
        # no witness for a genus that no admissible companion has
        with pytest.raises(ValueError, match=r"^companion genus must be an integer >= 1, got "):
            winding_violation(7, 2, 3, h)


class TestObstruction:
    def test_obstructed_goldens(self):
        r = torus_satellite_obstruction(3, 2, 1, TREFOIL)
        assert r == AdmissibilityReport("fails_magnitude", ((1, -2),))

        r = torus_satellite_obstruction(8, 3, 2, TREFOIL)
        assert r == AdmissibilityReport("fails_alternation", ((8, -1), (7, -1)))

        r = torus_satellite_obstruction(9, 2, 3, TREFOIL)
        assert r == AdmissibilityReport("fails_magnitude", ((4, -2),))

    def test_precondition_rejects(self):
        with pytest.raises(ValueError):
            torus_satellite_obstruction(7, 2, 3, TREFOIL)
        with pytest.raises(ValueError):
            torus_satellite_obstruction(5, 2, 2, TREFOIL)
        # a float winding number or pattern parameter, even an integral one
        with pytest.raises(ValueError, match="^winding number must be an integer >= 1, got 3.0$"):
            torus_satellite_obstruction(9, 2, 3.0, TREFOIL)
        with pytest.raises(ValueError, match="^pattern parameters must be integers, got 9.0$"):
            torus_satellite_obstruction(9.0, 2, 3, TREFOIL)

    def test_rejects_inadmissible_companion(self):
        with pytest.raises(ValueError, match="must be admissible"):
            torus_satellite_obstruction(9, 2, 3, TREFOIL * TREFOIL)

    def test_full_sweep_never_not_obstructed(self):
        seen = 0
        for a, b in oracles.coprime_pairs(15):
            for w in range(1, a):
                if (a * b) % (w * w):
                    continue
                # the arithmetic that leaves no impossible configuration
                assert w < a and w % b, (a, b, w)
                r = torus_satellite_obstruction(a, b, w, TREFOIL)
                assert r.verdict == expected_verdict(b, w), (a, b, w, r)
                seen += 1
        assert seen > 20


class TestScanAgreement:
    def test_prediction_mismatch_is_exported(self):
        assert issubclass(PredictionMismatch, RuntimeError)
