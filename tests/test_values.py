"""The immutable value types: equality, hashing, repr, immutability, copying
and pickling, the same for every one of them."""

import copy
import pickle
from random import Random

import pytest

from knotpoly.apolygon import BiPoly, detect_torus_from_apoly, newton_polygon, thinness
from knotpoly.laurent import LaurentPoly
from knotpoly.repglue import (
    Extension,
    Mat2C,
    construct_extension,
    sample_instance,
    verify_extension,
)
from knotpoly.satellite import (
    check_companion,
    lspace_admissible,
    winding_violation,
)
from knotpoly.torusknot import TorusKnotSpec, alexander

TREFOIL = alexander(TorusKnotSpec(3, 2))
APOLY = BiPoly.parse("1 + M^6*L")
GLUE = sample_instance("diagonal", Random(0))
EXTENSION = construct_extension(GLUE)

# one instance of each value type, built through the public API
VALUES = {
    "TorusKnotSpec": TorusKnotSpec(2, -3),
    "NewtonPolygon": newton_polygon(BiPoly.parse("1 + M*L + M^2 + L^3")),
    "ThinnessResult": thinness(APOLY),
    "DetectionResult": detect_torus_from_apoly(APOLY),
    "AdmissibilityReport": lspace_admissible(TREFOIL * TREFOIL),
    "WindingCheck": winding_violation(7, 2, 3, TREFOIL),
    "CheckedCompanion": check_companion(TREFOIL),
    "Mat2C": Mat2C(1, 2j, -0.5, 4),
    "PeripheralCase": GLUE.case,
    "GlueInstance": GLUE,
    "Extension": EXTENSION,
    "VerifyResult": verify_extension(GLUE, EXTENSION),
}
ALL = {"LaurentPoly": TREFOIL, "BiPoly": APOLY, **VALUES}


def fields(value):
    return tuple(getattr(value, name) for name in value.__slots__)


def test_one_instance_per_type():
    for name, value in ALL.items():
        assert type(value).__name__ == name


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("name", list(ALL))
def test_copy_and_pickle_round_trip(name, round_trip):
    value = ALL[name]
    got = round_trip(value)
    assert type(got) is type(value)
    assert got == value
    assert hash(got) == hash(value)


@pytest.mark.parametrize("name", list(VALUES))
class TestContract:
    def test_equal_fields_are_equal_and_hash_alike(self, name):
        value = VALUES[name]
        again = type(value)(*fields(value))
        assert again is not value
        assert again == value and not again != value
        assert hash(again) == hash(value)

    def test_not_equal_to_its_fields(self, name):
        value = VALUES[name]
        assert value != fields(value)
        assert fields(value) != value

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        value = VALUES[name]
        for field in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert fields(value) == fields(copy.copy(value))

    def test_repr_names_each_field(self, name):
        value = VALUES[name]
        shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in value.__slots__)
        assert repr(value) == f"{name}({shown})"


def test_repr_literals():
    assert repr(VALUES["TorusKnotSpec"]) == "TorusKnotSpec(a=-3, b=2)"
    assert repr(VALUES["CheckedCompanion"]) == "CheckedCompanion(genus=1)"
    assert repr(Mat2C(1, 0, 0, 1)) == "Mat2C(a=1, b=0, c=0, d=1)"


def test_a_changed_field_breaks_equality():
    m = Mat2C(1, 2, 3, 4)
    assert m != Mat2C(1, 2, 3, 5)
    assert TorusKnotSpec(3, 2) != TorusKnotSpec(-3, 2)


def test_extension_equality_ignores_polar():
    e = EXTENSION
    assert e.polar is not None
    bare = Extension(e.mu_p, e.lam_p, e.central_twist_used, e.chosen_k)
    assert bare.polar is None
    assert bare == e and hash(bare) == hash(e)
    other = Extension(e.mu_p, e.lam_p, e.central_twist_used, e.chosen_k, {"k": -1})
    assert other == e and hash(other) == hash(e)
    assert Extension(e.mu_p, e.lam_p, not e.central_twist_used, e.chosen_k) != e
