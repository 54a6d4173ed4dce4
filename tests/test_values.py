"""The immutable value types: equality, hashing, repr, immutability, copying
and pickling, the same for every one of them."""

import copy
import pickle
from fractions import Fraction
from random import Random

import pytest

from knotpoly import _Frozen, apolygon, laurent, repglue, satellite, torusknot  # noqa: F401
from knotpoly.apolygon import (
    BiPoly,
    ThinnessResult,
    detect_torus_from_apoly,
    newton_polygon,
    thinness,
)
from knotpoly.laurent import LaurentPoly
from knotpoly.repglue import (
    Extension,
    Mat2C,
    PeripheralCase,
    VerifyResult,
    construct_extension,
    sample_instance,
    verify_extension,
)
from knotpoly.satellite import (
    AdmissibilityReport,
    WindingCheck,
    lspace_admissible,
    winding_violation,
)
from knotpoly.torusknot import TorusKnotSpec, alexander

TREFOIL = alexander(TorusKnotSpec(3, 2))
APOLY = BiPoly.parse("1 + M^6*L")
GLUE = sample_instance("diagonal", Random(0))
EXTENSION = construct_extension(GLUE)

# one instance of each value type, built through the public API
ALL = {
    "LaurentPoly": TREFOIL,
    "BiPoly": APOLY,
    "TorusKnotSpec": TorusKnotSpec(2, -3),
    "NewtonPolygon": newton_polygon(BiPoly.parse("1 + M*L + M^2 + L^3")),
    "ThinnessResult": thinness(APOLY),
    "DetectionResult": detect_torus_from_apoly(APOLY),
    "AdmissibilityReport": lspace_admissible(TREFOIL * TREFOIL),
    "WindingCheck": winding_violation(7, 2, 3, 1),
    "Mat2C": Mat2C(1, 2j, -0.5, 4),
    "PeripheralCase": GLUE.case,
    "GlueInstance": GLUE,
    "Extension": EXTENSION,
    "VerifyResult": verify_extension(GLUE, EXTENSION),
}


def fields(value):
    return tuple(getattr(value, name) for name in value.__slots__)


def test_one_instance_per_type():
    for name, value in ALL.items():
        assert type(value).__name__ == name


def test_every_value_type_is_covered():
    # all five submodules are loaded above, so every subclass is defined
    assert sorted(cls.__name__ for cls in _Frozen.__subclasses__()) == sorted(ALL)


# the types that take their fields positionally, through _Frozen.__init__
POSITIONAL = [name for name in ALL if "__init__" not in type(ALL[name]).__dict__]


def test_positional_types():
    assert POSITIONAL == ["NewtonPolygon", "DetectionResult", "Mat2C", "GlueInstance"]


@pytest.mark.parametrize("name", POSITIONAL)
def test_positional_types_take_one_value_per_field(name):
    value = ALL[name]
    cls, values = type(value), fields(value)
    n = len(values)
    with pytest.raises(TypeError, match=f"^{name} takes {n} field values, got {n - 1}$"):
        cls(*values[:-1])
    with pytest.raises(TypeError, match=f"^{name} takes {n} field values, got {n + 1}$"):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(**dict(zip(value.__slots__, values)))


# (type, positional arguments, keywords, every field) for the types that keep a
# signature: the defaults and keywords their callers use
SIGNATURE_CALLS = [
    (PeripheralCase, ("diagonal",), {"alpha": 2j, "beta": 3j},
     ("diagonal", 2j, 3j, 1, 1, 0j, 0j)),
    (PeripheralCase, ("jordan_minus",), {"eps": -1, "eta": 1, "a_off": 1j, "b_off": 2j},
     ("jordan_minus", 0j, 0j, -1, 1, 1j, 2j)),
    (Extension, (Mat2C(1, 0, 0, 1), Mat2C(-1, 0, 0, -1), False, 0), {},
     (Mat2C(1, 0, 0, 1), Mat2C(-1, 0, 0, -1), False, 0, None)),
    (VerifyResult, (True, (0.0, 0.0, 0.0)), {}, (True, (0.0, 0.0, 0.0), None)),
    (VerifyResult, (False, (1.0, 0.0, 0.0)), {"failed_equation": 1},
     (False, (1.0, 0.0, 0.0), 1)),
    (AdmissibilityReport, ("admissible",), {}, ("admissible", None, ())),
    (WindingCheck, ("magnitude_violation",), {"exponent": 4, "coefficient": -2},
     ("magnitude_violation", 4, -2, None, None)),
    (WindingCheck, ("same_sign_violation",), {"exponent_pair": (5, 2), "coefficients": (1, 1)},
     ("same_sign_violation", None, None, (5, 2), (1, 1))),
    (ThinnessResult, ("point",), {}, ("point", None, False)),
    (ThinnessResult, ("thin",), {"slope": Fraction(3, 2)}, ("thin", Fraction(3, 2), False)),
    (ThinnessResult, ("not_thin",), {"infinite_slope": True}, ("not_thin", None, True)),
    (LaurentPoly, (), {}, ({},)),
    (BiPoly, (), {}, ({},)),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, expected",
    SIGNATURE_CALLS,
    ids=[f"{c[0].__name__}-{'-'.join(c[2]) or len(c[1])}" for c in SIGNATURE_CALLS],
)
def test_signatures_keep_their_defaults_and_keywords(cls, args, kwargs, expected):
    value = cls(*args, **kwargs)
    assert fields(value) == expected
    assert value == cls(*expected)


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


@pytest.mark.parametrize("name", list(ALL))
class TestContract:
    def test_equal_fields_are_equal_and_hash_alike(self, name):
        value = ALL[name]
        again = type(value)(*fields(value))
        assert again is not value
        assert again == value and not again != value
        assert hash(again) == hash(value)

    def test_not_equal_to_its_fields(self, name):
        value = ALL[name]
        assert value != fields(value)
        assert fields(value) != value

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        value = ALL[name]
        for field in value.__slots__:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert fields(value) == fields(copy.copy(value))

    def test_repr_names_each_field(self, name):
        value = ALL[name]
        shown = ", ".join(f"{field}={getattr(value, field)!r}" for field in value.__slots__)
        assert repr(value) == f"{name}({shown})"


def test_repr_literals():
    assert repr(ALL["TorusKnotSpec"]) == "TorusKnotSpec(a=-3, b=2)"
    assert repr(LaurentPoly({-1: 1, 0: -1, 1: 1})) == "LaurentPoly(_terms={-1: 1, 0: -1, 1: 1})"
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
