"""The immutable value types: equality, hashing, repr, immutability, copying
and pickling, the same for every one of them."""

import copy
import pickle
from random import Random

import pytest

from knotpoly import _Frozen, apolygon, laurent, repglue, satellite, torusknot  # noqa: F401
from knotpoly.apolygon import (
    INFINITE_SLOPE,
    BiPoly,
    DetectionResult,
    ThinnessResult,
    detect_torus_from_apoly,
    newton_polygon,
    thinness,
)
from knotpoly.laurent import LaurentPoly
from knotpoly.repglue import (
    Extension,
    Mat2C,
    VerifyResult,
    construct_extension,
    sample_instance,
    verify_extension,
)
from knotpoly.satellite import AdmissibilityReport, lspace_admissible
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
    "Mat2C": Mat2C(1, 2j, -0.5, 4),
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
    assert POSITIONAL == [
        "NewtonPolygon",
        "ThinnessResult",
        "DetectionResult",
        "AdmissibilityReport",
        "Mat2C",
        "GlueInstance",
        "Extension",
        "VerifyResult",
    ]


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
# signature, LaurentPoly and BiPoly: the defaults and keywords their callers use
SIGNATURE_CALLS = [
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
    bare = Extension(e.mu_p, e.lam_p, None)
    assert bare.polar is None
    assert bare == e and hash(bare) == hash(e)
    other = Extension(e.mu_p, e.lam_p, {"k": -1})
    assert other == e and hash(other) == hash(e)
    assert Extension(e.mu_p, e.lam_p.scaled(-1), None) != e


def test_verify_ok_is_read_from_failed_equation():
    residuals = (0.0, 2.0, 0.0)
    assert VerifyResult(residuals, None).ok
    for n in (1, 2, 3):
        assert not VerifyResult(residuals, n).ok
    assert "ok" not in VerifyResult.__slots__


def test_thinness_infinite_slope_is_read_from_slope():
    assert ThinnessResult("not_thin", INFINITE_SLOPE).infinite_slope
    assert not ThinnessResult("thin", 6).infinite_slope
    assert not ThinnessResult("not_thin", None).infinite_slope
    assert "infinite_slope" not in ThinnessResult.__slots__


def test_detection_unique_is_read_from_candidates_and_unknot():
    one, two = (TorusKnotSpec(3, 2),), (TorusKnotSpec(10, 3), TorusKnotSpec(6, 5))
    assert DetectionResult((), True).unique
    assert DetectionResult(one, False).unique
    assert not DetectionResult((), False).unique
    assert not DetectionResult(two, False).unique
    assert "unique" not in DetectionResult.__slots__
