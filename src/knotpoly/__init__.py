"""Exact computations for torus knots and their satellites.

The package provides integer Laurent polynomial arithmetic, symmetrized
Alexander polynomials of torus and satellite knots, a coefficient-based
obstruction to L-space surgeries on satellites, Newton polygons and
torus knot detection for enhanced A-polynomials, and a numerically
verified peripheral-curve gluing construction for SL(2, C)
representations.
"""

import importlib
import re
from collections.abc import Callable

# A name lives here when two submodules need it and neither should load the
# other for it: every submodule import loads the package first.
CASE_KINDS = ("diagonal", "jordan_plus", "jordan_minus")  # repglue's, and the CLI's choices
DEFAULT_TOL = 1e-9


class PredictionMismatch(RuntimeError):
    """A coefficient the residue analysis predicts was absent from the
    actual product; indicates a bug, never expected on valid inputs."""


class _Frozen:
    """Base of the immutable value types: a subclass lists its fields in __slots__,
    and _Frozen.__init__(self, *values) is the one place that sets them, one value
    per field in __slots__ order, each through its slot descriptor's __set__ (bound
    once per class in _setters).  A subclass keeps its own __init__ only for checks
    (LaurentPoly, BiPoly and TorusKnotSpec check or canonicalize their input) and
    ends it with that call; every other value takes its fields positionally.
    Equality (same class, equal _compared fields, all by default), hash, repr,
    copy and pickle read the fields.
    LaurentPoly and BiPoly supply their own __hash__, since their one field is a dict."""

    __slots__ = ()
    _compared: tuple[str, ...] | None = None

    def __init_subclass__(cls):
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(
                f"{type(self).__name__} takes {len(setters)} field values, got {len(values)}"
            )
        for set_field, value in zip(setters, values):
            set_field(self, value)

    def _values(self, names: tuple[str, ...] | None = None) -> tuple:
        return tuple([getattr(self, name) for name in names or self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self._compared) == other._values(self._compared)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self._compared))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


# The text format of LaurentPoly and BiPoly: a sign starts a term unless it
# follows "^" (a negative exponent)
_TERM_START = re.compile(r"(?<=[^^])(?=[+-])")


def parse_terms(text: str, term: Callable[[str], tuple]) -> dict:
    """Key -> coefficient map of a polynomial's text, whitespace-insensitive:
    term reads one signed term as (key, coefficient), and equal keys add.
    The text ``0`` has no terms."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty polynomial text")
    acc: dict = {}
    if s == "0":
        return acc
    for chunk in _TERM_START.split(s):
        key, c = term(chunk)
        acc[key] = acc.get(key, 0) + c
    return acc


def join_terms(parts: list[str]) -> str:
    """The printed polynomial from its "+ body" / "- body" terms in print
    order: the first keeps only a minus sign, and no terms print as 0."""
    text = " ".join(parts)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


# Each public name, by the submodule that provides it.  The submodules are
# imported on first access (PEP 562), so importing the package, or the
# CLI for one command, loads only what is used.
_EXPORTS = {
    "apolygon": (
        "INFINITE_SLOPE",
        "BiPoly",
        "DetectionResult",
        "NewtonPolygon",
        "ThinnessResult",
        "coprime_factorizations",
        "detect_torus_from_apoly",
        "detect_with_degree",
        "detectability",
        "enhanced_apoly",
        "newton_polygon",
        "thinness",
    ),
    "laurent": ("LaurentPoly", "NonExactDivision", "NotSymmetrizable"),
    "repglue": (
        "Extension",
        "GlueInstance",
        "Mat2C",
        "VerifyResult",
        "choose_k",
        "classify_case",
        "construct_extension",
        "diagonal_polar_data",
        "glue_instance",
        "sample_instance",
        "verify_extension",
    ),
    "satellite": (
        "AdmissibilityReport",
        "check_companion",
        "lspace_admissible",
        "satellite_alexander",
        "torus_satellite_obstruction",
        "winding_violation",
    ),
    "torusknot": (
        "TorusKnotSpec",
        "abelian_slope_family",
        "alexander",
        "genus",
        "leading_form",
        "parse_spec",
        "torus_coefficient",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [*_HOME, "DEFAULT_TOL", "PredictionMismatch", "__version__"]

__version__ = "0.1.0"
