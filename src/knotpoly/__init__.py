"""Exact computations for torus knots and their satellites.

The package provides integer Laurent polynomial arithmetic, symmetrized
Alexander polynomials of torus and satellite knots, a coefficient-based
obstruction to L-space surgeries on satellites, Newton polygons and
torus knot detection for enhanced A-polynomials, and a numerically
verified peripheral-curve gluing construction for SL(2, C)
representations.
"""

import importlib


# The value types' base lives in the package, which every submodule import
# loads first, so a module needs no other submodule for it.
class _Frozen:
    """Base of the immutable value types: a subclass lists its fields in __slots__ and
    sets each once in __init__ with object.__setattr__.  Equality (same class, equal
    _compared fields, all by default), hash, repr, copy and pickle read the fields."""

    __slots__ = ()
    _compared: tuple[str, ...] | None = None

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


# Each public name, by the submodule that defines it.  The submodules are
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
        "newton_polygon",
        "thinness",
    ),
    "laurent": ("LaurentPoly", "NonExactDivision", "NotSymmetrizable"),
    "repglue": (
        "DEFAULT_TOL",
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
        "CheckedCompanion",
        "PredictionMismatch",
        "SatelliteSpec",
        "WindingCheck",
        "check_companion",
        "lspace_admissible",
        "satellite_alexander",
        "satellite_genus",
        "torus_satellite_obstruction",
        "winding_violation",
    ),
    "torusknot": (
        "TorusKnotSpec",
        "abelian_slope_family",
        "alexander",
        "enhanced_apoly",
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


__all__ = [*_HOME, "__version__"]

__version__ = "0.1.0"
