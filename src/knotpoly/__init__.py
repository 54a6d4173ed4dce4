"""Exact computations for torus knots and their satellites.

The package provides integer Laurent polynomial arithmetic, symmetrized
Alexander polynomials of torus and satellite knots, a coefficient-based
obstruction to L-space surgeries on satellites, Newton polygons and
torus knot detection for enhanced A-polynomials, and a numerically
verified peripheral-curve gluing construction for SL(2, C)
representations.
"""

import importlib

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
