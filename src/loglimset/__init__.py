"""Logarithmic limit sets of Laurent-polynomial varieties.

Exact computation of spherical duals of Newton polytopes (the limit set of
a hypersurface), outer approximations for finitely generated ideals, and
translation of rational limit directions into projectivised boundary-curve
coordinates of multi-cusped 3-manifolds, validated against the closed-form
torus-knot eigenvalue polynomials.
"""

from .exactgeom import LinearSystem, cone_dimension, interior_point
from .knots import TorusKnotParams, a_bar_polynomial, a_polynomial, detected_slopes, verify_psl2_relation
from .laurent import FactorList, LaurentPolynomial, ParseError, parse, unit_normal
from .loglim import SampleParams, SamplePoint, loglim_outer, sample_loglim
from .polytope import LatticePolytope, minkowski_sum, newton_polytope
from .slopes import BoundaryCurveCoordinate, apply_T, canonicalize, detect_boundary_coordinates
from .sphdual import (
    SphericalComplex,
    contains,
    intersect,
    max_cell_dimension,
    pair_cone,
    rational_points,
    spherical_dual,
    union,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCurveCoordinate",
    "FactorList",
    "LatticePolytope",
    "LaurentPolynomial",
    "LinearSystem",
    "ParseError",
    "SampleParams",
    "SamplePoint",
    "SphericalComplex",
    "TorusKnotParams",
    "a_bar_polynomial",
    "a_polynomial",
    "apply_T",
    "canonicalize",
    "cone_dimension",
    "contains",
    "detect_boundary_coordinates",
    "detected_slopes",
    "interior_point",
    "intersect",
    "loglim_outer",
    "max_cell_dimension",
    "minkowski_sum",
    "newton_polytope",
    "pair_cone",
    "parse",
    "rational_points",
    "sample_loglim",
    "spherical_dual",
    "union",
    "unit_normal",
    "verify_psl2_relation",
]
