"""Closed-form eigenvalue-variety generators for torus knots.

These give an exactly known ground-truth corpus for the whole pipeline: the
A-polynomial of the (p, q)-torus knot factors as (l-1)(lm^{pq}+1), with an
extra factor (lm^{pq}-1) when neither parameter is 2, and the squared-
eigenvalue variant is (L-1)(LM^{pq}-1).  The squarefree locus of
A(l, m) A(-l, m) under l^2 -> L, m^2 -> M recovers the latter, which
``verify_psl2_relation`` checks factor by factor.

Parameters are normalised to positive p, q; mirrored knots differ by
inverting the meridian eigenvalue, which flips slope signs, and no attempt
is made to hide that convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactgeom import int_entries
from .laurent import FactorList, LaurentPolynomial
from .slopes import detect_boundary_coordinates
from .sphdual import spherical_dual

SL2_VARIABLES = ("m", "l")
PSL2_VARIABLES = ("M", "L")


@dataclass(frozen=True)
class TorusKnotParams:
    """Coprime parameters of a nontrivial torus knot, stored positive."""

    p: int
    q: int

    def __post_init__(self):
        p, q = int_entries((self.p, self.q), "torus knot")
        object.__setattr__(self, "p", abs(p))
        object.__setattr__(self, "q", abs(q))
        if self.p < 2 or self.q < 2:
            raise ValueError(f"({self.p}, {self.q}) is not a nontrivial torus knot")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"parameters must be coprime, got ({self.p}, {self.q})")

    @property
    def pq(self) -> int:
        return self.p * self.q


def _factor(terms: dict, variables=SL2_VARIABLES) -> LaurentPolynomial:
    return LaurentPolynomial(variables, terms)


def a_polynomial(knot: TorusKnotParams) -> FactorList:
    """Factored A-polynomial over (m, l).

    (l-1)(lm^{pq}+1) when p or q is 2, otherwise with the extra factor
    (lm^{pq}-1).
    """
    pq = knot.pq
    l_minus_1 = _factor({(0, 1): 1, (0, 0): -1})
    lm_plus = _factor({(pq, 1): 1, (0, 0): 1})
    factors = [l_minus_1, lm_plus]
    if knot.p != 2 and knot.q != 2:
        factors.append(_factor({(pq, 1): 1, (0, 0): -1}))
    return FactorList(factors)


def a_bar_polynomial(knot: TorusKnotParams) -> FactorList:
    """Factored squared-eigenvalue generator (L-1)(LM^{pq}-1) over (M, L)."""
    pq = knot.pq
    return FactorList(
        [
            _factor({(0, 1): 1, (0, 0): -1}, PSL2_VARIABLES),
            _factor({(pq, 1): 1, (0, 0): -1}, PSL2_VARIABLES),
        ]
    )


def verify_psl2_relation(knot: TorusKnotParams) -> bool:
    """Squarefree locus of A(l,m)A(-l,m) under squares equals the (L, M) form.

    Each factor is paired with its l-negated partner, the pair product (even
    in both variables) has its squares substituted, and the resulting factor
    list deduplicated under unit-normal form is compared with
    ``a_bar_polynomial``.
    """
    paired = [
        (poly * poly.negate_variable("l")).substitute_square(PSL2_VARIABLES)
        for poly in a_polynomial(knot)
    ]
    left = FactorList(paired).deduplicated()
    right = a_bar_polynomial(knot).deduplicated()
    return left == right


def detected_slopes(knot: TorusKnotParams) -> set[Fraction]:
    """Slope set of the expanded A-polynomial through the full pipeline,
    enumerated at height pq, which covers every ray of the dual."""
    expanded = a_polynomial(knot).expand()
    dual = spherical_dual(expanded)
    coordinates = detect_boundary_coordinates(dual, knot.pq)
    return {c.slope() for c in coordinates}
