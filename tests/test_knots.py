from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from conftest import load_bench_module, primitive_vectors_py, support_max_twice
from loglimset.knots import (
    TorusKnotParams,
    a_bar_polynomial,
    a_polynomial,
    detected_slopes,
    verify_psl2_relation,
)
from loglimset.laurent import parse
from loglimset.slopes import detect_boundary_coordinates
from loglimset.sphdual import contains, rational_points, spherical_dual, union

COPRIME_PAIRS = [(p, q) for p in range(2, 8) for q in range(p + 1, 8) if gcd(p, q) == 1]


class TestParams:
    def test_normalised_to_positive(self):
        k = TorusKnotParams(-2, 3)
        assert (k.p, k.q) == (2, 3)
        assert k.pq == 6
        assert TorusKnotParams(np.int64(2), np.int64(-3)) == k

    def test_rejects_trivial_and_non_coprime(self):
        with pytest.raises(ValueError):
            TorusKnotParams(1, 5)
        with pytest.raises(ValueError):
            TorusKnotParams(2, 4)
        with pytest.raises(ValueError):
            TorusKnotParams(0, 3)

    @pytest.mark.parametrize("p, q", [(2.5, 3), (2, 3.0), (Fraction(5, 2), 7)])
    def test_parameters_must_be_integers(self, p, q):
        with pytest.raises(ValueError, match="non-integer"):
            TorusKnotParams(p, q)


class TestAPolynomial:
    def test_2_3(self):
        fl = a_polynomial(TorusKnotParams(2, 3))
        assert fl.expand() == parse("(l-1)*(l*m^6+1)", ("m", "l"))
        assert len(fl) == 2

    def test_3_4_has_third_factor(self):
        fl = a_polynomial(TorusKnotParams(3, 4))
        assert len(fl) == 3
        assert fl.expand() == parse("(l-1)*(l*m^12+1)*(l*m^12-1)", ("m", "l"))

    def test_2_5(self):
        fl = a_polynomial(TorusKnotParams(2, 5))
        assert fl.expand() == parse("(l-1)*(l*m^10+1)", ("m", "l"))


class TestABarPolynomial:
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (3, 4)])
    def test_examples(self, p, q):
        fl = a_bar_polynomial(TorusKnotParams(p, q))
        assert fl.expand() == parse(f"(L-1)*(L*M^{p*q}-1)", ("M", "L"))


class TestPsl2Relation:
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (2, 7)])
    def test_examples(self, p, q):
        assert verify_psl2_relation(TorusKnotParams(p, q))

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (2, 7), (4, 5)])
    def test_exact_polynomial_identity(self, p, q):
        # independent route: the fully expanded product A(l,m) A(-l,m) with
        # squares substituted equals the (L, M) form times the repeated
        # factor, up to the sign (-1)^(number of paired factors)
        knot = TorusKnotParams(p, q)
        a = a_polynomial(knot).expand()
        product = (a * a.negate_variable("l")).substitute_square(("M", "L"))
        bar = a_bar_polynomial(knot).expand()
        if min(p, q) == 2:
            assert product == bar
        else:
            extra = parse(f"L*M^{p*q}-1", ("M", "L"))
            assert product == -1 * (bar * extra)


class TestDetectedSlopes:
    @pytest.mark.parametrize(
        "p,q,expected", [(2, 3, {0, 6}), (3, 4, {0, 12}), (2, 5, {0, 10})]
    )
    def test_examples(self, p, q, expected):
        assert detected_slopes(TorusKnotParams(p, q)) == {Fraction(s) for s in expected}

    def test_longitude_factor_contribution(self):
        # the reducible-representation factor contributes exactly the class [0, 1]
        dual = spherical_dual(parse("l-1", ("m", "l")))
        assert {c.entries for c in detect_boundary_coordinates(dual, 8)} == {(0, 1)}

    def test_product_dual_is_union_of_factor_duals(self):
        knot = TorusKnotParams(3, 4)
        product_dual = spherical_dual(a_polynomial(knot).expand())
        factor_union = None
        for poly in a_polynomial(knot):
            dual = spherical_dual(poly)
            factor_union = dual if factor_union is None else union(factor_union, dual)
        for xi in primitive_vectors_py(2, 8):
            assert contains(product_dual, xi) == contains(factor_union, xi)


class TestBoundaryClassesAgainstSupportOracle:
    """Each benchmark torus knot at height pq: the directions and boundary classes
    read off the cells against the direct support test."""

    @pytest.mark.parametrize("build", [a_polynomial, a_bar_polynomial])
    @pytest.mark.parametrize("p,q", COPRIME_PAIRS)
    def test_every_knot(self, p, q, build):
        oracles = load_bench_module("oracles")
        f = build(TorusKnotParams(p, q)).expand()
        support = sorted(f.support())
        directions = tuple(
            xi for xi in primitive_vectors_py(2, p * q) if support_max_twice(support, xi)
        )
        dual = spherical_dual(f)
        assert rational_points(dual, p * q) == directions
        expected = {oracles.canonical_class(oracles.quarter_turn(xi)) for xi in directions}
        found = detect_boundary_coordinates(dual, p * q)
        assert {c.entries for c in found} == expected
