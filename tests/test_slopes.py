import json
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import load_bench_module, random_laurent, split_link_generators
from loglimset.exactgeom import LinearSystem
from loglimset.laurent import parse
from loglimset.loglim import loglim_outer
from loglimset.slopes import (
    BoundaryCurveCoordinate,
    apply_T,
    canonicalize,
    detect_boundary_coordinates,
    format_slope,
    sort_slopes,
)
from loglimset.sphdual import SphericalComplex, rational_points, spherical_dual


class TestApplyT:
    def test_single_pair(self):
        assert apply_T((3, 5), 1) == (5, -3)
        assert apply_T((1, 0), 1) == (0, -1)
        assert apply_T(np.array([3, 5]), 1) == (5, -3)

    def test_blockwise(self):
        assert apply_T((0, 1, 0, -1), 2) == (1, 0, -1, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_T((1, 0, 0), 1)

    @pytest.mark.parametrize("xi", [(0.5, 2.9), (Fraction(7, 2), 1), (2.0, 1)])
    def test_entries_must_be_integers(self, xi):
        with pytest.raises(ValueError, match="non-integer"):
            apply_T(xi, 1)

    def test_fourth_power_is_identity(self):
        rng = random.Random(3)
        for _ in range(20):
            h = rng.choice((1, 2, 3))
            xi = tuple(rng.randint(-9, 9) for _ in range(2 * h))
            out = xi
            for _ in range(4):
                out = apply_T(out, h)
            assert out == xi


class TestCanonicalize:
    def test_examples(self):
        assert canonicalize((-6, -1)).entries == (6, 1)
        assert canonicalize((2, 0, -4, 2)).entries == (1, 0, 2, -1)
        # gcd division comes first, then the pair flip
        assert canonicalize((0, -3)).entries == (0, 1)
        assert canonicalize((0, 3)).entries == (0, 1)
        assert canonicalize(np.array([-6, -1])).entries == (6, 1)

    def test_idempotent(self):
        rng = random.Random(9)
        for _ in range(50):
            h = rng.choice((1, 2))
            vec = [0] * (2 * h)
            while not any(vec):
                vec = [rng.randint(-6, 6) for _ in range(2 * h)]
            once = canonicalize(vec)
            assert canonicalize(once.entries) == once

    def test_constant_on_pair_flip_orbits(self):
        rng = random.Random(10)
        for _ in range(50):
            h = rng.choice((1, 2, 3))
            vec = [0] * (2 * h)
            while not any(vec):
                vec = [rng.randint(-6, 6) for _ in range(2 * h)]
            base = canonicalize(vec)
            flipped = list(vec)
            for i in range(h):
                if rng.random() < 0.5:
                    flipped[2 * i] = -flipped[2 * i]
                    flipped[2 * i + 1] = -flipped[2 * i + 1]
            assert canonicalize(flipped) == base

    def test_rejects_zero_and_odd_length(self):
        with pytest.raises(ValueError):
            canonicalize((0, 0))
        with pytest.raises(ValueError):
            canonicalize((1, 2, 3))

    @pytest.mark.parametrize("vector", [(2.5, -1.2), (Fraction(1, 2), 1), (2, -1.0)])
    def test_entries_must_be_integers(self, vector):
        with pytest.raises(ValueError, match="non-integer"):
            canonicalize(vector)


class TestDetection:
    def test_trefoil_polynomial(self):
        c = spherical_dual(parse("(l-1)*(l*m^6+1)", ("m", "l")))
        found = detect_boundary_coordinates(c, 8)
        assert {b.entries for b in found} == {(0, 1), (6, 1)}

    def test_empty_complex(self):
        assert detect_boundary_coordinates(SphericalComplex.empty(2), 8) == set()

    def test_longitude_factor_gives_slope_zero(self):
        c = spherical_dual(parse("l-1", ("m", "l")))
        found = detect_boundary_coordinates(c, 8)
        assert {b.entries for b in found} == {(0, 1)}
        assert {b.slope() for b in found} == {Fraction(0)}

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            detect_boundary_coordinates(SphericalComplex.empty(3), 4)

    def test_detection_invariant_under_pair_inversion(self):
        # inverting an eigenvalue pair mirrors the limit set; detected classes agree
        f = parse("(l-1)*(l*m^6+1)", ("m", "l"))
        support = f.support()
        mirrored_terms = {(-e[0], -e[1]): c for (e, c) in f.terms.items()}
        g = type(f)(("m", "l"), mirrored_terms)
        assert detect_boundary_coordinates(
            spherical_dual(f), 8
        ) == detect_boundary_coordinates(spherical_dual(g), 8)
        assert support  # sanity


class TestArrayClasses:
    """The classes computed as arrays against the per-vector API."""

    @staticmethod
    def reference(c, height):
        return {canonicalize(apply_T(xi, c.dim // 2)) for xi in rational_points(c, height)}

    def test_matches_per_vector_reference(self):
        rng = random.Random(19)
        names = ("m1", "l1", "m2", "l2", "m3", "l3")
        for m in (2, 4, 6):
            for height in (1, 2, 3, 4):
                duals = [spherical_dual(random_laurent(rng, names[:m], max_terms=5, exp_lo=-2, exp_hi=2))]
                if m < 6 or height <= 2:
                    duals.append(SphericalComplex.full(m))
                for c in duals:
                    found = detect_boundary_coordinates(c, height)
                    assert found == self.reference(c, height), (m, height)
                    assert all(type(x) is int for b in found for x in b.entries)
                    json.dumps(sorted(list(b.entries) for b in found))

    def test_zero_pairs(self):
        # the plane m1 = l1 = 0: every direction has a zero first pair
        plane = SphericalComplex(4, cells=[LinearSystem.make(4, [(1, 0, 0, 0), (0, 1, 0, 0)], [])])
        found = detect_boundary_coordinates(plane, 3)
        assert found == self.reference(plane, 3)
        assert BoundaryCurveCoordinate((0, 0, 2, 1)) in found  # (0, 0, 1, -2) turned
        assert all(b.entries[:2] == (0, 0) for b in found)
        assert canonicalize(apply_T((0, 0, 1, -2), 2)) in detect_boundary_coordinates(SphericalComplex.full(4), 2)


class TestTwoCuspGroundTruth:
    """Split links of two torus knots: the limit set of (A_K1, A_K2) is the
    product (C1 u 0) x (C2 u 0) minus 0, whose classes the benchmark's
    oracle lists in closed form, independently of the library."""

    @pytest.mark.parametrize(
        "knots",
        [((2, 3), (2, 3)), ((2, 3), (3, 4)), ((2, 5), (3, 7)), ((3, 5), (2, 7)), ((4, 5), (5, 6)), ((6, 7), (2, 3))],
    )
    def test_classes_match_closed_form(self, knots):
        found = detect_boundary_coordinates(loglim_outer(split_link_generators(*knots)), 12)
        assert sorted(b.entries for b in found) == load_bench_module("oracles").link_classes(knots, 12)


class TestSlopeReading:
    def test_examples(self):
        assert BoundaryCurveCoordinate((6, 1)).slope() == Fraction(6)
        assert BoundaryCurveCoordinate((0, 1)).slope() == Fraction(0)
        assert BoundaryCurveCoordinate((1, 0)).slope() is None

    def test_only_single_torus(self):
        with pytest.raises(ValueError):
            BoundaryCurveCoordinate((1, 0, 0, 1)).slope()

    def test_format_and_sort(self):
        slopes = [None, Fraction(6), Fraction(0), Fraction(-1, 2)]
        assert sort_slopes(slopes) == [Fraction(-1, 2), Fraction(0), Fraction(6), None]
        assert [format_slope(s) for s in sort_slopes(slopes)] == ["-1/2", "0", "6", "inf"]


class TestConventions:
    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            BoundaryCurveCoordinate(())
        with pytest.raises(ValueError):
            BoundaryCurveCoordinate((0, 0))
