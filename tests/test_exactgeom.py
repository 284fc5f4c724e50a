import json
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from conftest import primitive_vectors_py, rref_fraction, solve_nonneg_fraction
from loglimset.exactgeom import (
    LinearSystem,
    cone_contains,
    cone_dimension,
    cone_strict_feasible,
    exact_rank,
    interior_point,
    intersect,
    nullspace_basis,
    primitive_vector,
    rref,
    solve_nonneg,
)


def _as_fractions(result):
    """The x of an integer solve_nonneg result (y, D), as Fractions y / D."""
    if result is None:
        return None
    y, D = result
    assert D > 0 and all(type(v) is int for v in y)
    return [Fraction(v, D) for v in y]


class TestCanonicalisation:
    def test_rows_become_primitive_and_sorted(self):
        s = LinearSystem.make(2, equalities=[(4, -2)], inequalities=[(0, 6), (0, 3)])
        assert s.equalities == ((2, -1),)
        assert s.inequalities == ((0, 1),)

    def test_equality_sign_is_fixed(self):
        a = LinearSystem.make(2, equalities=[(-3, 1)])
        b = LinearSystem.make(2, equalities=[(3, -1)])
        assert a == b
        assert a.equalities[0][0] > 0

    def test_opposite_inequalities_promote_to_equality(self):
        s = LinearSystem.make(2, inequalities=[(1, 0), (-1, 0), (0, 1)])
        assert s.equalities == ((1, 0),)
        assert s.inequalities == ((0, 1),)

    def test_inequalities_reduce_modulo_equalities(self):
        # on the line x = y the rows (1, 0) and (0, 1) agree
        s = LinearSystem.make(2, equalities=[(1, -1)], inequalities=[(1, 0), (0, 1)])
        assert s.inequalities == ((0, 1),)

    def test_zero_rows_dropped(self):
        s = LinearSystem.make(3, equalities=[(0, 0, 0)], inequalities=[(0, 0, 0)])
        assert s.is_trivial()

    def test_row_length_validated(self):
        with pytest.raises(ValueError):
            LinearSystem.make(2, equalities=[(1, 2, 3)])

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.5, 2.0])
    def test_non_integer_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="non-integer"):
            LinearSystem.make(2, equalities=[(1, bad)])
        with pytest.raises(ValueError, match="non-integer"):
            LinearSystem.make(2, inequalities=[(bad, 1)])

    def test_numpy_rows_become_plain_ints(self):
        rows = np.array([[2, -4], [0, 3]], dtype=np.int64)
        s = LinearSystem.make(2, equalities=rows[:1], inequalities=rows[1:])
        assert s == LinearSystem.make(2, equalities=[(1, -2)], inequalities=[(0, 1)])
        assert all(type(x) is int for row in s.equalities + s.inequalities for x in row)
        assert json.loads(json.dumps(s.to_json_dict())) == {"eq": [[1, -2]], "ineq": [[0, 1]]}


class TestConeDimension:
    def test_ray(self):
        s = LinearSystem.make(2, inequalities=[(1, 0), (-1, 0), (0, 1)])
        assert cone_dimension(s) == 1

    def test_zero_cone(self):
        s = LinearSystem.make(2, inequalities=[(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert cone_dimension(s) == 0

    def test_whole_space(self):
        assert cone_dimension(LinearSystem.make(3)) == 3

    def test_halfspace_and_quadrant(self):
        assert cone_dimension(LinearSystem.make(2, inequalities=[(1, 0)])) == 2
        assert cone_dimension(LinearSystem.make(2, inequalities=[(1, 0), (0, 1)])) == 2

    def test_plane_in_space(self):
        assert cone_dimension(LinearSystem.make(3, equalities=[(1, 1, 1)])) == 2


class TestInteriorPoint:
    def test_ray_interior(self):
        s = LinearSystem.make(2, inequalities=[(1, 0), (-1, 0), (0, 1)])
        p = interior_point(s)
        assert p is not None and p[0] == 0 and p[1] > 0

    def test_zero_cone_has_none(self):
        s = LinearSystem.make(2, inequalities=[(1, 0), (-1, 0), (0, 1), (0, -1)])
        assert interior_point(s) is None

    def test_halfplane_interior_is_strict(self):
        s = LinearSystem.make(2, inequalities=[(1, 0)])
        p = interior_point(s)
        assert p is not None and p[0] > 0

    def test_interior_point_satisfies_rows_exactly(self):
        rng = random.Random(5)
        for _ in range(50):
            dim = rng.choice((2, 3))
            n_eq = rng.randint(0, 1)
            n_iq = rng.randint(0, 3)
            s = LinearSystem.make(
                dim,
                equalities=[
                    tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(n_eq)
                ],
                inequalities=[
                    tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(n_iq)
                ],
            )
            p = interior_point(s)
            if p is None:
                assert cone_dimension(s) == 0
            else:
                assert s.satisfied_by(p)
                assert any(p)


class TestIntersect:
    def test_intersection_with_whole_space_is_identity(self):
        s = LinearSystem.make(2, equalities=[(1, -1)], inequalities=[(0, 1)])
        assert intersect(s, LinearSystem.make(2)) == s

    def test_two_lines_meet_in_zero(self):
        a = LinearSystem.make(2, equalities=[(1, 0)])
        b = LinearSystem.make(2, equalities=[(0, 1)])
        assert cone_dimension(intersect(a, b)) == 0

    def test_generic_lines_meet_in_zero(self):
        # oracle: the 2x2 system has nonzero determinant, so only 0 solves it
        rows = [(6, 1), (1, -1)]
        det = Fraction(rows[0][0]) * rows[1][1] - Fraction(rows[0][1]) * rows[1][0]
        assert det != 0
        a = LinearSystem.make(2, equalities=[rows[0]])
        b = LinearSystem.make(2, equalities=[rows[1]])
        assert cone_dimension(intersect(a, b)) == 0

    def test_self_intersection_keeps_dimension(self):
        rng = random.Random(11)
        for _ in range(40):
            dim = rng.choice((2, 3))
            s = LinearSystem.make(
                dim,
                inequalities=[
                    tuple(rng.randint(-1, 1) for _ in range(dim))
                    for _ in range(rng.randint(0, 4))
                ],
            )
            assert cone_dimension(intersect(s, s)) == cone_dimension(s)
            assert intersect(s, s) == s

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            intersect(LinearSystem.make(2), LinearSystem.make(3))


class TestBruteForceOracle:
    def test_dimension_matches_sampled_rank(self):
        # restricted to +-1 rows so every cone is generated at small height
        rng = random.Random(2024)
        for _ in range(120):
            dim = rng.choice((2, 3))
            n_eq = rng.randint(0, 2)
            n_iq = rng.randint(0, 4 - n_eq)
            s = LinearSystem.make(
                dim,
                equalities=[
                    tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(n_eq)
                ],
                inequalities=[
                    tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(n_iq)
                ],
            )
            members = [v for v in primitive_vectors_py(dim, 6) if s.satisfied_by(v)]
            assert cone_dimension(s) == exact_rank(members)


class TestLowLevel:
    def test_primitive_vector(self):
        assert primitive_vector((4, -6)) == (2, -3)
        assert primitive_vector((0, 0)) is None
        rng = random.Random(5)
        for _ in range(200):
            v = tuple(rng.randint(-12, 12) for _ in range(rng.randint(1, 5)))
            # Euclid's algorithm, independent of math.gcd
            g = 0
            for x in v:
                a, b = g, abs(x)
                while b:
                    a, b = b, a % b
                g = a
            assert primitive_vector(v) == (tuple(x // g for x in v) if g else None)

    def test_nullspace_basis(self):
        basis = nullspace_basis([(1, 1, 1)], 3)
        assert len(basis) == 2
        for vec in basis:
            assert sum(vec) == 0

    def test_solve_nonneg_feasible(self):
        # x + y = 2, x - y = 0 has the nonnegative solution (1, 1)
        x = _as_fractions(solve_nonneg([(1, 1), (1, -1)], (2, 0)))
        assert x == [Fraction(1), Fraction(1)]

    def test_solve_nonneg_infeasible(self):
        # x + y = -1 has no nonnegative solution
        assert solve_nonneg([(1, 1)], (-1,)) is None

    def test_cone_strict_feasible(self):
        quadrant = LinearSystem.make(2, inequalities=[(1, 0), (0, 1)])
        assert cone_strict_feasible(quadrant, (1, 1))
        assert not cone_strict_feasible(quadrant, (-1, -1))
        ray = LinearSystem.make(2, equalities=[(1, 0)], inequalities=[(0, 1)])
        assert not cone_strict_feasible(ray, (1, 0))
        assert cone_strict_feasible(ray, (0, 1))

    def test_cone_contains(self):
        quadrant = LinearSystem.make(2, inequalities=[(1, 0), (0, 1)])
        ray = LinearSystem.make(2, equalities=[(1, -1)], inequalities=[(0, 1)])
        half = LinearSystem.make(2, inequalities=[(1, 0)])
        assert cone_contains(ray, quadrant)
        assert cone_contains(quadrant, half)
        assert not cone_contains(quadrant, ray)
        assert not cone_contains(half, quadrant)


def _random_system(rng: random.Random, feasible: bool) -> tuple[list[list[int]], list[int]]:
    """m 1-7 rows, n 1-30 columns; sparse rows often give crash-basis unit columns."""
    m = rng.randint(1, 7)
    n = rng.randint(1, 30)
    density = rng.choice((0.3, 0.6, 1.0))
    rows = [[rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    if feasible:
        x = [rng.randint(0, 3) if rng.random() < 0.5 else 0 for _ in range(n)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in rows]
    else:
        rhs = [rng.randint(-9, 9) for _ in range(m)]
    return rows, rhs


class TestFractionFreeKernel:
    """solve_nonneg against the Fraction-tableau simplex kept in conftest."""

    def test_matches_fraction_kernel_on_random_integer_systems(self):
        rng = random.Random(20260)
        infeasible = 0
        for k in range(2000):
            rows, rhs = _random_system(rng, feasible=k % 2 == 0)
            expected = solve_nonneg_fraction(rows, rhs)
            assert _as_fractions(solve_nonneg(rows, rhs)) == expected, (rows, rhs)
            infeasible += expected is None
        # both outcomes must be well represented for the comparison to mean much
        assert 100 < infeasible < 1000

    def test_bland_breaks_equal_ratios_by_least_basic_column(self):
        # entering column 0 ties rows 1 and 2 at ratio 1/2; row 2's basic
        # column (2) is below row 1's artificial, so row 2 leaves.  Breaking
        # ties the other way ends at the other vertex (0, 0, 2, 1, 0).
        rows = [(1, 0, 0, 2, 1), (2, 0, 0, 1, -1), (2, 2, 1, -1, 2)]
        rhs = (2, 1, 1)
        expected = [Fraction(0), Fraction(1), Fraction(0), Fraction(1), Fraction(0)]
        assert solve_nonneg_fraction(rows, rhs) == expected
        assert _as_fractions(solve_nonneg(rows, rhs)) == expected

    def test_no_artificials_returns_unit_denominator(self):
        y, D = solve_nonneg([(1, 0, 2), (0, 1, 3)], (4, 5))
        assert (y, D) == ([4, 5, 0], 1)
        assert all(type(v) is int for v in y)

    def test_empty_system(self):
        assert solve_nonneg([], []) == ([], 1)


def _random_matrix(rng: random.Random) -> list[list[int]]:
    """1-6 rows, 1-6 columns; often zero rows, repeated rows or low rank."""
    m = rng.randint(1, 6)
    n = rng.randint(1, 6)
    lo = rng.choice((1, 3, 9))
    k = rng.randint(1, m)
    rows = [[rng.randint(-lo, lo) for _ in range(n)] for _ in range(k)]
    while len(rows) < m:
        kind = rng.randrange(3)
        if kind == 0:
            rows.append([0] * n)
        elif kind == 1:
            rows.append(list(rng.choice(rows)))
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = rng.randint(-3, 3), rng.randint(-3, 3)
            rows.append([ca * x + cb * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def _primitive_of_fractions(vec: list[Fraction]) -> tuple[int, ...]:
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


class TestIntegerElimination:
    """rref, exact_rank and nullspace_basis against the Fraction RREF in conftest."""

    def test_matches_fraction_rref_on_random_matrices(self):
        rng = random.Random(9040)
        deficient = 0
        for _ in range(1000):
            rows = _random_matrix(rng)
            width = len(rows[0])
            pivots, reduced = rref(rows)
            f_pivots, f_reduced = rref_fraction(rows)
            assert pivots == f_pivots, rows
            assert exact_rank(rows) == len(f_pivots)
            deficient += len(f_pivots) < min(len(rows), width)
            for row, f_row, col in zip(reduced, f_reduced, pivots):
                # the oracle row has pivot 1, so the scale is the pivot entry
                scale = row[col]
                assert scale > 0 and list(row) == [scale * x for x in f_row], rows
                assert gcd(*row) == 1
            expected = []
            for free in range(width):
                if free in f_pivots:
                    continue
                vec = [Fraction(0)] * width
                vec[free] = Fraction(1)
                for f_row, col in zip(f_reduced, f_pivots):
                    vec[col] = -f_row[free]
                expected.append(_primitive_of_fractions(vec))
            assert nullspace_basis(rows, width) == expected, rows
        assert 300 < deficient < 900

    def test_no_rows_give_unit_basis(self):
        assert rref([]) == ([], [])
        assert exact_rank([]) == 0
        assert nullspace_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

