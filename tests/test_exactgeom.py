import random
from fractions import Fraction

import pytest

from conftest import primitive_vectors_py, solve_nonneg_fraction
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
    solve_nonneg,
)


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
        assert primitive_vector((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
        assert primitive_vector((0, 0)) is None
        assert primitive_vector((Fraction(0), 0)) is None
        # integer rows take the gcd path; the same values as Fractions do not
        rng = random.Random(5)
        for _ in range(200):
            v = tuple(rng.randint(-12, 12) for _ in range(rng.randint(1, 5)))
            assert primitive_vector(v) == primitive_vector([Fraction(x) for x in v])

    def test_nullspace_basis(self):
        basis = nullspace_basis([(1, 1, 1)], 3)
        assert len(basis) == 2
        for vec in basis:
            assert sum(vec) == 0

    def test_solve_nonneg_feasible(self):
        # x + y = 2, x - y = 0 has the nonnegative solution (1, 1)
        x = solve_nonneg([(1, 1), (1, -1)], (2, 0))
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
            assert solve_nonneg(rows, rhs) == expected, (rows, rhs)
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
        assert solve_nonneg(rows, rhs) == expected

    def test_rational_input_agrees_on_feasibility(self):
        rng = random.Random(4242)
        feasible = 0
        for k in range(300):
            rows, rhs = _random_system(rng, feasible=k % 2 == 0)
            # positive row scales keep the feasible set; positive column
            # scales map it onto itself, so feasible systems stay feasible
            row_scale = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in rows]
            col_scale = [Fraction(1, rng.randint(1, 3)) for _ in rows[0]]
            q_rows = [[a * s * t for a, t in zip(row, col_scale)] for row, s in zip(rows, row_scale)]
            q_rhs = [r * s for r, s in zip(rhs, row_scale)]
            expected = solve_nonneg_fraction(q_rows, q_rhs)
            x = solve_nonneg(q_rows, q_rhs)
            assert (x is None) == (expected is None), (q_rows, q_rhs)
            if x is not None:
                feasible += 1
                assert all(isinstance(v, Fraction) and v >= 0 for v in x)
                assert all(sum(a * v for a, v in zip(row, x)) == r for row, r in zip(q_rows, q_rhs))
        assert 150 <= feasible < 300

    def test_rational_rows_solved_exactly(self):
        # x/2 + y/3 = 1 with x = 2y: the only solution is (3/2, 3/4)
        x = solve_nonneg([(Fraction(1, 2), Fraction(1, 3)), (1, -2)], (1, 0))
        assert x == [Fraction(3, 2), Fraction(3, 4)]

    def test_no_artificials_returns_fractions(self):
        x = solve_nonneg([(1, 0, 2), (0, 1, 3)], (4, 5))
        assert x == [Fraction(4), Fraction(5), Fraction(0)]
        assert all(type(v) is Fraction for v in x)

    def test_empty_system(self):
        assert solve_nonneg([], []) == []

