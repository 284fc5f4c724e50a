import functools
import itertools
import json
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from conftest import (
    analyze_per_candidate,
    canonical_rows_fraction,
    contains_strict_lp,
    dot,
    primitive_vectors_py,
    random_laurent,
    rref_fraction,
    solve_nonneg_fraction,
    split_link_generators,
    strict_feasible,
)
from loglimset import exactgeom
from loglimset.exactgeom import (
    LinearSystem,
    balance,
    cone_contains,
    cone_dimension,
    exact_rank,
    interior_point,
    intersect,
    nullspace_basis,
    nullspace_lift,
    primitive_vector,
    rref,
    solve_nonneg,
)
from loglimset.sphdual import pair_cone, reduce_to_maximal, spherical_dual


def _random_system_rows(rng, m=None):
    """(m, eqs, ineqs) with every kind of row LinearSystem.make has to
    canonicalise, as numpy int64 arrays in about a third of the draws."""
    if m is None:
        m = rng.randint(2, 5)
    eqs = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(0, 3))]
    ineqs = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(rng.randint(1, 6))]
    for _ in range(rng.randint(1, 4)):
        r = rng.choice(ineqs)
        k = rng.randint(1, 3)
        e = [sum(rng.randint(-2, 2) * q[i] for q in eqs) for i in range(m)]
        kind = rng.randrange(6)
        if kind == 0:  # a non-primitive multiple, or a duplicate
            ineqs.append([k * a for a in r])
        elif kind == 1:  # a zero row
            rng.choice((eqs, ineqs)).append([0] * m)
        elif kind == 2:  # a row in the equality span
            ineqs.append(e)
        elif kind == 3:  # opposite to r modulo the equalities
            ineqs.append([-k * a + b for a, b in zip(r, e)])
        elif kind == 4:  # t and -(t + k r) are opposite once r and -r are promoted
            t = [rng.randint(-3, 3) for _ in range(m)]
            ineqs += [[-a for a in r], t, [-(a + k * b) for a, b in zip(t, r)]]
        else:  # entries past 2^63
            ineqs.append([a * 2**64 + rng.randint(-1, 1) for a in r])
    if rng.random() < 0.3 and all(abs(x) < 2**63 for row in eqs + ineqs for x in row):
        eqs = np.array(eqs, dtype=np.int64).reshape(-1, m)
        ineqs = np.array(ineqs, dtype=np.int64)
    return m, eqs, ineqs


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

    def test_no_opposite_inequalities_remain(self):
        # _analyze relies on this: no two inequalities of a made system are
        # opposite modulo the equality span, even when they only become
        # opposite once another pair has been promoted
        rng = random.Random(6060)
        grew = grew_by_two = 0
        for _ in range(300):
            m = rng.randint(2, 5)
            eqs = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(rng.randint(0, 2))]
            ineqs = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(1, 4))]
            for _ in range(rng.randint(1, 3)):
                r = rng.choice(ineqs)
                if rng.random() < 0.5:
                    # opposite to r modulo the equalities
                    e = [sum(rng.randint(-2, 2) * q[i] for q in eqs) for i in range(m)]
                    ineqs.append([-rng.randint(1, 3) * a + b for a, b in zip(r, e)])
                else:
                    # s and -(s + k r) are opposite once r and -r are promoted
                    t = [rng.randint(-3, 3) for _ in range(m)]
                    k = rng.randint(1, 2)
                    ineqs += [[-a for a in r], t, [-(a + k * b) for a, b in zip(t, r)]]
            rng.shuffle(ineqs)
            s = LinearSystem.make(m, eqs, ineqs)
            pivots, reduced = rref_fraction(s.equalities)

            def unit_rep(row):
                vec = [Fraction(x) for x in row]
                for prow, col in zip(reduced, pivots):
                    vec = [a - vec[col] * c for a, c in zip(vec, prow)]
                lead = next(abs(x) for x in vec if x)  # no inequality lies in the span
                return tuple(x / lead for x in vec)

            reps = {unit_rep(row) for row in s.inequalities}
            assert len(reps) == len(s.inequalities), s
            assert not any(tuple(-x for x in rep) in reps for rep in reps), s
            # the same cone: every point of a small grid satisfies both or neither
            for xi in itertools.product((-1, 0, 1), repeat=m):
                raw = all(dot(e, xi) == 0 for e in eqs) and all(dot(r, xi) >= 0 for r in ineqs)
                assert s.satisfied_by(xi) == raw, (eqs, ineqs, xi)
            rank = exact_rank(eqs) if eqs else 0
            grew += len(s.equalities) > rank
            grew_by_two += len(s.equalities) > rank + 1
        assert grew >= 150 and grew_by_two >= 50, (grew, grew_by_two)

    def test_matches_fraction_reference(self):
        # make against canonical_rows_fraction on seeded systems with every
        # kind of row make has to canonicalise, then the same system built
        # from shuffled, positively scaled rows
        rng = random.Random(2828)

        def shuffled_scaled(rows):
            out = []
            for row in rows:
                k = rng.randint(1, 5)
                out.append([k * int(x) for x in row])
            rng.shuffle(out)
            return out

        promoted = promoted_late = numpy_systems = 0
        for _ in range(1200):
            m, eqs, ineqs = _random_system_rows(rng)
            numpy_systems += isinstance(eqs, np.ndarray)
            s = LinearSystem.make(m, eqs, ineqs)
            assert (s.equalities, s.inequalities) == canonical_rows_fraction(eqs, ineqs), (m, eqs, ineqs)
            assert all(type(x) is int for row in s.equalities + s.inequalities for x in row)
            rank = exact_rank([list(map(int, row)) for row in eqs])
            promoted += len(s.equalities) > rank
            promoted_late += len(s.equalities) > rank + 1

            t = LinearSystem.make(m, shuffled_scaled(eqs), shuffled_scaled(ineqs))
            assert t == s and t is not s, (m, eqs, ineqs)
            assert hash(s) == hash((s.dim, s.equalities, s.inequalities)) == hash(t)
            assert len({s, t}) == 1
            cone_dimension(s)
            before = exactgeom._analyze.cache_info()
            cone_dimension(t)
            after = exactgeom._analyze.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses), s
        assert promoted >= 300 and promoted_late >= 100 and numpy_systems >= 200, (promoted, promoted_late, numpy_systems)

    def test_invariants_the_direction_walk_reads(self):
        # the stored equalities are the RREF rows, each led by its pivot, and
        # every inequality is zero on the pivot columns; so back_substitute
        # on pivots read off the rows lifts as nullspace_lift does
        rng = random.Random(3333)
        promoted = numpy_systems = big = fixed = 0
        for _ in range(1000):
            m, eqs, ineqs = _random_system_rows(rng)
            numpy_systems += isinstance(eqs, np.ndarray)
            s = LinearSystem.make(m, eqs, ineqs)
            pivots = [next(j for j, x in enumerate(row) if x) for row in s.equalities]
            f_pivots, f_reduced = rref_fraction(s.equalities)
            assert sorted(pivots) == f_pivots, s
            for row, col in zip(s.equalities, pivots):
                assert row[col] > 0 and list(row) == [row[col] * x for x in f_reduced[f_pivots.index(col)]], s
            assert all(row[col] == 0 for row in s.inequalities for col in pivots), s
            assert exactgeom.back_substitute(pivots, s.equalities, m) == nullspace_lift(s.equalities, m), s
            promoted += len(s.equalities) > exact_rank([list(map(int, row)) for row in eqs])
            big += any(abs(x) >= 2**63 for row in s.equalities + s.inequalities for x in row)
            fixed += any(row.count(0) == m - 1 for row in s.inequalities)
        assert promoted >= 250 and numpy_systems >= 150 and big >= 100 and fixed >= 100, (
            promoted, numpy_systems, big, fixed,
        )

    def test_zero_rows_dropped(self):
        s = LinearSystem.make(3, equalities=[(0, 0, 0)], inequalities=[(0, 0, 0)])
        assert s.equalities == () and s.inequalities == ()

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

    def test_equals_make_of_the_concatenated_rows(self):
        # intersect skips make's validation of rows that are already canonical
        rng = random.Random(4444)
        promoted = big = 0
        for _ in range(600):
            m, eqs, ineqs = _random_system_rows(rng)
            s1 = LinearSystem.make(m, eqs, ineqs)
            s2 = LinearSystem.make(m, *_random_system_rows(rng, m)[1:])
            if s1.inequalities and rng.random() < 0.5:
                # a row opposite to one of s1, beside no more equalities: the
                # union promotes it
                r, k = rng.choice(s1.inequalities), rng.randint(1, 3)
                s2 = LinearSystem.make(m, (), s2.inequalities + (tuple(-k * a for a in r),))
            got = intersect(s1, s2)
            assert got == LinearSystem.make(m, s1.equalities + s2.equalities, s1.inequalities + s2.inequalities)
            assert all(type(x) is int for row in got.equalities + got.inequalities for x in row)
            promoted += len(got.equalities) > exact_rank(s1.equalities + s2.equalities)
            big += any(abs(x) >= 2**63 for row in got.equalities + got.inequalities for x in row)
        assert promoted >= 120 and big >= 30, (promoted, big)


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
        assert primitive_vector([0, 0, 0]) is None
        # a list comes back as a tuple, with gcd 1 too
        assert primitive_vector([6, -9]) == (2, -3)
        assert primitive_vector([2, -3]) == (2, -3)
        assert type(primitive_vector([2, -3])) is tuple
        assert primitive_vector((-5, 0, 7)) == (-5, 0, 7)
        assert primitive_vector((-4, -8)) == (-1, -2)
        big = 2**64 + 1
        assert primitive_vector((3 * big, -6 * big)) == (1, -2)
        assert primitive_vector([big, 2**63]) == (big, 2**63)
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

    def test_cone_strict_feasible(self):
        # a row r can be made positive on a cone exactly when the cone is
        # not inside {r <= 0}
        quadrant = LinearSystem.make(2, inequalities=[(1, 0), (0, 1)])
        assert not cone_contains(quadrant, LinearSystem.make(2, inequalities=[(-1, -1)]))
        assert cone_contains(quadrant, LinearSystem.make(2, inequalities=[(1, 1)]))
        ray = LinearSystem.make(2, equalities=[(1, 0)], inequalities=[(0, 1)])
        assert cone_contains(ray, LinearSystem.make(2, inequalities=[(-1, 0)]))
        assert not cone_contains(ray, LinearSystem.make(2, inequalities=[(0, -1)]))

    def test_cone_contains(self):
        quadrant = LinearSystem.make(2, inequalities=[(1, 0), (0, 1)])
        ray = LinearSystem.make(2, equalities=[(1, -1)], inequalities=[(0, 1)])
        half = LinearSystem.make(2, inequalities=[(1, 0)])
        assert cone_contains(ray, quadrant)
        assert cone_contains(quadrant, half)
        assert not cone_contains(quadrant, ray)
        assert not cone_contains(half, quadrant)


def _balance_lp(rows: list[tuple[int, ...]], weighted: list[tuple[int, ...]]) -> list[list[int]]:
    """The LP that balance builds: the rows as columns over a 0/1 row that
    weighs the weighted rows; its right-hand side is (0, ..., 0, 1)."""
    return [list(col) for col in zip(*rows)] + [[int(r in weighted) for r in rows]]


def _has_unit_column(A: list[list[int]]) -> bool:
    """A column with one 1 and zeros elsewhere: an unweighted unit row e_i
    or a weighted zero row."""
    return any(col.count(0) == len(col) - 1 and 1 in col for col in zip(*A))


def _random_balance_rows(rng: random.Random) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """dim 1-6, 1-10 random rows, often with a negated combination of some
    of them (so that the rows balance), and sometimes coordinate rows e_i
    left unweighted, which are unit columns of the LP."""
    dim = rng.randint(1, 6)
    density = rng.choice((0.3, 0.6, 1.0))
    rows = [
        tuple(rng.randint(-5, 5) if rng.random() < density else 0 for _ in range(dim))
        for _ in range(rng.randint(1, 10))
    ]
    if rng.random() < 0.5:
        group = rng.sample(rows, rng.randint(1, min(3, len(rows))))
        rows.append(tuple(-sum(rng.randint(1, 3) * r[i] for r in group) for i in range(dim)))
    weighted = [r for r in rows if rng.random() < 0.6] or [rng.choice(rows)]
    units = [tuple(int(i == k) for i in range(dim)) for k in range(dim) if rng.random() < 0.2]
    return rows + [u for u in units if u not in weighted], weighted


def _dense_points(rng: random.Random, m: int) -> list[tuple[int, ...]]:
    """16-61 points of a small box in m = 3-6 coordinates."""
    radius = 2 if m == 3 else 1
    box = list(itertools.product(range(-radius, radius + 1), repeat=m))
    return rng.sample(box, rng.randint(16, 61))


def _hull_lp_rows(rng: random.Random) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The hull LP of polytope.extreme_points: the differences q - p of a
    dense support, every one weighted.  p is the lex-least point, a vertex,
    or the point nearest the centroid, mostly not one."""
    pts = _dense_points(rng, rng.randint(3, 6))
    sums = [sum(column) for column in zip(*pts)]
    deepest = min(pts, key=lambda q: sum((len(pts) * x - t) ** 2 for x, t in zip(q, sums)))
    p = rng.choice((min(pts), deepest))
    diffs = [tuple(a - b for a, b in zip(q, p)) for q in pts if q != p]
    rng.shuffle(diffs)
    return diffs, diffs


def _analyze_lp_rows(rng: random.Random) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The first LP of _analyze on a cone of m = 3-6 coordinates and 15-60
    random rows, sometimes under an equality: its signed rows, the
    inequalities weighted.  Most rows are flipped to be nonnegative at a
    hidden point c, orthogonal to the equality, so the cone often has an
    interior point and the LP then has none.  Drawn again until at least
    15 signed rows are left."""
    while True:
        m = rng.randint(3, 6)
        c = [rng.randint(1, 3) * rng.choice((-1, 1)) for _ in range(m)]
        rows = [tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(rng.randint(15, 60))]
        rows = [r if dot(r, c) >= 0 or rng.random() < 0.03 else tuple(-x for x in r) for r in rows]
        i, j = rng.sample(range(m), 2)
        eqs = [tuple(c[j] if k == i else -c[i] if k == j else 0 for k in range(m))] if rng.random() < 0.3 else []
        s = LinearSystem.make(m, eqs, rows)
        signed = exactgeom._signed_rows(s)
        if len(signed) >= 15:
            return list(signed), list(s.inequalities)


class TestFractionFreeKernel:
    """solve_nonneg against the Fraction-tableau simplex kept in conftest."""

    def test_matches_fraction_kernel_on_random_integer_systems(self):
        rng = random.Random(20260)
        infeasible = unit = 0
        for _ in range(2000):
            rows, weighted = _random_balance_rows(rng)
            A = _balance_lp(rows, weighted)
            expected = solve_nonneg_fraction(A, [0] * (len(A) - 1) + [1])
            lam = solve_nonneg(A)
            unit += _has_unit_column(A)
            if expected is None:
                assert lam is None, (rows, weighted)
                infeasible += 1
                continue
            # the last row says the weighted x sum to 1, so lam = D x for D
            # the weighted sum of lam
            D = dot(A[-1], lam)
            assert D > 0 and all(type(v) is int for v in lam)
            assert [Fraction(v, D) for v in lam] == expected, (rows, weighted)
        # both outcomes, and LPs with and without unit columns, must be well
        # represented for the comparison to mean much
        assert 400 < infeasible < 1600 and 300 < unit < 1800, (infeasible, unit)

    @pytest.mark.parametrize("shape", [_hull_lp_rows, _analyze_lp_rows])
    def test_matches_fraction_kernel_on_wide_lps(self, shape):
        # 4-7 LP rows over 15-60 columns or more; the random systems above
        # have a median of 7 columns and reach 15 once in 2 000
        rng = random.Random(2929)
        outcomes = {True: 0, False: 0}
        for _ in range(100):
            rows, weighted = shape(rng)
            A = _balance_lp(rows, weighted)
            assert len(rows) >= 15
            expected = solve_nonneg_fraction(A, [0] * (len(A) - 1) + [1])
            z: list = []
            lam = solve_nonneg(A, z)
            outcomes[lam is None] += 1
            if expected is None:
                assert lam is None, (rows, weighted)
                assert len(z) == len(A) and all(type(v) is int for v in z)
                assert all(dot(z, col) <= 0 for col in zip(*A)) and z[-1] > 0, (rows, weighted, z)
                continue
            assert z == [] and all(type(v) is int for v in lam)
            D = dot(A[-1], lam)
            assert D > 0 and [Fraction(v, D) for v in lam] == expected, (rows, weighted)
        assert min(outcomes.values()) >= 30, outcomes

    def test_bland_breaks_equal_ratios_by_least_basic_column(self):
        # balance((-2, -2), (-1, 0), (-1, 2), (2, 1)) weighing the last row.
        # After column 2 enters, entering column 3 ties rows 0 and 1 at
        # ratio 0; row 1's basic column (2) is below row 0's artificial, so
        # row 1 leaves.  Breaking ties the other way ends at lam (5, 0, 2, 6).
        A = [[-2, -1, -1, 2], [-2, 0, 2, 1], [0, 0, 0, 1]]
        expected = [Fraction(1, 2), Fraction(1), Fraction(0), Fraction(1)]
        assert solve_nonneg_fraction(A, (0, 0, 1)) == expected
        assert solve_nonneg(A) == [1, 2, 0, 2]


def _random_cone(rng: random.Random) -> LinearSystem:
    """m 2-5; a few rows plus negated combinations of some of them, which
    makes those rows implicit equalities, sometimes under an equality."""
    m = rng.randint(2, 5)
    base = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(2, m + 1))]
    rows = list(base)
    for _ in range(rng.randint(1, 2)):
        group = rng.sample(base, rng.randint(1, 2))
        coeffs = [rng.randint(1, 2) for _ in group]
        rows.append(tuple(-sum(c * r[i] for c, r in zip(coeffs, group)) for i in range(m)))
    eqs = [tuple(rng.randint(-2, 2) for _ in range(m))] if rng.random() < 0.2 else []
    return LinearSystem.make(m, eqs, rows)


def _orthant_cone(rng: random.Random) -> LinearSystem:
    """m 3-5; coordinate rows e_i next to random rows, and a negated
    combination of one e_i and one random row.  That makes e_i an implicit
    equality, so it stays in the next LP unweighted: a unit column."""
    m = rng.randint(3, 5)
    units = [tuple(int(i == k) for i in range(m)) for k in rng.sample(range(m), rng.randint(1, m))]
    others = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, m))]
    u, r = rng.choice(units), rng.choice(others)
    cu, cr = rng.randint(1, 2), rng.randint(1, 2)
    return LinearSystem.make(m, (), units + others + [tuple(-cu * a - cr * b for a, b in zip(u, r))])


def _pair_cone_sample(rng: random.Random) -> LinearSystem:
    """The pair cone of two points of a random support, m 2-4."""
    m = rng.randint(2, 4)
    pts = {tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(rng.randint(3, 10))}
    pts = sorted(pts | {(0,) * m, (1,) * m})
    return pair_cone(pts, *rng.sample(pts, 2))


def _dual_pieces(rng: random.Random, count: int) -> list[LinearSystem]:
    """At least ``count`` pieces that sphdual.intersect forms from the cells
    of two random duals, m 3-4: most have two equalities, one per cell."""
    pieces: set[LinearSystem] = set()
    while len(pieces) < count:
        variables = ("x", "y", "z", "w")[: rng.randint(3, 4)]
        c1, c2 = (spherical_dual(random_laurent(rng, variables, max_terms=4, min_terms=2)) for _ in range(2))
        pieces |= {intersect(a, b) for a in c1.cells for b in c2.cells}
    return sorted(pieces)


def _split_link_cells(*knots: tuple[int, int]) -> list[LinearSystem]:
    """The cells of both cusps' duals over (m1, l1, m2, l2), each with a
    two-dimensional lineality space, and the pieces of their intersection."""
    c1, c2 = (spherical_dual(g) for g in split_link_generators(*knots))
    return list(c1.cells + c2.cells) + sorted({intersect(a, b) for a in c1.cells for b in c2.cells})


def _random_rows(rng: random.Random) -> list[tuple[int, ...]]:
    """m 2-5; 1-6 distinct nonzero rows, sometimes with a negated
    combination of some of them, which makes those rows balance."""
    m = rng.randint(2, 5)
    rows = []
    while not any(map(any, rows)):
        rows = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.5:
        group = rng.sample(rows, rng.randint(1, min(2, len(rows))))
        rows.append(tuple(-sum(rng.randint(1, 2) * r[i] for r in group) for i in range(m)))
    return sorted({r for r in rows if any(r)})


def _small_cone(rng: random.Random, m: int) -> LinearSystem:
    """1-4 random rows in [-3, 3]^m, sometimes under an equality."""
    rows = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, 4))]
    eqs = [tuple(rng.randint(-2, 2) for _ in range(m))] if rng.random() < 0.2 else []
    return LinearSystem.make(m, eqs, rows)


def _redundant_row(rng: random.Random, s: LinearSystem) -> tuple[int, ...]:
    """A nonnegative combination of some signed rows of s: >= 0 on its cone."""
    signed = list(s.inequalities) + [r for e in s.equalities for r in (e, tuple(-x for x in e))]
    group = rng.sample(signed, min(len(signed), rng.randint(1, 3)))
    return tuple(sum(rng.randint(1, 3) * r[i] for r in group) for i in range(s.dim))


def _containment_pair(rng: random.Random, m: int) -> tuple[LinearSystem, LinearSystem]:
    """A subcone (outer plus random rows), the same cone with a redundant
    row added (either way round), or two unrelated cones."""
    outer = _small_cone(rng, m)
    kind = rng.randrange(4)
    if kind == 0:
        extra = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, 2))]
        eqs = [tuple(rng.randint(-2, 2) for _ in range(m))] if rng.random() < 0.2 else []
        return intersect(outer, LinearSystem.make(m, eqs, extra)), outer
    if kind in (1, 2) and (outer.inequalities or outer.equalities):
        same = LinearSystem.make(m, outer.equalities, outer.inequalities + (_redundant_row(rng, outer),))
        return (same, outer) if kind == 1 else (outer, same)
    return _small_cone(rng, m), outer


class TestContainment:
    """cone_contains and reduce_to_maximal against one strict Fraction LP per
    signed outer row (conftest.contains_strict_lp)."""

    def test_matches_strict_lp_oracle(self, monkeypatch):
        lps: list[int] = []
        solve = exactgeom.solve_nonneg
        monkeypatch.setattr(exactgeom, "solve_nonneg", lambda *a: lps.append(1) or solve(*a))
        rng = random.Random(2626)
        pairs = [_containment_pair(rng, rng.randint(2, 4)) for _ in range(2000)]
        for m in (2, 3, 4):
            zero = LinearSystem.make(m, [tuple(int(i == k) for i in range(m)) for k in range(m)])
            full = LinearSystem.make(m)
            same_m = [pair for pair in pairs[:200] if pair[0].dim == m][:20]
            pairs += [(x, b) for _, b in same_m for x in (zero, full)]
            pairs += [(a, x) for a, _ in same_m for x in (zero, full)]
        contained = past_interior = 0
        for inner, outer in pairs:
            p = interior_point(inner)  # analysed before the LPs are counted
            lps.clear()
            expected = contains_strict_lp(inner, outer)
            assert cone_contains(inner, outer) == expected, (inner, outer)
            # at most one LP per signed outer row, and none on an identical system
            assert len(lps) <= len(outer.inequalities) + 2 * len(outer.equalities), (inner, outer)
            assert not lps or inner != outer
            contained += expected
            past_interior += p is not None and inner != outer and outer.satisfied_by(p)
        assert contained >= len(pairs) // 3, (contained, len(pairs))
        assert past_interior >= 800, past_interior

    def test_reduce_to_maximal_keeps_lex_least_maximal_cells(self):
        rng = random.Random(2627)
        dropped = tied = 0
        for _ in range(120):
            m = rng.randint(2, 3)
            pairs = [_containment_pair(rng, m) for _ in range(rng.randint(1, 4))]
            cells = [c for pair in pairs for c in pair if cone_dimension(c) > 0]
            inside = functools.cache(contains_strict_lp)
            ordered = sorted(set(cells))
            expected = tuple(
                a
                for a in ordered
                if not any(b != a and inside(a, b) and (b < a or not inside(b, a)) for b in ordered)
            )
            assert reduce_to_maximal(cells) == expected, cells
            # every dropped cell lies in a kept one; kept cells are not nested
            assert all(any(inside(a, b) for b in expected) for a in ordered)
            assert not any(a != b and inside(a, b) for a in expected for b in expected)
            dropped += len(ordered) - len(expected)
            tied += any(a != b and inside(a, b) and inside(b, a) for a in ordered for b in ordered)
        assert dropped >= 100 and tied >= 20, (dropped, tied)


class TestFarkasLoop:
    """The balance loop of _analyze against the per-candidate LPs kept in conftest."""

    def test_matches_per_candidate_analysis(self, monkeypatch):
        solves: list[bool] = []
        unit_lps = 0

        def recording(rows, weighted, point=None):
            nonlocal unit_lps
            unit_lps += _has_unit_column(_balance_lp(rows, weighted))
            result = balance(rows, weighted, point)
            solves.append(result is not None)
            return result

        monkeypatch.setattr(exactgeom, "balance", recording)
        rng = random.Random(1313)
        systems = [_random_cone(rng) for _ in range(600)] + [_pair_cone_sample(rng) for _ in range(150)]
        systems += [_orthant_cone(rng) for _ in range(80)]
        pieces = _dual_pieces(rng, 150)
        link = _split_link_cells((2, 3), (2, 5)) + _split_link_cells((2, 3), (3, 4))
        # the pieces hold one equality from each cell; the cusp cells of the
        # split links have a two-dimensional lineality space
        assert sum(len(s.equalities) == 2 for s in pieces) >= 100
        assert sum(s.dim - exact_rank(s.equalities + s.inequalities) == 2 for s in link) >= 16
        systems += pieces + link
        rounds: dict[tuple[int, bool], int] = {}
        independent = 0
        for s in systems:
            solves.clear()
            info = exactgeom._analyze.__wrapped__(s)
            dim, vanishing = analyze_per_candidate(s)
            assert info.dimension == dim, s
            # linearly independent rows cannot balance: no LP is solved
            rows = s.equalities + s.inequalities
            if s.inequalities and exact_rank(rows) == len(rows):
                assert not solves, s
                independent += 1
            key = (min(sum(solves), 2), dim > 0)
            rounds[key] = rounds.get(key, 0) + 1
            p = info.interior
            if dim == 0:
                assert p is None and vanishing == frozenset(s.inequalities), s
                continue
            # every equality holds, and exactly the implicit rows vanish
            assert s.satisfied_by(p) and any(p), s
            assert frozenset(r for r in s.inequalities if dot(r, p) == 0) == vanishing, s
        # (rows balanced, capped at 2; nonzero cone): the sample must hold
        # two or more balancing rounds, both before the interior point and on
        # zero cones that the first combination does not settle
        assert rounds[2, True] >= 10 and rounds[2, False] >= 5, rounds
        assert rounds[0, True] >= 100 and rounds[1, True] >= 50 and rounds[1, False] >= 50, rounds
        assert independent >= 100, independent
        # LPs with an unweighted unit row e_i
        assert unit_lps >= 50, unit_lps

    def test_infeasible_strict_lp_gives_a_farkas_certificate(self):
        rng = random.Random(4242)
        outcomes = {True: 0, False: 0}
        for _ in range(600):
            rows = _random_rows(rng)
            weighted = rng.sample(rows, rng.randint(1, len(rows)))
            point: list = []
            lam = balance(rows, weighted, point)
            strict = strict_feasible(rows, weighted)
            # exactly one of lam and the point exists
            assert (lam is None) == (strict is not None) == bool(point), (rows, weighted)
            outcomes[lam is None] += 1
            if lam is None:
                assert len(point) == len(rows[0]) and all(type(v) is int for v in point)
                assert all(dot(r, point) > 0 for r in weighted), (rows, weighted, point)
                assert all(dot(r, point) >= 0 for r in rows), (rows, weighted, point)
            else:
                assert len(lam) == len(rows) and all(type(v) is int and v >= 0 for v in lam)
                assert all(sum(v * r[j] for v, r in zip(lam, rows)) == 0 for j in range(len(rows[0])))
                assert sum(v for v, r in zip(lam, rows) if r in weighted) > 0, (rows, weighted, lam)
        assert min(outcomes.values()) >= 100, outcomes

    def test_certificate_of_opposite_rows(self):
        lam = balance([(-1, 0), (1, 0), (0, 1)], [(1, 0)])
        assert lam[0] == lam[1] > 0 and lam[2] == 0
        point: list = []
        assert balance([(1, 0), (0, 1)], [(1, 0)], point) is None
        assert point[0] > 0 and point[1] >= 0

    def test_solve_nonneg_fills_the_certificate_only_when_infeasible(self):
        rng = random.Random(5150)
        infeasible = unit = 0
        for _ in range(2000):
            rows, weighted = _random_balance_rows(rng)
            A = _balance_lp(rows, weighted)
            z: list = []
            if solve_nonneg(A, z) is not None:
                assert z == []
                continue
            infeasible += 1
            unit += _has_unit_column(A)
            assert len(z) == len(A) and all(type(v) is int for v in z)
            # z^T A <= 0 and z^T (0, ..., 0, 1) > 0: no x >= 0 solves the LP
            assert all(dot(z, col) <= 0 for col in zip(*A)), (rows, weighted, z)
            assert z[-1] > 0, (rows, weighted, z)
        assert infeasible >= 400 and unit >= 100, (infeasible, unit)


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
            null_vectors = []
            for free in range(width):
                if free in f_pivots:
                    continue
                vec = [Fraction(0)] * width
                vec[free] = Fraction(1)
                for f_row, col in zip(f_reduced, f_pivots):
                    vec[col] = -f_row[free]
                null_vectors.append(vec)
            assert nullspace_basis(rows, width) == [_primitive_of_fractions(v) for v in null_vectors], rows
            free, lift, denom = nullspace_lift(rows, width)
            assert free == [j for j in range(width) if j not in f_pivots], rows
            assert len(lift) == len(denom) == width and all(len(row) == len(free) for row in lift)
            assert all(
                Fraction(lift[j][i], denom[j]) == vec[j] for i, vec in enumerate(null_vectors) for j in range(width)
            ), rows
        assert 300 < deficient < 900

    def test_no_rows_give_unit_basis(self):
        assert rref([]) == ([], [])
        assert exact_rank([]) == 0
        assert nullspace_basis([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert nullspace_lift([], 3) == ([0, 1, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1])

    def test_unit_solution_of_independent_rows(self):
        rng = random.Random(9041)
        kinds = {"no rows": 0, "dependent": 0, "solved": 0}
        for trial in range(600):
            m = 2 + trial % 5
            lo = rng.choice((3, 2**64))  # entries past 2^63 in about half the trials
            stacked = [tuple(rng.randint(-lo, lo) for _ in range(m)) for _ in range(rng.randint(1, m))]
            if rng.random() < 0.3:
                (a, b), ca, cb = rng.sample(stacked * 2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
                stacked.insert(rng.randint(0, len(stacked)), tuple(ca * x + cb * y for x, y in zip(a, b)))
            split = rng.randint(0, len(stacked))
            eq, rows = stacked[:split], stacked[split:]
            y = exactgeom._unit_solution(eq, rows, m)
            if not rows or len(rref_fraction(stacked)[0]) < len(stacked):
                kinds["dependent" if rows else "no rows"] += 1
                assert y is None, (eq, rows, y)
                continue
            kinds["solved"] += 1
            assert y is not None and len(y) == m, (eq, rows)
            assert all(dot(row, y) == 0 for row in eq), (eq, rows, y)
            values = {dot(row, y) for row in rows}
            assert len(values) == 1 and values.pop() > 0, (eq, rows, y)
        assert min(kinds.values()) >= 100, kinds

