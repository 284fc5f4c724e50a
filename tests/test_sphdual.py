import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    dot,
    primitive_vectors_py,
    random_laurent,
    rational_points_grid,
    reduce_to_maximal_all_pairs,
    split_link_generators,
    support_cells_all_pairs,
    support_max_twice,
)
from loglimset import sphdual
from loglimset.exactgeom import LinearSystem, cone_contains, cone_dimension, nullspace_lift, rref
from loglimset.exactgeom import intersect as intersect_systems
from loglimset.laurent import LaurentPolynomial, parse
from loglimset.loglim import loglim_outer
from loglimset.sphdual import (
    SphericalComplex,
    cell_dimensions,
    contains,
    intersect,
    max_cell_dimension,
    pair_cone,
    rational_points,
    ray_directions,
    reduce_to_maximal,
    spherical_dual,
    union,
)


class TestPairCone:
    def test_triangle_diagonal_pair_is_a_ray(self):
        support = [(1, 0), (0, 1), (0, 0)]
        cone = pair_cone(support, (1, 0), (0, 1))
        assert cone == LinearSystem.make(2, equalities=[(1, -1)], inequalities=[(0, 1)])
        for xi in ((1, 1), np.array((1, 1), dtype=np.int64), (2**70, 2**70)):
            assert cone.satisfied_by(xi)
        for xi in ((-1, -1), np.array((-1, -1), dtype=np.int64), (2**70, 2**70 - 1)):
            assert not cone.satisfied_by(xi)

    def test_segment_pair_is_a_line(self):
        for a in (6, 2**70 + 1):
            support = [(a, 1), (0, 0)]
            cone = pair_cone(support, (a, 1), (0, 0))
            assert cone == LinearSystem.make(2, equalities=[(a, 1)])
            assert cone.satisfied_by((1, -a)) and cone.satisfied_by((-1, a))
            assert not cone.satisfied_by((1, 1 - a)) and not cone.satisfied_by((0, 1))
        cone = pair_cone([(6, 1), (0, 0)], (6, 1), (0, 0))
        assert cone.satisfied_by(np.array((-1, 6), dtype=np.int64))
        assert not cone.satisfied_by(np.array((1, -5), dtype=np.int64))

    def test_pair_order_does_not_matter(self):
        rng = random.Random(17)
        for _ in range(25):
            f = random_laurent(rng, ("x", "y", "z")[: rng.choice((2, 3))], max_terms=5)
            pts = sorted(f.support())
            if len(pts) < 2:
                continue
            a, b = pts[0], pts[-1]
            assert pair_cone(pts, a, b) == pair_cone(pts, b, a)

    def test_equals_the_two_sided_system(self):
        # the rows (alpha1 - alpha) reduce to the (alpha0 - alpha) rows
        # modulo the equality, so leaving them out changes nothing
        rng = random.Random(3000)
        for _ in range(1000):
            m = rng.randint(2, 4)
            pts = sorted({tuple(rng.randint(-5, 5) for _ in range(m)) for _ in range(rng.randint(2, 12))})
            if len(pts) < 2:
                continue
            a0, a1 = rng.sample(pts, 2)
            ineqs = [tuple(x - y for x, y in zip(a, p)) for p in pts for a in (a0, a1)]
            two_sided = LinearSystem.make(m, [tuple(x - y for x, y in zip(a0, a1))], ineqs)
            assert pair_cone(pts, a0, a1) == two_sided, (pts, a0, a1)

    def test_rejects_equal_or_missing_points(self):
        with pytest.raises(ValueError):
            pair_cone([(0, 0), (1, 0)], (0, 0), (0, 0))
        with pytest.raises(ValueError):
            pair_cone([(0, 0), (1, 0)], (0, 0), (5, 5))


class TestSphericalDual:
    def test_triangle_dual_is_three_rays(self):
        c = spherical_dual(parse("x+y+1", ("x", "y")))
        assert rational_points(c, 2) == ((-1, 0), (0, -1), (1, 1))
        assert len(c.cells) == 3
        assert cell_dimensions(c) == (0, 0, 0)

    def test_segment_dual_is_a_line(self):
        c = spherical_dual(parse("l*m^6+1", ("m", "l")))
        assert c.cells == (LinearSystem.make(2, equalities=[(6, 1)]),)
        assert rational_points(c, 6) == ((-1, 6), (1, -6))

    def test_one_variable_dual_is_empty(self):
        c = spherical_dual(parse("x+1", ("x",)))
        assert c.is_empty()
        assert c == SphericalComplex.empty(1)
        assert rational_points(c, 3) == ()

    def test_monomial_dual_is_empty(self):
        c = spherical_dual(parse("5*x^2*y^-1", ("x", "y")))
        assert c.is_empty()
        assert c.cells == ()
        assert not c.full_sphere

    def test_zero_dual_is_full_sphere(self):
        c = spherical_dual(LaurentPolynomial.zero(("x", "y")))
        assert c.full_sphere
        assert contains(c, (3, 5))

    def test_construction_is_deterministic(self):
        f = parse("x^2*y^-1 + x + y^3 - 7", ("x", "y"))
        assert spherical_dual(f).cells == spherical_dual(f).cells
        assert spherical_dual(f) == spherical_dual(f)


class TestContains:
    def test_examples(self):
        c = spherical_dual(parse("x+y+1", ("x", "y")))
        assert contains(c, (1, 1))
        assert not contains(c, (1, 0))
        full = SphericalComplex.full(2)
        assert contains(full, (2, -7))

    def test_not_centrally_symmetric(self):
        c = spherical_dual(parse("x+y+1", ("x", "y")))
        assert contains(c, (1, 1)) and not contains(c, (-1, -1))

    def test_scale_invariance_and_validation(self):
        c = spherical_dual(parse("x+y+1", ("x", "y")))
        assert contains(c, (5, 5))
        with pytest.raises(ValueError):
            contains(c, (0, 0))
        with pytest.raises(ValueError):
            contains(c, (1, 2, 3))
        assert contains(c, np.array([5, 5]))

    @pytest.mark.parametrize("xi", [(1.7, 1.2), (Fraction(1, 2), 1), (1.0, 1)])
    def test_entries_must_be_integers(self, xi):
        with pytest.raises(ValueError, match="non-integer"):
            contains(spherical_dual(parse("x+y+1", ("x", "y"))), xi)

    def test_matches_support_oracle(self):
        rng = random.Random(23)
        for _ in range(12):
            m = rng.choice((2, 3))
            f = random_laurent(rng, ("x", "y", "z")[:m], max_terms=5)
            dual = spherical_dual(f)
            support = sorted(f.support())
            for xi in primitive_vectors_py(m, 4):
                assert contains(dual, xi) == support_max_twice(support, xi)


class TestUnionIntersect:
    def test_union_with_empty_is_identity(self):
        c = spherical_dual(parse("x+y+1", ("x", "y")))
        e = SphericalComplex.empty(2)
        assert union(c, e) == c

    def test_union_with_full_absorbs(self):
        c = spherical_dual(parse("x+y+1", ("x", "y")))
        assert union(c, SphericalComplex.full(2)).full_sphere

    def test_union_matches_support_oracle(self):
        rng = random.Random(73)
        for _ in range(10):
            m = rng.choice((2, 3))
            variables = ("x", "y", "z")[:m]
            f = random_laurent(rng, variables, max_terms=5)
            g = random_laurent(rng, variables, max_terms=5)
            both = union(spherical_dual(f), spherical_dual(g))
            supports = (sorted(f.support()), sorted(g.support()))
            for xi in primitive_vectors_py(m, 4):
                assert contains(both, xi) == any(support_max_twice(s, xi) for s in supports)

    def test_intersect_of_coordinate_lines_is_empty(self):
        a = spherical_dual(parse("x-1", ("x", "y")))
        b = spherical_dual(parse("y-1", ("x", "y")))
        assert intersect(a, b).is_empty()

    def test_intersect_triangle_with_diagonal_line(self):
        c = spherical_dual(parse("x+y+1", ("x", "y")))
        d = spherical_dual(parse("x-y", ("x", "y")))
        result = intersect(c, d)
        assert result.cells == (
            LinearSystem.make(2, equalities=[(1, -1)], inequalities=[(0, 1)]),
        )

    def test_intersect_with_full_sphere_is_identity(self):
        c = spherical_dual(parse("x+y+1", ("x", "y")))
        assert intersect(c, SphericalComplex.full(2)) == c

    def test_product_dual_is_union_of_factor_duals(self):
        rng = random.Random(71)
        for _ in range(10):
            m = rng.choice((2, 3))
            variables = ("x", "y", "z")[:m]
            f = random_laurent(rng, variables, max_terms=4)
            g = random_laurent(rng, variables, max_terms=4)
            product_dual = spherical_dual(f * g)
            factor_union = union(spherical_dual(f), spherical_dual(g))
            for xi in primitive_vectors_py(m, 3):
                assert contains(product_dual, xi) == contains(factor_union, xi)

    def test_factor_cells_covered_by_product_cells(self):
        rng = random.Random(72)
        for _ in range(6):
            f = random_laurent(rng, ("x", "y"), max_terms=4)
            g = random_laurent(rng, ("x", "y"), max_terms=4)
            product_dual = spherical_dual(f * g)
            for part in (f, g):
                for cell in spherical_dual(part).cells:
                    for xi in primitive_vectors_py(2, 4):
                        if cell.satisfied_by(xi):
                            assert contains(product_dual, xi)
            for cell in product_dual.cells:
                for xi in primitive_vectors_py(2, 4):
                    if cell.satisfied_by(xi):
                        assert contains(spherical_dual(f), xi) or contains(
                            spherical_dual(g), xi
                        )


class TestRationalPoints:
    def test_triangle_points(self):
        c = spherical_dual(parse("x+y+1", ("x", "y")))
        assert rational_points(c, 2) == ((-1, 0), (0, -1), (1, 1))

    def test_empty_complex(self):
        assert rational_points(SphericalComplex.empty(2), 5) == ()

    def test_full_sphere_height_one(self):
        pts = rational_points(SphericalComplex.full(2), 1)
        assert set(pts) == {(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)}

    def test_matches_pure_python_enumeration(self):
        f = parse("x^2*y^-1 + y + 1", ("x", "y"))
        expected = tuple(
            xi for xi in primitive_vectors_py(2, 5) if support_max_twice(sorted(f.support()), xi)
        )
        assert rational_points(spherical_dual(f), 5) == expected

    @pytest.mark.parametrize("height", [2.5, Fraction(5, 2), 2.0, "2"])
    def test_height_must_be_an_integer(self, height):
        c = spherical_dual(parse("x+y+1", ("x", "y")))
        with pytest.raises(ValueError, match="non-integer"):
            rational_points(c, height)
        assert rational_points(c, np.int64(2)) == rational_points(c, 2)

    def test_primitive_directions_counts(self):
        assert len(rational_points(SphericalComplex.full(2), 1)) == 8
        assert len(rational_points(SphericalComplex.full(2), 2)) == len(primitive_vectors_py(2, 2)) == 16


class TestCellEnumeration:
    """The per-cell walk over free coordinates against the whole-grid mask."""

    def test_matches_grid_reference(self):
        rng = random.Random(41)
        variables = ("x", "y", "z", "w")
        checked = 0
        for trial in range(200):
            m = 2 + trial % 3
            height = 1 + (trial // 3) % 12
            f = random_laurent(rng, variables[:m], max_terms=6)
            if trial % 2:
                g = random_laurent(rng, variables[:m], max_terms=6)
                c = intersect(spherical_dual(f), spherical_dual(g))
            else:
                c = spherical_dual(f)
            got = rational_points(c, height)
            assert got == rational_points_grid(c, height), (trial, m, height)
            if height <= 3:
                expected = tuple(
                    xi for xi in primitive_vectors_py(m, height)
                    if any(cell.satisfied_by(xi) for cell in c.cells)
                )
                assert got == expected, (trial, m, height)
            checked += bool(got)
        assert checked >= 100

    @pytest.mark.parametrize("knots", [((2, 3), (3, 4)), ((2, 5), (2, 5)), ((3, 5), (2, 7)), ((4, 5), (5, 6))])
    def test_split_links_match_grid_reference(self, knots, monkeypatch):
        c = loglim_outer(split_link_generators(*knots))
        expected = rational_points_grid(c, 12)
        assert expected
        # a limit of 1 walks one cell per stack and one vector per block;
        # 10**9 stacks all 16 cells of a link
        for limit in (sphdual._BLOCK_LIMIT, 1, 10**9):
            monkeypatch.setattr(sphdual, "_BLOCK_LIMIT", limit)
            assert rational_points(c, 12) == expected, limit

    @pytest.mark.parametrize("block_limit", [1, 10**9])
    def test_stacks_of_cells_with_one_two_and_three_free_coordinates(self, block_limit, monkeypatch):
        monkeypatch.setattr(sphdual, "_BLOCK_LIMIT", block_limit)
        cells = [
            LinearSystem.make(4, [(1, -2, 0, 0), (0, 0, 1, 0), (0, 1, 0, 3)], [(0, 1, 0, 0)]),
            LinearSystem.make(4, [(1, 1, 1, 1), (0, 2, -1, 0), (0, 0, 1, -1)], []),
            LinearSystem.make(4, [(1, 0, 0, 0), (0, 1, 1, 0)], [(0, 0, 1, 1)]),
            LinearSystem.make(4, [(2, 0, -1, 0), (0, 3, 0, -2)], [(1, 0, 0, 0), (0, -1, 0, 0)]),
            LinearSystem.make(4, [(1, 2, -1, 0)], [(0, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, -1)]),
            LinearSystem.make(4, [(0, 0, 0, 1)], [(1, 1, 0, 0)]),
        ]
        c = SphericalComplex(4, cells=cells)
        assert sorted(4 - len(rref(cell.equalities)[0]) for cell in c.cells) == [1, 1, 2, 2, 3, 3]
        got = rational_points(c, 4)
        assert got == rational_points_grid(c, 4)
        assert got == tuple(
            xi for xi in primitive_vectors_py(4, 4) if any(cell.satisfied_by(xi) for cell in cells)
        )

    @pytest.mark.parametrize("block_limit", [None, 1, 10**9])
    def test_cells_with_coordinates_of_one_sign(self, block_limit, monkeypatch):
        # an inequality with one nonzero entry fixes the sign of a free
        # coordinate, which then walks [0, h]: k = 1 to 3 free coordinates,
        # 0 to k of them fixed, negative signs, rows with two entries
        if block_limit is not None:
            monkeypatch.setattr(sphdual, "_BLOCK_LIMIT", block_limit)
        big = 2**61
        cells = [
            LinearSystem.make(4, [(1, 1, 1, 1)], [(0, 1, -1, 0)]),
            LinearSystem.make(4, [(1, 0, 0, -2)], [(0, -1, 0, 0), (0, 1, 1, 0)]),
            LinearSystem.make(4, [(1, 2, 0, 0)], [(0, 0, 1, 0), (1, 0, 0, -1)]),
            LinearSystem.make(4, [(2, 1, -1, 1)], [(0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)]),
            LinearSystem.make(4, [(1, 0, 1, 0), (0, 1, 0, -1)], [(0, 0, 1, 1)]),
            LinearSystem.make(4, [(1, 0, 0, 1), (0, 1, -2, 0)], [(0, 0, -1, 0), (0, 0, 1, -3)]),
            LinearSystem.make(4, [(1, 1, 0, 0), (0, 0, 1, 1)], [(0, -1, 0, 0), (0, 0, 0, -1)]),
            LinearSystem.make(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, -1)], []),
            LinearSystem.make(4, [(1, -2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [(0, -1, 0, 0)]),
            # past the int64 guard: the stack of this shape is walked as objects
            LinearSystem.make(4, [(3, big, -big, 0)], [(0, -1, 0, 0), (0, 0, 0, 1)]),
        ]
        shapes = sorted(
            (4 - len(cell.equalities), sum(row.count(0) == 3 for row in cell.inequalities)) for cell in cells
        )
        assert shapes == [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 1), (3, 2), (3, 3)]
        assert any(x < 0 for cell in cells for row in cell.inequalities if row.count(0) == 3 for x in row)
        c = SphericalComplex(4, cells=cells)
        for height in (3, 5):
            got = rational_points(c, height)
            assert got == rational_points_grid(c, height), height
            if height == 3:
                assert got == tuple(
                    xi for xi in primitive_vectors_py(4, 3) if any(cell.satisfied_by(xi) for cell in cells)
                )

    def test_split_link_walks_half_ranges(self, monkeypatch):
        # each of the 16 cells bounds both free coordinates by a sign
        # condition, so the walk is 13^2 grid vectors per cell instead of 25^2
        grid_blocks = sphdual._grid_blocks
        walked = []

        def spy(*args):
            blocks = list(grid_blocks(*args))
            walked.append((args, sum(map(len, blocks))))
            return iter(blocks)

        monkeypatch.setattr(sphdual, "_grid_blocks", spy)
        c = loglim_outer(split_link_generators((2, 3), (2, 5)))
        assert len(c.cells) == 16
        assert rational_points(c, 12) == rational_points_grid(c, 12)
        assert walked and all(w == ((2, 12, 2), 13**2) for w in walked), walked

    def test_ray_cells_are_read_not_walked(self, monkeypatch):
        # a cell of cone dimension 1 holds at most plus and minus its
        # generator, so no stack and no grid block is built for it
        monkeypatch.setattr(sphdual, "_BLOCK_LIMIT", 40)
        walks = []

        def spy(*args):
            walks.append(args)
            return iter(())

        monkeypatch.setattr(sphdual, "_stack_points", spy)
        monkeypatch.setattr(sphdual, "_grid_blocks", spy)
        rays = SphericalComplex(2, cells=[
            LinearSystem.make(2, [(1, -2)], [(0, 1)]),
            LinearSystem.make(2, [(0, 1)], []),
            LinearSystem.make(2, [(3, 7)], [(-1, 0)]),
        ])
        got = rational_points(rays, 100)
        assert got == rational_points_grid(rays, 100) == ((-7, 3), (-1, 0), (1, 0), (2, 1))
        assert walks == []

    def test_ray_and_line_cells_match_grid_reference(self):
        rng = random.Random(24)
        complexes = [spherical_dual(random_laurent(rng, ("x", "y"), max_terms=6)) for _ in range(30)]
        complexes += [
            # a ray taller than most heights, beside a line
            SphericalComplex(2, cells=[
                LinearSystem.make(2, [(7, 2)], [(0, 1)]),
                LinearSystem.make(2, [(1, 1)], []),
            ]),
            # x >= 0, y - x >= 0, -y >= 0 hide the equalities x = y = 0: the
            # z-axis line, with all three coordinates free
            SphericalComplex(3, cells=[LinearSystem.make(3, [], [(1, 0, 0), (-1, 1, 0), (0, -1, 0)])]),
            # u = x - 2z >= 0, v - u >= 0, -v >= 0 for v = y + z hide u = v = 0:
            # the ray through (2, -1, 1), with three free coordinates, beside a plane
            SphericalComplex(3, cells=[
                LinearSystem.make(3, [], [(1, 0, -2), (-1, 1, 3), (0, -1, -1), (0, 0, 1)]),
                LinearSystem.make(3, [(1, 1, 1)], []),
            ]),
        ]
        assert rational_points(complexes[-3], 6) == ((-1, 1), (1, -1))
        assert rational_points(complexes[-3], 7) == ((-2, 7), (-1, 1), (1, -1))
        assert rational_points(complexes[-2], 1) == ((0, 0, -1), (0, 0, 1))
        assert (2, -1, 1) not in rational_points(complexes[-1], 1)
        assert (2, -1, 1) in rational_points(complexes[-1], 2)
        for c in complexes:
            for height in range(1, 13):
                assert rational_points(c, height) == rational_points_grid(c, height), (c.cells, height)

    def test_ray_directions_are_the_rays_of_rational_points(self):
        rng = random.Random(25)
        variables = ("x", "y", "z")
        found_in_3 = 0
        for trial in range(40):
            m = 2 + trial % 2
            c = spherical_dual(random_laurent(rng, variables[:m], max_terms=6))
            if m == 3:
                c = intersect(c, spherical_dual(random_laurent(rng, variables, max_terms=6)))
            rays = ray_directions(c)
            height = max((max(map(abs, r)) for r in rays), default=1)
            one_dimensional = SphericalComplex(m, [cell for cell in c.cells if cone_dimension(cell) == 1])
            assert rays == rational_points(one_dimensional, height), trial
            found_in_3 += m == 3 and bool(rays)
        assert found_in_3 >= 5

    def test_grid_too_large_to_index_is_refused(self):
        # (2 * 2_000_000 + 1)^3 > 2^63: the walk is refused, not started
        with pytest.raises(ValueError, match="too large"):
            next(sphdual._grid_blocks(3, 2_000_000))
        with pytest.raises(ValueError, match="too large"):
            rational_points(SphericalComplex.full(3), 2_000_000)
        assert rational_points(SphericalComplex.full(1), 2**62) == ((-1,), (1,))

    def test_walk_budget_counts_every_walked_cell(self, monkeypatch):
        # a narrow cone of the 4-sphere: (2h+1)^4 grid vectors, few of them kept
        narrow = LinearSystem.make(4, (), [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1)])
        c = SphericalComplex(4, [narrow])
        assert 43**4 <= sphdual._WALK_BUDGET < 45**4
        assert len(rational_points(c, 21)) > 10_000  # just under the budget: walked
        with pytest.raises(ValueError, match="too large"):
            rational_points(c, 22)
        # the sum over cells: two planes (k = 2) and a ray, which is read, not walked
        plane_a = LinearSystem.make(3, [(0, 0, 1)], [(1, 0, 0)])
        plane_b = LinearSystem.make(3, [(1, 0, 0)], [(0, 1, 0)])
        ray = LinearSystem.make(3, [(1, 0, 0), (0, 1, 0)], [(0, 0, 1)])
        c = SphericalComplex(3, [plane_a, plane_b, ray])
        monkeypatch.setattr(sphdual, "_WALK_BUDGET", 2 * 7**2)
        expected = rational_points_grid(c, 3)
        assert rational_points(c, 3) == expected
        monkeypatch.setattr(sphdual, "_WALK_BUDGET", 2 * 7**2 - 1)
        with pytest.raises(ValueError, match=f"{2 * 7**2} grid vectors is too large"):
            rational_points(c, 3)

    def test_grid_blocks_are_bounded_and_in_lex_order(self, monkeypatch):
        monkeypatch.setattr(sphdual, "_BLOCK_LIMIT", 40)
        for dim, height, fixed in ((1, 100, 0), (2, 30, 0), (3, 2, 0), (2, 3, 0), (3, 4, 2)):
            blocks = list(sphdual._grid_blocks(dim, height, fixed))
            assert all(0 < len(b) <= 40 for b in blocks)
            grid = [tuple(row) for b in blocks for row in b.tolist()]
            ranges = [range(height + 1)] * fixed + [range(-height, height + 1)] * (dim - fixed)
            assert grid == list(itertools.product(*ranges))

    def test_blocked_walk_of_a_full_dimensional_cell(self, monkeypatch):
        monkeypatch.setattr(sphdual, "_BLOCK_LIMIT", 40)
        half_space = SphericalComplex(3, cells=[LinearSystem.make(3, [], [(1, 0, 0)])])
        plane = SphericalComplex(4, cells=[LinearSystem.make(4, [(1, 2, 0, -1)], [(0, 1, 1, 0)])])
        for c in (half_space, plane):
            got = rational_points(c, 4)
            assert got == rational_points_grid(c, 4)
            assert got == tuple(
                xi for xi in primitive_vectors_py(c.dim, 4) if c.cells[0].satisfied_by(xi)
            )
        assert rational_points(SphericalComplex.full(3), 4) == tuple(primitive_vectors_py(3, 4))

    def test_object_dtype_past_the_int64_guard(self, monkeypatch):
        big = 2**61
        cells = [
            LinearSystem.make(3, [(3, big, -big)], [(0, 1, 0)]),
            LinearSystem.make(3, [(1, 1, -1)], [(big + 1, -big, 0)]),
            LinearSystem.make(3, [(1, -1, 0)], [(0, 0, 1)]),
            LinearSystem.make(3, [(0, 2, 1)], []),
        ]
        c = SphericalComplex(3, cells=cells)
        expected = rational_points_grid(c, 3)
        assert expected == tuple(
            xi for xi in primitive_vectors_py(3, 3) if any(cell.satisfied_by(xi) for cell in cells)
        )
        assert (0, 1, 1) in expected and (1, 1, 2) in expected
        # every cell leaves two coordinates free: with a large limit the
        # int64-safe cells share one object-dtype stack with the others
        for limit in (sphdual._BLOCK_LIMIT, 1, 10**9):
            monkeypatch.setattr(sphdual, "_BLOCK_LIMIT", limit)
            assert rational_points(c, 3) == expected, limit


    def test_walk_commutes_with_unimodular_maps(self):
        # the limit set moves with a unimodular change of coordinates
        # (Bergman 1971): xi is a direction of f_A exactly when A xi is one
        # of f, although the walks of f_A see other pivots and denominators
        rng = random.Random(44)
        variables = ("x", "y", "z", "w")
        cases = []
        for trial in range(12):
            m = 2 + trial % 3
            cases.append(([random_laurent(rng, variables[:m], max_terms=6)], *_unimodular(rng, m), 3))
        block = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 2), (0, 0, 1, 3))
        block_inv = ((1, -1, 0, 0), (-1, 2, 0, 0), (0, 0, 3, -2), (0, 0, -1, 1))
        cases.append((split_link_generators((2, 3), (2, 5)), block, block_inv, 6))
        lifts_moved = 0
        for gens, A, A_inv, height in cases:
            c = loglim_outer(gens)
            c_A = loglim_outer([_pulled_back(g, A) for g in gens])
            for xi in rational_points(c_A, height):
                assert contains(c, [dot(row, xi) for row in A]), (gens, A, xi)
            for eta in rational_points(c, height):
                assert contains(c_A, [dot(row, eta) for row in A_inv]), (gens, A, eta)
            lifts = [{str(nullspace_lift(cell.equalities, cell.dim)[1:]) for cell in x.cells} for x in (c, c_A)]
            lifts_moved += lifts[0] != lifts[1]
        assert lifts_moved >= 10

def _unimodular(rng, m):
    """A seeded product of elementary matrices I + c e_ij, and its inverse."""
    A = [[int(i == j) for j in range(m)] for i in range(m)]
    A_inv = [row[:] for row in A]
    for _ in range(2 * m):
        i, j = rng.sample(range(m), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in A:
            row[j] += c * row[i]
        A_inv[i] = [x - c * y for x, y in zip(A_inv[i], A_inv[j])]
    return A, A_inv


def _pulled_back(f, A):
    """f_A, the polynomial with support A^T . supp f: xi is in its dual
    exactly when A xi is in the dual of f."""
    return LaurentPolynomial(f.variables, {tuple(dot(col, a) for col in zip(*A)): c for a, c in f.items()})


class TestCellDimensions:
    def test_triangle_max_dim_zero(self):
        assert max_cell_dimension(spherical_dual(parse("x+y+1", ("x", "y")))) == 0

    def test_tetrahedron_max_dim_one(self):
        c = spherical_dual(parse("x+y+z+1", ("x", "y", "z")))
        assert max_cell_dimension(c) == 1

    def test_empty_and_full(self):
        assert max_cell_dimension(SphericalComplex.empty(2)) is None
        assert max_cell_dimension(SphericalComplex.full(3)) == 2

    def test_ray_directions_of_line_cell(self):
        c = spherical_dual(parse("l*m^6+1", ("m", "l")))
        assert ray_directions(c) == ((-1, 6), (1, -6))


def _affine_support(rng, m, rank):
    """Support of a few points spanning an affine subspace of the given rank."""
    base = [rng.randint(-2, 2) for _ in range(m)]
    gens = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(rank)]
    pts = set()
    for _ in range(rng.randint(2, 6)):
        coeffs = [rng.randint(-2, 2) for _ in range(rank)]
        pts.add(tuple(b + sum(c * g[i] for c, g in zip(coeffs, gens)) for i, b in enumerate(base)))
    return pts


def _support_with_edge_points(rng, m):
    """Random support plus points on the line through two of its points."""
    a, b = (tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(2))
    pts = {tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(0, 4))}
    pts.update(tuple(x + k * (y - x) for x, y in zip(a, b)) for k in (-1, 0, 1, 2))
    return pts


class TestEdgeConstruction:
    def test_matches_all_pairs_oracle(self):
        rng = random.Random(31)
        variables = ("x", "y", "z", "w")
        kinds = ("random", "line", "plane", "edge_points", "two_points")
        checked = 0
        for trial in range(80):
            m = 1 + trial % 4
            kind = kinds[(trial // 4) % len(kinds)]
            if kind == "random":
                pts = {tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(2, 9))}
            elif kind == "line":
                pts = _affine_support(rng, m, 1)
            elif kind == "plane":
                pts = _affine_support(rng, m, 2)
            elif kind == "edge_points":
                pts = _support_with_edge_points(rng, m)
            else:
                pts = {tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(2)}
            f = LaurentPolynomial(variables[:m], {p: rng.randint(1, 9) for p in pts})
            expected = SphericalComplex(m, cells=support_cells_all_pairs(pts))
            got = json.dumps(spherical_dual(f).to_json_dict(), sort_keys=True)
            assert got == json.dumps(expected.to_json_dict(), sort_keys=True), (m, kind, sorted(pts))
            checked += len(pts) >= 2
        assert checked >= 60

    @pytest.mark.parametrize(
        "points, edges",
        [
            ([(0, 0), (1, 0), (0, 1), (1, 1)], 4),
            ([(i, j) for i in range(3) for j in range(3)], 4),
            (list(itertools.product((0, 1), repeat=3)), 12),
            ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 6),
            ([tuple(s * (i == k) for k in range(3)) for i in range(3) for s in (1, -1)], 12),
            ([(2, -1, 3), (0, 1, -1)], 1),
            ([(1,), (0,)], 0),
        ],
        ids=["square", "square_with_centre_and_midpoints", "cube", "simplex", "octahedron",
             "two_points_in_3d", "x_plus_1"],
    )
    def test_one_cell_per_edge(self, points, edges):
        m = len(points[0])
        f = LaurentPolynomial(("x", "y", "z")[:m], {p: 1 for p in points})
        c = spherical_dual(f)
        assert len(c.cells) == edges
        assert cell_dimensions(c) == (m - 2,) * edges


class TestMaximalReduction:
    def test_contained_cells_are_dropped(self):
        ray = LinearSystem.make(2, equalities=[(1, -1)], inequalities=[(0, 1)])
        quadrant = LinearSystem.make(2, inequalities=[(1, 0), (0, 1)])
        assert reduce_to_maximal([ray, quadrant]) == (quadrant,)

    def test_dropped_cells_are_not_tried_as_containers(self, monkeypatch):
        # two planes in three variables: 4 of the intersection's 10 nonzero
        # pieces lie inside others; trying every ordered pair, also against
        # dropped pieces, took 66 containment tests
        calls = []

        def counting(inner, outer):
            calls.append((inner, outer))
            return cone_contains(inner, outer)

        variables = ("x", "y", "z")
        f, g = parse("x+y+z+1", variables), parse("x+2*y+3*z+4", variables)
        df, dg = spherical_dual(f), spherical_dual(g)
        pieces = {intersect_systems(a, b) for a in df.cells for b in dg.cells}
        pieces = [s for s in sorted(pieces) if cone_dimension(s) > 0]
        monkeypatch.setattr(sphdual, "cone_contains", counting)
        cells = reduce_to_maximal(pieces)
        assert len(calls) == 44
        assert len(cells) == 6 and cells == reduce_to_maximal_all_pairs(pieces)
        # intersect keeps the 6 cells with no test: each lies in the relative
        # interiors of both parents; only the 4 pieces on a parent's boundary
        # are tested
        calls.clear()
        assert intersect(df, dg).cells == cells
        assert len(calls) == 7

    def test_same_cells_as_trying_every_pair(self):
        # sphdual.intersect's pieces of the duals of two random supports in
        # {0, 1}^m, m 2-4, whose cells often nest
        rng = random.Random(2929)
        dropped = nested_in_dropped = 0
        for _ in range(100):
            m = rng.randint(2, 4)
            variables = ("x", "y", "z", "w")[:m]
            c1, c2 = (
                spherical_dual(random_laurent(rng, variables, max_terms=m + 1, exp_lo=0, exp_hi=1, min_terms=2))
                for _ in range(2)
            )
            pieces = {intersect_systems(a, b) for a in c1.cells for b in c2.cells}
            pieces = sorted(s for s in pieces if cone_dimension(s) > 0)
            expected = reduce_to_maximal_all_pairs(pieces)
            assert reduce_to_maximal(pieces) == expected, pieces
            lost = [a for a in pieces if a not in expected]
            dropped += len(lost)
            # a piece inside a dropped piece: the skip saves its tests
            nested_in_dropped += sum(cone_contains(a, b) for a in pieces for b in lost if a is not b)
        assert dropped >= 50 and nested_in_dropped >= 20, (dropped, nested_in_dropped)

    def test_no_cell_contains_another_after_dual(self):
        rng = random.Random(55)
        for _ in range(8):
            m = rng.choice((2, 3))
            f = random_laurent(rng, ("x", "y", "z")[:m], max_terms=5)
            cells = spherical_dual(f).cells
            from loglimset.exactgeom import cone_contains

            for i, a in enumerate(cells):
                for j, b in enumerate(cells):
                    if i != j:
                        assert not cone_contains(a, b)


class TestFanIntersection:
    """intersect of two antichains of one fan keeps each piece inside both
    parents' relative interiors untested; its cells are still those of the
    all-pairs reduction of every nonzero piece."""

    @staticmethod
    def all_pairs(cells1, cells2):
        pieces = {intersect_systems(a, b) for a in cells1 for b in cells2}
        return reduce_to_maximal_all_pairs(s for s in pieces if cone_dimension(s) > 0)

    @pytest.fixture
    def reductions(self, monkeypatch):
        """The (cells, maximal) arguments of every reduce_to_maximal call."""
        calls = []
        original = sphdual.reduce_to_maximal

        def spy(cells, maximal=()):
            cells = list(cells)
            calls.append((cells, maximal))
            return original(cells, maximal)

        monkeypatch.setattr(sphdual, "reduce_to_maximal", spy)
        return calls

    def test_same_cells_as_all_pairs_reduction(self, reductions):
        # 2 or 3 generators, m 2-4, exponents in {0, 1} (cells nest) or -3..3;
        # every fourth ideal starts from a union, which has no fan property
        rng = random.Random(3131)
        untested = boundary = boundary_kept = unions = chained = 0
        for trial in range(300):
            m = rng.randint(2, 4)
            variables = ("x", "y", "z", "w")[:m]
            lo, hi = ((0, 1), (-3, 3))[trial % 2]
            gens = [
                random_laurent(rng, variables, max_terms=m + 1, exp_lo=lo, exp_hi=hi, min_terms=2)
                for _ in range(rng.randint(2, 3))
            ]
            duals = [spherical_dual(g) for g in gens]
            if trial % 4 == 3:
                duals[:2] = [union(duals[0], duals[1])]
            result, expected = duals[0], duals[0].cells
            for dual in duals[1:]:
                dual.cells  # built before the intersection's reduction is read
                fan = result._fan
                chained += fan and result is not duals[0]
                reductions.clear()
                result = intersect(result, dual)
                expected = self.all_pairs(expected, dual.cells)
                assert result.cells == expected, gens
                ((pieces, maximal),) = reductions
                if not fan:
                    unions += 1
                    assert not maximal and not result._fan
                    continue
                assert result._fan and set(maximal) <= set(expected)
                untested += len(maximal)
                tested = [s for s in pieces if s not in maximal]
                boundary += len(tested)
                boundary_kept += sum(s in expected for s in tested)
        # the containment fallback is reached, and some boundary pieces survive it
        counts = (untested, boundary, boundary_kept, unions, chained)
        assert untested >= 500 and boundary >= 150 and boundary_kept >= 30 and unions >= 20 and chained >= 50, counts

    def test_nested_cells_without_fan_are_reduced(self, reductions):
        # the ray lies in the quadrant's boundary and in its own relative
        # interior: only the containment reduction drops it
        ray = LinearSystem.make(2, equalities=[(1, -1)], inequalities=[(0, 1)])
        quadrant = LinearSystem.make(2, inequalities=[(1, 0), (0, 1)])
        nested = SphericalComplex(2, [ray, quadrant])
        assert intersect(nested, SphericalComplex.full(2)).cells == (quadrant,)
        assert reductions[-1][1] == set()

    def test_fan_property_of_each_construction(self):
        f, g = parse("x+y+1", ("x", "y")), parse("x-y", ("x", "y"))
        fans = [spherical_dual(f), SphericalComplex.full(2), intersect(spherical_dual(f), spherical_dual(g))]
        assert all(c._fan for c in fans)
        others = [SphericalComplex(2, spherical_dual(f).cells), union(*fans[:2]), SphericalComplex.empty(2)]
        assert not any(c._fan for c in others)
        assert not intersect(others[0], fans[0])._fan


class TestFullSphere:
    """The whole sphere is the complex whose one cell has no rows."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_row_free_cell_is_the_full_sphere(self, m):
        row_free = SphericalComplex(m, [LinearSystem.make(m)])
        full = SphericalComplex.full(m)
        assert row_free == full and row_free.full_sphere
        assert row_free.to_json_dict() == full.to_json_dict() == {"dim": m, "full_sphere": True, "cells": []}

    def test_row_free_cell_absorbs_every_other_cell(self):
        half_plane = LinearSystem.make(2, [], [(1, 0)])
        c = SphericalComplex(2, [half_plane, LinearSystem.make(2)])
        assert c.cells == (LinearSystem.make(2),)
        assert c == SphericalComplex.full(2)
        assert not SphericalComplex(2, [half_plane]).full_sphere

    def test_union_and_intersect_with_the_full_sphere(self):
        rng = random.Random(91)
        for trial in range(8):
            m = 2 + trial % 3
            dual = spherical_dual(random_laurent(rng, ("x", "y", "z", "w")[:m], max_terms=5))
            full = SphericalComplex.full(m)
            row_free = SphericalComplex(m, [LinearSystem.make(m)])
            assert union(dual, row_free) == full and union(row_free, dual) == full
            assert intersect(full, dual) == dual and intersect(dual, full) == dual

    @pytest.mark.parametrize("m, height", [(1, 3), (2, 3), (3, 2), (4, 1)])
    def test_every_direction_belongs(self, m, height):
        full = SphericalComplex.full(m)
        expected = tuple(primitive_vectors_py(m, height))
        assert rational_points(full, height) == expected
        assert all(contains(full, xi) for xi in expected)

    def test_cell_dimensions_and_rays(self):
        for m in (1, 2, 3, 4):
            assert cell_dimensions(SphericalComplex.full(m)) == (m - 1,)
            assert max_cell_dimension(SphericalComplex.full(m)) == m - 1
        assert ray_directions(SphericalComplex.full(1)) == ((-1,), (1,))
        assert ray_directions(SphericalComplex.full(2)) == ()

    def test_support_cells_are_not_built_to_answer(self, monkeypatch):
        c = spherical_dual(parse("x+y+1", ("x", "y")))

        def refuse(support):
            raise AssertionError("the support's cells were built")

        monkeypatch.setattr(sphdual, "_support_cells", refuse)
        assert not c.full_sphere


class TestConstruction:
    def test_zero_cone_rejected_as_cell(self):
        zero = LinearSystem.make(2, equalities=[(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="zero cone"):
            SphericalComplex(2, cells=[zero])

    def test_cell_dimension_must_match(self):
        line = LinearSystem.make(3, equalities=[(1, 0, 0)])
        with pytest.raises(ValueError, match="does not match"):
            SphericalComplex(2, cells=[line])


class TestJson:
    def test_triangle_golden(self):
        c = spherical_dual(parse("x+y+1", ("x", "y")))
        golden = {
            "dim": 2,
            "full_sphere": False,
            "cells": [
                {"eq": [[0, 1]], "ineq": [[-1, 0]]},
                {"eq": [[1, -1]], "ineq": [[0, 1]]},
                {"eq": [[1, 0]], "ineq": [[0, -1]]},
            ],
        }
        assert c.to_json_dict() == golden
        assert json.dumps(c.to_json_dict(), sort_keys=True) == json.dumps(golden, sort_keys=True)
