import dataclasses
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import in_convex_hull_fraction, load_bench_module, random_laurent
from loglimset import polytope
from loglimset.exactgeom import balance, exact_rank
from loglimset.laurent import MAX_EXPONENT, LaurentPolynomial, parse
from loglimset.polytope import (
    LatticePolytope,
    _sweep_directions,
    extreme_points,
    minkowski_sum,
    newton_polytope,
)


class TestNewtonPolytope:
    def test_triangle(self):
        p = newton_polytope(parse("x+y+1", ("x", "y")))
        assert p.vertices == {(1, 0), (0, 1), (0, 0)}
        assert not p.is_empty

    def test_segment(self):
        p = newton_polytope(parse("l*m^6+1", ("m", "l")))
        assert p.vertices == {(6, 1), (0, 0)}

    def test_zero_polynomial_gives_empty(self):
        p = newton_polytope(LaurentPolynomial.zero(("x", "y")))
        assert p.is_empty
        assert p.vertices == frozenset()
        # the empty polytope is not the single origin point
        assert p != newton_polytope(parse("1", ("x", "y")))

    def test_empty_is_the_polytope_with_no_vertices(self):
        for m in (1, 2, 3):
            empty = LatticePolytope.empty(m)
            assert LatticePolytope.from_points(m, []) == empty
            assert newton_polytope(LaurentPolynomial.zero(("x", "y", "z")[:m])) == empty
            assert empty.to_json_dict() == {"dim": m, "empty": True, "vertices": []}
            assert empty.dimension() is None
        assert [f.name for f in dataclasses.fields(LatticePolytope)] == ["dim", "vertices"]

    def test_interior_points_are_dropped(self):
        p = newton_polytope(parse("x^2 + x + 1", ("x", "y")))
        assert p.vertices == {(0, 0), (2, 0)}
        # (2, 2) sits on the edge from (4, 0) to (0, 4), (1, 1) is interior
        q = newton_polytope(parse("x^2*y^2 + x^4 + y^4 + 1 + x*y", ("x", "y")))
        assert q.vertices == {(0, 0), (4, 0), (0, 4)}


class TestMinkowskiSum:
    def test_unit_square(self):
        a = LatticePolytope.from_points(2, [(0, 0), (1, 0)])
        b = LatticePolytope.from_points(2, [(0, 0), (0, 1)])
        s = minkowski_sum(a, b)
        assert s.vertices == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_translation_by_point(self):
        p = newton_polytope(parse("x+y+1", ("x", "y")))
        t = LatticePolytope.from_points(2, [(2, -3)])
        assert minkowski_sum(p, t).vertices == {(3, -3), (2, -2), (2, -3)}

    def test_matches_product_support(self):
        f = parse("x+y", ("x", "y"))
        g = parse("x-y", ("x", "y"))
        assert minkowski_sum(newton_polytope(f), newton_polytope(g)) == newton_polytope(f * g)
        assert newton_polytope(f * g).vertices == {(2, 0), (0, 2)}

    def test_empty_absorbs(self):
        p = newton_polytope(parse("x+y+1", ("x", "y")))
        e = LatticePolytope.empty(2)
        assert minkowski_sum(p, e).is_empty
        assert minkowski_sum(e, p).is_empty

    def test_each_vertex_has_unique_decomposition(self):
        rng = random.Random(31)
        for _ in range(30):
            f = random_laurent(rng, ("x", "y"), max_terms=5)
            g = random_laurent(rng, ("x", "y"), max_terms=5)
            p, q = newton_polytope(f), newton_polytope(g)
            s = minkowski_sum(p, q)
            for v in s.vertices:
                decompositions = [
                    (a, b)
                    for a in p.vertices
                    for b in q.vertices
                    if tuple(x + y for x, y in zip(a, b)) == v
                ]
                assert len(decompositions) == 1


class TestDimension:
    def test_point_segment_triangle(self):
        assert LatticePolytope.from_points(2, [(3, 4)]).dimension() == 0
        assert LatticePolytope.from_points(2, [(6, 1), (0, 0)]).dimension() == 1
        assert newton_polytope(parse("x+y+1", ("x", "y"))).dimension() == 2

    def test_empty_dimension_is_none(self):
        assert LatticePolytope.empty(2).dimension() is None
        assert LatticePolytope.empty(3).dimension() is None

    def test_degenerate_in_space(self):
        p = LatticePolytope.from_points(3, [(0, 0, 0), (1, 1, 0), (2, 2, 0)])
        assert p.dimension() == 1


class TestFactProperties:
    def test_product_polytope_is_minkowski_sum(self):
        rng = random.Random(404)
        for _ in range(40):
            m = rng.choice((2, 3))
            variables = ("x", "y", "z")[:m]
            f = random_laurent(rng, variables)
            g = random_laurent(rng, variables)
            left = newton_polytope(f * g)
            right = minkowski_sum(newton_polytope(f), newton_polytope(g))
            assert left == right

    def test_sum_polytope_inside_union_hull(self):
        rng = random.Random(405)
        for _ in range(40):
            m = rng.choice((2, 3))
            variables = ("x", "y", "z")[:m]
            f = random_laurent(rng, variables)
            g = random_laurent(rng, variables)
            union_hull = extreme_points(f.support() | g.support(), m)
            assert newton_polytope(f + g).vertices <= union_hull


class TestExtremePoints:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            extreme_points([(1, 2, 3)], 2)

    def test_collinear(self):
        pts = [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert extreme_points(pts, 2) == {(0, 0), (3, 3)}
        assert extreme_points(np.array(pts), 2) == {(0, 0), (3, 3)}

    @pytest.mark.parametrize("point", [(0.5, 1), (1, Fraction(3, 2)), (2.0, 2)])
    def test_entries_must_be_integers(self, point):
        with pytest.raises(ValueError, match="non-integer"):
            extreme_points([(0, 0), point, (3, 1)], 2)

    def test_full_dimensional_supports_pass_the_newton_oracle(self):
        # the benchmark's newton oracle certifies each vertex by its facets;
        # a support is the product of itself and the origin
        check_newton = load_bench_module("oracles").check_newton
        rng = random.Random(2024)
        checked = 0
        while checked < 60:
            m = rng.randint(2, 4)
            support = sorted({tuple(rng.randint(-4, 4) for _ in range(m)) for _ in range(rng.randint(m + 1, 12))})
            if exact_rank([[a - b for a, b in zip(p, support[0])] for p in support[1:]]) < m:
                continue
            stdout = json.dumps(LatticePolytope.from_points(m, support).to_json_dict())
            data = {"dim": m, "f": support, "g": [(0,) * m], "product": support}
            assert check_newton(data, stdout) is None, support
            checked += 1

    @pytest.mark.parametrize("m", [3, 4])
    def test_flat_supports_match_the_hull_lp(self, m):
        # collinear and coplanar point sets: every point is on the boundary
        # of the ambient space, so only the LP settles which are vertices
        rng = random.Random(70 + m)
        interior = 0
        for k in range(40):
            base = [rng.randint(-3, 3) for _ in range(m)]
            spans = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(1 + k % 2)]
            pts = {
                tuple(b + sum(c * v[i] for c, v in zip(coeffs, spans)) for i, b in enumerate(base))
                for coeffs in (tuple(rng.randint(-2, 2) for _ in spans) for _ in range(rng.randint(3, 9)))
            }
            expected = {p for p in pts if not in_convex_hull_fraction(p, [q for q in pts if q != p])}
            assert extreme_points(pts, m) == expected, pts
            interior += len(pts) - len(expected)
        assert interior >= 40


def _hull_vertices(pts):
    """The vertices by the Fraction hull LP, one point against all others."""
    return {p for p in pts if not in_convex_hull_fraction(p, [q for q in pts if q != p])}


def _sweep_maximisers(pts, dim):
    """The lexicographically least and greatest maximiser of each sweep direction."""
    out = []
    for d in _sweep_directions(dim):
        values = {p: sum(a * b for a, b in zip(d, p)) for p in pts}
        best = max(values.values())
        top = sorted(p for p, v in values.items() if v == best)
        out.append((d, top[0], top[-1]))
    return out


def _sweep_vertices(pts, dim):
    """The points that the sweep marks as vertices."""
    return {p for _, first, last in _sweep_maximisers(pts, dim) for p in (first, last)}


def _dense_support(rng, m):
    """20-60 points, most of them interior or on an edge or face."""
    n = rng.randint(20, 60)
    kind = rng.choice(("box", "line", "plane"))
    if kind == "box" or (kind == "plane" and m == 2):
        radius = {2: 4, 3: 2, 4: 2, 5: 1, 6: 1}[m]
        cube = list(itertools.product(range(-radius, radius + 1), repeat=m))
        return set(rng.sample(cube, n))
    base = [rng.randint(-3, 3) for _ in range(m)]
    spans = []
    while exact_rank(spans) < (1 if kind == "line" else 2):
        spans = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(1 if kind == "line" else 2)]
    # independent spans give 61 distinct points on a line, 81 on a plane
    reach = 30 if kind == "line" else 4
    pts = set()
    while len(pts) < n:
        coeffs = [rng.randint(-reach, reach) for _ in spans]
        pts.add(tuple(b + sum(c * v[i] for c, v in zip(coeffs, spans)) for i, b in enumerate(base)))
    return pts


class TestHullLemma:
    # if q is not a vertex of conv(S), any other point p is one exactly when
    # p is not in conv(S - {p, q}), so extreme_points drops each proven
    # non-vertex from its later LPs

    # m = 5 and 6 take the axis-only sweep, and most hull LPs there have
    # 6-7 rows
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_dense_supports_match_the_fraction_hull_lp(self, m):
        rng = random.Random(1800 + m)
        dropped = 0
        for _ in range(8):
            pts = _dense_support(rng, m)
            expected = _hull_vertices(pts)
            assert extreme_points(pts, m) == expected, sorted(pts)
            dropped += len(pts) - len(expected)
        assert dropped >= 100

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_exponents_near_the_width_bound(self, m):
        # an affine image of a dense support, every coordinate within 2^57
        # of +-MAX_EXPONENT
        rng = random.Random(1810 + m)
        for _ in range(3):
            small = _dense_support(rng, m)
            scale = rng.randint(2**50, 2**56 // max(abs(x) for p in small for x in p))
            shift = [rng.choice((-1, 1)) * (MAX_EXPONENT - 2**56) for _ in range(m)]
            pts = {tuple(s + scale * x for s, x in zip(shift, p)) for p in small}
            assert max(abs(x) for p in pts for x in p) <= MAX_EXPONENT
            assert extreme_points(pts, m) == _hull_vertices(pts)

    def test_result_does_not_depend_on_the_input_order(self):
        rng = random.Random(1820)
        for _ in range(10):
            m = rng.randint(2, 4)
            pts = list(_dense_support(rng, m))
            expected = extreme_points(pts, m)
            for _ in range(3):
                rng.shuffle(pts)
                assert extreme_points(pts, m) == expected
                assert extreme_points(reversed(pts + pts[:5]), m) == expected


def _record_balance(monkeypatch):
    """Patch the hull LP; each call is recorded as (rows, balanced)."""
    calls = []

    def recording(rows, weighted, *rest):
        result = balance(rows, weighted, *rest)
        calls.append((list(rows), result is not None))
        return result

    monkeypatch.setattr(polytope, "balance", recording)
    return calls


def _tested_point(pts, rows):
    """The point whose differences to other points the rows are.

    The rows always reach every vertex, and no translate of a polytope other
    than itself fits inside it, so exactly one point qualifies."""
    (p,) = [c for c in pts if all(tuple(a + b for a, b in zip(c, r)) in pts for r in rows)]
    return p


class TestHullLpCount:
    def _check_one_call(self, pts, dim, calls):
        start = len(calls)
        extreme_points(pts, dim)
        tested, proven = [], set()
        for rows, balanced in calls[start:]:
            p = _tested_point(pts, rows)
            reached = {tuple(a + b for a, b in zip(p, r)) for r in rows}
            assert not reached & proven, (p, reached & proven)
            tested.append(p)
            if balanced:
                proven.add(p)
        assert sorted(tested) == sorted(set(pts) - _sweep_vertices(pts, dim))

    def test_one_lp_per_doubtful_point_without_proven_non_vertices(self, monkeypatch):
        calls = _record_balance(monkeypatch)
        rng = random.Random(1830)
        for _ in range(30):
            m = rng.randint(2, 4)
            self._check_one_call(_dense_support(rng, m), m, calls)

    def test_newton_products_counts(self, monkeypatch, tmp_path):
        # the traced newton-products run reads polytope.hull_lps 115 and
        # lp_vertex_ratio 0.30 on seed 1: a sweep that kept only unique
        # maxima left 160 points to the LP, 80 of them vertices
        workloads = load_bench_module("workloads")
        calls = _record_balance(monkeypatch)
        for item in workloads.build("newton-products", 1, tmp_path):
            _, path, _, names = item.argv
            variables = tuple(names.split(","))
            f = parse((tmp_path / path).read_text().strip(), variables)
            pts = set(f.support())
            assert pts == set(item.data["product"])
            self._check_one_call(pts, len(variables), calls)
        assert len(calls) == 115
        assert sum(not balanced for _, balanced in calls) == 35


def _tied_support(rng, m):
    """A support with large tied faces: part of a lattice box, a prism over
    a random base, or points on a plane."""
    kind = rng.choice(("box", "prism", "plane"))
    if kind == "box":
        widths = [rng.randint(1, 2 if m > 4 else 3) for _ in range(m)]
        box = list(itertools.product(*(range(w + 1) for w in widths)))
        return set(rng.sample(box, min(len(box), rng.randint(12, 40))))
    if kind == "prism":
        base = {tuple(rng.randint(-2, 2) for _ in range(m - 1)) for _ in range(rng.randint(3, 8))}
        return {b + (h,) for b in base for h in range(rng.randint(2, 4))}
    base = [rng.randint(-3, 3) for _ in range(m)]
    spans = []
    while exact_rank(spans) < 2:
        spans = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(2)]
    grid = [(a, c) for a in range(-2, 3) for c in range(-2, 3) if rng.random() < 0.8]
    return {tuple(b + a * u + c * v for b, u, v in zip(base, *spans)) for a, c in grid}


class TestLexExtremeMaximisers:
    # a sweep direction is maximised on a face of the hull, and the
    # lexicographically least and greatest points of a face are vertices of
    # it, so of the hull: the sweep marks both without an LP.  In 5 and 6
    # variables the sweep uses the axis directions and the two diagonals.

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_both_lex_extreme_maximisers_are_vertices(self, monkeypatch, m):
        calls = _record_balance(monkeypatch)
        rng = random.Random(2000 + m)
        ties = 0
        for _ in range(6):
            pts = _tied_support(rng, m)
            marked = _sweep_vertices(pts, m)
            for p in marked:
                assert not in_convex_hull_fraction(p, [q for q in pts if q != p]), (p, sorted(pts))
            start = len(calls)
            assert marked <= extreme_points(pts, m)
            tested = {_tested_point(pts, rows) for rows, _ in calls[start:]}
            assert not tested & marked, sorted(tested & marked)
            ties += sum(first != last for _, first, last in _sweep_maximisers(pts, m))
        assert ties >= 20, ties

    def test_result_does_not_depend_on_the_order_of_the_lp_rows(self, monkeypatch):
        rng = random.Random(2010)
        supports = [(m, _tied_support(rng, m)) for m in (2, 3, 4, 5, 6) for _ in range(3)]
        expected = [extreme_points(pts, m) for m, pts in supports]
        assert expected == [_hull_vertices(pts) for _, pts in supports]

        def shuffled(rows):
            rows = list(rows)
            rng.shuffle(rows)
            return rows

        for order in (lambda rows: rows[::-1], shuffled):
            monkeypatch.setattr(polytope, "balance", lambda rows, weighted, *rest: balance(order(rows), weighted, *rest))
            assert [extreme_points(pts, m) for m, pts in supports] == expected
