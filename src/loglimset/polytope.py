"""Newton polytopes of Laurent polynomials as exact lattice vertex sets.

Extreme points are found by LP filtering: a support point p is a vertex
exactly when it is not a convex combination of the remaining points q,
that is when the differences q - p have no nonnegative combination that is
zero and not all zero (``exactgeom.balance``, one exact integer LP).  A
cheap sweep over small integer directions marks most vertices first so the
LP only runs on the doubtful points.  A direction is maximised on a face of
the hull, and the lexicographically least and greatest points of a face
are vertices of it (lex order is a linear functional in the limit), so the
sweep marks both, tied or not, and it stops once every point is marked.
A direction's values are the points' coordinate columns added or
subtracted by its signs: the sweep keeps the partial sums at every depth
and rebuilds only those past the prefix shared with the last direction.

A point that is not a vertex does not change the hull, so each point an LP
proves to be a non-vertex leaves the columns of every later LP.  The
doubtful points are tested deepest first, nearest the centroid by an exact
integer key, so interior points drop out before the vertices' LPs run.
Each LP gets its columns nearest first, by squared length: under Bland's
rule the pivot count depends on the column order, and this order about
halves it on product supports.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import add, mul, sub
from typing import Iterable

from .exactgeom import balance, int_entries, exact_rank
from .laurent import ExponentVector, LaurentPolynomial

_PREFILTER_DIM_LIMIT = 4


def _sweep_directions(dim: int) -> list[tuple[int, ...]]:
    if dim <= _PREFILTER_DIM_LIMIT:
        return [d for d in itertools.product((-1, 0, 1), repeat=dim) if any(d)]
    dirs = []
    for i in range(dim):
        for s in (1, -1):
            dirs.append(tuple(s if j == i else 0 for j in range(dim)))
    dirs.append((1,) * dim)
    dirs.append((-1,) * dim)
    return dirs


@functools.cache
def _sweep_steps(dim: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The sweep directions in order as (k, entries from k on), k the length
    of the prefix each shares with the one before."""
    dirs = _sweep_directions(dim)
    shared = [next(i for i, (a, b) in enumerate(zip(d, prev)) if a != b) for prev, d in zip(dirs, dirs[1:])]
    return tuple((k, d[k:]) for k, d in zip([0] + shared, dirs))


def extreme_points(points: Iterable[ExponentVector], dim: int) -> frozenset[ExponentVector]:
    """The vertices of the convex hull of a finite lattice point set."""
    pts = sorted({int_entries(p, "point") for p in points})
    for p in pts:
        if len(p) != dim:
            raise ValueError(f"point {p} has length {len(p)}, expected {dim}")
    if len(pts) <= 2:
        return frozenset(pts)
    vertices: set[ExponentVector] = set()
    last = len(pts) - 1
    columns = list(zip(*pts))
    # prefix[k]: the values of the first k coordinates of the last direction
    prefix = [[0] * len(pts)]
    for k, tail in _sweep_steps(dim):
        del prefix[k + 1 :]
        for c, column in zip(tail, columns[k:]):
            prefix.append(list(map(add if c > 0 else sub, prefix[-1], column)) if c else prefix[-1])
        values = prefix[-1]
        best = max(values)
        # pts is sorted: the lexicographically least and greatest maximisers
        vertices.add(pts[values.index(best)])
        vertices.add(pts[last - values[::-1].index(best)])
        if len(vertices) == len(pts):
            return frozenset(vertices)
    # depth: n^2 times the squared distance to the centroid, ties by point
    n = len(pts)
    sums = [sum(column) for column in zip(*pts)]
    doubtful = sorted(
        (p for p in pts if p not in vertices),
        key=lambda p: (sum((n * x - s) ** 2 for x, s in zip(p, sums)), p),
    )
    kept = list(pts)
    for p in doubtful:
        # p = sum lam_q q with sum lam_q = 1 exactly when the q - p balance;
        # nearest first, which shortens Bland's pivot sequence
        diffs = sorted(
            (tuple(map(sub, q, p)) for q in kept if q != p),
            key=lambda r: (sum(map(mul, r, r)), r),
        )
        if balance(diffs, diffs) is None:
            vertices.add(p)
        else:
            kept.remove(p)  # conv(kept) stays the hull without p
    return frozenset(vertices)


@dataclass(frozen=True)
class LatticePolytope:
    """Convex hull of lattice points, stored as its vertex set.

    The empty polytope, the Newton polytope of the zero polynomial, is the
    one with no vertices; a monomial's is a single vertex.
    """

    dim: int
    vertices: frozenset[ExponentVector]

    @classmethod
    def empty(cls, dim: int) -> "LatticePolytope":
        return cls(dim, frozenset())

    @classmethod
    def from_points(cls, dim: int, points: Iterable[ExponentVector]) -> "LatticePolytope":
        return cls(dim, extreme_points(points, dim))

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def dimension(self) -> int | None:
        """Affine dimension; None for the empty polytope."""
        if self.is_empty:
            return None
        verts = sorted(self.vertices)
        base = verts[0]
        diffs = [tuple(v - b for v, b in zip(p, base)) for p in verts[1:]]
        return exact_rank(diffs) if diffs else 0

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "empty": self.is_empty,
            "vertices": sorted(list(v) for v in self.vertices),
        }


def newton_polytope(f: LaurentPolynomial) -> LatticePolytope:
    """Convex hull of the exponent vectors of f; empty exactly for f = 0."""
    return LatticePolytope.from_points(len(f.variables), f.support())


def minkowski_sum(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    """Vertices of {a + b : a in P, b in Q}; empty if either factor is."""
    if p.dim != q.dim:
        raise ValueError(f"ambient dimensions differ: {p.dim} vs {q.dim}")
    sums = {tuple(a + b for a, b in zip(u, v)) for u in p.vertices for v in q.vertices}
    return LatticePolytope.from_points(p.dim, sums)
