"""Spherical duals of Newton polytopes as complexes of rational cones.

A complex is a finite set of nonzero polyhedral cones (stored as integer
inequality systems and read as their intersections with the unit sphere).
The full sphere, the limit set of the zero polynomial, is the complex whose
one cell has no rows; a complex holding that cell holds nothing else.
Every query (membership, union, intersection, rational points) is answered
from the cells.  The dual of a polynomial is built from its support on
first use of its cells: they are the normal cones of the Newton polytope's
edges, the codimension-1 skeleton of the polytope's normal fan.

A support's dual, the full sphere, and an intersection of two such complexes
are each an antichain of cones of one fan.  An intersection of two of them
keeps a piece a ∩ b with no containment test when the piece's interior point
lies in the relative interior of both a and b; only the other pieces are
reduced by containment (see :func:`intersect`).
"""

from __future__ import annotations

import itertools
import math
from operator import mul, sub
from typing import Container, Iterable, Sequence

import numpy as np

from .exactgeom import (
    IntRow,
    LinearSystem,
    back_substitute,
    cone_contains,
    cone_dimension,
    int_entries,
    interior_point,
)
from .exactgeom import intersect as intersect_systems
from .laurent import ExponentVector, LaurentPolynomial
from .polytope import extreme_points

RationalDirection = tuple[int, ...]

# dot products are evaluated in int64 when safely below this bound
_INT64_SAFE = 2**62


def pair_cone(
    support: Iterable[ExponentVector],
    alpha0: ExponentVector,
    alpha1: ExponentVector,
) -> LinearSystem:
    """Directions where the support maximum is attained at both alpha0, alpha1.

    The system is the equality ``(alpha0 - alpha1) . xi = 0`` and the rows
    ``(alpha0 - alpha) . xi >= 0`` over the whole support.  The rows
    ``(alpha1 - alpha) . xi >= 0`` are left out: each is
    ``(alpha0 - alpha) - (alpha0 - alpha1)``, so modulo the equality it
    reduces to the same row.
    """
    pts = sorted({tuple(p) for p in support})
    a0 = tuple(alpha0)
    a1 = tuple(alpha1)
    if a0 == a1:
        raise ValueError("pair_cone needs two distinct support points")
    if a0 not in pts or a1 not in pts:
        raise ValueError("both points must belong to the support")
    dim = len(a0)
    ineqs = [tuple(map(sub, a0, a)) for a in pts]
    return LinearSystem.make(dim, [tuple(map(sub, a0, a1))], ineqs)


def reduce_to_maximal(cells: Iterable[LinearSystem], maximal: Container[LinearSystem] = ()) -> tuple[LinearSystem, ...]:
    """Drop each cell that another cell contains; of equal cones the lex-least
    system stays.  By transitivity every dropped cell lies in a kept one.  A
    maximal, lex-least container is never dropped, so dropped cells are skipped.
    The cells in ``maximal`` are known to be kept, and no other cell may equal
    one of them as a cone: they are never tested, but still contain others."""
    ordered = sorted(set(cells))  # each system once, so identity tells the other cells apart
    live = list(ordered)  # the cells not dropped so far
    for a in ordered:
        if a not in maximal and any(
            b is not a and cone_contains(a, b) and (b < a or not cone_contains(b, a)) for b in live
        ):
            live.remove(a)
    return tuple(live)


def _support_cells(support: frozenset[ExponentVector]) -> tuple[LinearSystem, ...]:
    # The normal cones of the Newton polytope's edges.  The normal cone of a
    # face F has dimension dim - dim F, so a vertex pair spans an edge exactly
    # when its pair cone has dimension dim - 1; distinct edge cones are never
    # nested.  In one variable the edge cone is the zero cone: no cells.
    pts = sorted(support)
    dim = len(pts[0]) if pts else 0
    if len(pts) < 2 or dim == 1:
        return ()
    vertices = sorted(extreme_points(pts, dim))
    systems = {pair_cone(pts, u, v) for u, v in itertools.combinations(vertices, 2)}
    return tuple(s for s in sorted(systems) if cone_dimension(s) == dim - 1)


class SphericalComplex:
    """Finite union of nonzero rational cones on the sphere S^(dim-1)."""

    __slots__ = ("dim", "_cells", "_support", "_fan")

    def __init__(self, dim: int, cells: Iterable[LinearSystem] = ()):
        if dim < 1:
            raise ValueError("ambient dimension must be positive")
        self.dim = dim
        self._support: frozenset[ExponentVector] | None = None
        self._fan = False  # are the cells an antichain of cones of one fan?
        kept = tuple(sorted(set(cells)))
        for cell in kept:
            if cell.dim != dim:
                raise ValueError(f"cell dimension {cell.dim} does not match {dim}")
            if cone_dimension(cell) == 0:
                raise ValueError("the zero cone cannot be a cell")
        whole = LinearSystem.make(dim)  # the cell with no rows covers every other
        self._cells: tuple[LinearSystem, ...] | None = (whole,) if whole in kept else kept

    # ------------------------------------------------------------------

    @classmethod
    def full(cls, dim: int) -> "SphericalComplex":
        complex_ = cls(dim, [LinearSystem.make(dim)])
        complex_._fan = True
        return complex_

    @classmethod
    def empty(cls, dim: int) -> "SphericalComplex":
        return cls(dim)

    @classmethod
    def _of_support(cls, dim: int, support: frozenset[ExponentVector]) -> "SphericalComplex":
        """The dual of one support, its cells built on first use."""
        complex_ = cls(dim)
        complex_._cells, complex_._support, complex_._fan = None, support, True
        return complex_

    @property
    def cells(self) -> tuple[LinearSystem, ...]:
        if self._cells is None:
            self._cells = reduce_to_maximal(_support_cells(self._support))
        return self._cells

    @property
    def full_sphere(self) -> bool:
        """Is this the whole sphere?  A support's dual never is, so this does
        not build its cells."""
        return self._cells == (LinearSystem.make(self.dim),)

    def is_empty(self) -> bool:
        return not self.cells

    def __eq__(self, other: object) -> bool:
        """Same dim and the same canonical cell tuples.  One set subdivided
        into cells two ways compares unequal."""
        if not isinstance(other, SphericalComplex):
            return NotImplemented
        return self.dim == other.dim and self.cells == other.cells

    def __repr__(self) -> str:
        return f"SphericalComplex(dim={self.dim}, {len(self.cells)} cells)"

    def to_json_dict(self) -> dict:
        full_sphere = self.full_sphere
        return {
            "dim": self.dim,
            "full_sphere": full_sphere,
            "cells": [] if full_sphere else [c.to_json_dict() for c in self.cells],
        }


def spherical_dual(f: LaurentPolynomial) -> SphericalComplex:
    """Spherical dual of the Newton polytope of f.

    The dual of the zero polynomial is the whole sphere; the dual of a single
    monomial is empty; otherwise its cells are the normal cones of the
    polytope's edges, which form the codimension-1 skeleton of its normal fan.
    """
    dim = len(f.variables)
    if f.is_zero():
        return SphericalComplex.full(dim)
    return SphericalComplex._of_support(dim, f.support())


def contains(complex_: SphericalComplex, xi: Sequence[int]) -> bool:
    """Is the direction xi (nonzero integer vector) in the complex?

    Exact row checks against the cells; the full sphere's one cell has no
    rows, so it contains every direction.
    """
    vec = int_entries(xi, "direction")
    if len(vec) != complex_.dim:
        raise ValueError(f"direction has length {len(vec)}, expected {complex_.dim}")
    if not any(vec):
        raise ValueError("the zero vector is not a direction")
    return any(cell.satisfied_by(vec) for cell in complex_.cells)


def union(c1: SphericalComplex, c2: SphericalComplex) -> SphericalComplex:
    """Set union of two complexes over the same sphere."""
    if c1.dim != c2.dim:
        raise ValueError("ambient dimensions differ")
    return SphericalComplex(c1.dim, cells=reduce_to_maximal(c1.cells + c2.cells))


def _open_rows(cell: LinearSystem) -> list[IntRow]:
    """The inequalities positive at the cell's interior point.  A point of the
    cell is in its relative interior when it is positive on all of them; the
    others are implicit equalities, zero on the whole cell."""
    q = interior_point(cell)
    return [row for row in cell.inequalities if sum(map(mul, row, q)) > 0]


def intersect(c1: SphericalComplex, c2: SphericalComplex) -> SphericalComplex:
    """Set intersection, formed cell by cell with zero cones pruned.

    Without the fan property every piece a ∩ b is reduced to the maximal
    ones by containment.  When both complexes are antichains of cones of one
    fan, a piece c = a ∩ b whose interior point lies in the relative interior
    of both a and b is maximal, and no other piece is the same cone: if c ⊆
    c' = a' ∩ b', then relint(a) meets a', so a is a face of a' in the fan,
    and a = a' since no cell contains another; likewise b = b', so c' = c.
    Such a piece is kept with no containment test.  A piece that meets a
    parent only on its boundary can still be maximal (when a proper face of
    a meets b in a cone no full piece covers), so the other pieces go
    through the containment reduction, with every piece as a container.
    The result is again an antichain of cones of one fan, the common
    refinement of the two.
    """
    if c1.dim != c2.dim:
        raise ValueError("ambient dimensions differ")
    fan = c1._fan and c2._fan
    pairs: dict[LinearSystem, tuple[LinearSystem, LinearSystem]] = {}
    for a in c1.cells:
        for b in c2.cells:
            pairs.setdefault(intersect_systems(a, b), (a, b))
    pieces = [s for s in sorted(pairs) if cone_dimension(s) > 0]
    maximal: set[LinearSystem] = set()
    if fan:
        # a piece that two pairs make lies in both, so it passes for neither:
        # one pair per piece is enough
        open_rows = {cell: _open_rows(cell) for cell in c1.cells + c2.cells}
        for s in pieces:
            p = interior_point(s)
            a, b = pairs[s]
            if all(sum(map(mul, row, p)) > 0 for row in open_rows[a] + open_rows[b]):
                maximal.add(s)
    result = SphericalComplex(c1.dim, cells=reduce_to_maximal(pieces, maximal))
    result._fan = fan
    return result


# ----------------------------------------------------------------------
# rational directions


_BLOCK_LIMIT = 2_500  # grid vectors held in one allocation, over all cells of a stack
_WALK_BUDGET = 4_000_000  # grid vectors one rational_points call may walk, over all its cells


def _grid_blocks(dim: int, height: int, fixed: int = 0):
    """[0, height]^fixed x [-height, height]^(dim - fixed) in lex order, as
    runs of at most ``_BLOCK_LIMIT`` flat indices, so memory stays bounded
    for every dim."""
    shape = (height + 1,) * fixed + (2 * height + 1,) * (dim - fixed)
    total = math.prod(shape)
    for lo in range(0, total, _BLOCK_LIMIT):
        flat = np.arange(lo, min(lo + _BLOCK_LIMIT, total))
        block = np.transpose(np.unravel_index(flat, shape))
        block[:, fixed:] -= height
        yield block


def _stack_points(stack: list, height: int, fixed: int):
    """Blocks of the primitive vectors of max-norm <= height in a stack of
    (cell, lift, denom) entries that leave the same number k of coordinates
    free, the first ``fixed`` of them of one sign (their lift columns
    multiplied by it), lift and denom from ``exactgeom.back_substitute``.

    Each grid block of :func:`_grid_blocks` is lifted into every cell at once
    through a lift tensor (cells, m, k); the inequality rows are zero-padded
    to a common count.  Arrays are laid out (cells, m, vectors), so the
    checks reduce over slabs rather than along short rows.
    """
    cells, lifts, denoms = zip(*stack)
    dim, k = cells[0].dim, len(lifts[0][0])
    rows = [row for cell, lift, denom in stack for row in [*lift, denom, *cell.inequalities]]
    maxabs = max(max(map(abs, row)) for row in rows)
    dtype = np.int64 if maxabs * height * dim < _INT64_SAFE else object
    lift = np.array(lifts, dtype=dtype).reshape(len(stack), dim, k)
    denom = np.array(denoms, dtype=dtype)[:, :, None]
    ineqs = np.zeros((len(stack), max(len(c.inequalities) for c in cells), dim), dtype=dtype)
    for i, cell in enumerate(cells):
        ineqs[i, : len(cell.inequalities)] = np.array(cell.inequalities, dtype=dtype).reshape(-1, dim)
    for block in _grid_blocks(k, height, fixed):
        numer = lift @ block.T.astype(dtype, copy=False)
        quot = numer // denom
        ok = ((numer % denom == 0) & (abs(quot) <= height)).all(axis=1)
        # zero the rejected vectors: their quotients could overflow the row products
        points = np.where(ok[:, None, :], quot, 0).astype(np.int64)
        ok &= np.gcd.reduce(np.abs(points), axis=1) == 1  # the zero vector has gcd 0
        ok &= ((ineqs @ points.astype(dtype, copy=False)) >= 0).all(axis=1)
        yield points.transpose(0, 2, 1)[ok]


def _ray_points(cell: LinearSystem) -> tuple[RationalDirection, ...]:
    """The primitive lattice points of a cell of cone dimension 1: its
    primitive generator, and the negation too when the cell is a line."""
    v = interior_point(cell)
    neg = tuple(-x for x in v)
    return (v, neg) if cell.satisfied_by(neg) else (v,)


def rational_points(complex_: SphericalComplex, height: int) -> tuple[RationalDirection, ...]:
    """Every primitive direction of max-norm <= height in the complex, in lex order.

    A ray or a line (cone dimension 1) holds only plus and minus its
    generator, read off at any height.  Every other cell is walked through
    the k coordinates its equalities leave free, lifted by the (free, lift,
    denom) of ``exactgeom.back_substitute`` on the pivots read off the
    stored equalities (they are the RREF rows, so no elimination runs).  A
    free coordinate x_j that an inequality s*x_j >= 0 fixes to the sign of
    s walks [0, h] with its lift column multiplied by s; every other free
    coordinate walks [-h, h].  The cells with the same k and the same
    number of such coordinates form one stack of arrays, walked in blocks
    of at most ``_BLOCK_LIMIT`` grid vectors.  The budget counts (2h+1)^k
    grid vectors per walked cell (the full sphere, with no rows:
    (2h+1)^m), an upper bound on the walk; a walk over it is refused with
    ``ValueError`` before it starts.
    """
    (height,) = int_entries((height,), "height")
    if height < 1:
        raise ValueError("height must be positive")
    found: set[RationalDirection] = set()
    by_shape: dict[tuple[int, int], list] = {}
    for cell in complex_.cells:
        if cone_dimension(cell) == 1:
            found.update(p for p in _ray_points(cell) if max(map(abs, p)) <= height)
            continue
        pivots = [next(j for j, x in enumerate(row) if x) for row in cell.equalities]
        free, lift, denom = back_substitute(pivots, cell.equalities, cell.dim)
        # an inequality with one nonzero entry is zero on the pivot columns,
        # so it fixes the sign of a free coordinate
        signs = {j: s for row in cell.inequalities if row.count(0) == cell.dim - 1 for j, s in enumerate(row) if s}
        order = sorted(range(len(free)), key=lambda i: free[i] not in signs)
        lift = [[row[i] * signs.get(free[i], 1) for i in order] for row in lift]
        by_shape.setdefault((len(free), len(signs)), []).append((cell, lift, denom))
    walk = sum(len(group) * (2 * height + 1) ** k for (k, _), group in by_shape.items())
    if walk > _WALK_BUDGET:
        raise ValueError(f"a walk of {walk} grid vectors is too large: the budget is {_WALK_BUDGET}")
    for (k, fixed), group in by_shape.items():
        size = max(1, _BLOCK_LIMIT // ((height + 1) ** fixed * (2 * height + 1) ** (k - fixed)))  # cells per stack
        for start in range(0, len(group), size):
            for points in _stack_points(group[start : start + size], height, fixed):
                found.update(map(tuple, points.tolist()))
    return tuple(sorted(found))


def cell_dimensions(complex_: SphericalComplex) -> tuple[int, ...]:
    """Spherical dimension (cone dimension minus one) of each cell."""
    return tuple(cone_dimension(cell) - 1 for cell in complex_.cells)


def max_cell_dimension(complex_: SphericalComplex) -> int | None:
    """Largest spherical cell dimension; None for the empty complex."""
    dims = cell_dimensions(complex_)
    return max(dims) if dims else None


def ray_directions(complex_: SphericalComplex) -> tuple[RationalDirection, ...]:
    """Primitive generators of all one-dimensional cells (rays and lines)."""
    rays = (cell for cell in complex_.cells if cone_dimension(cell) == 1)
    return tuple(sorted({p for cell in rays for p in _ray_points(cell)}))
