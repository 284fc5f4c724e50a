"""Exact integer linear algebra and LP feasibility for polyhedral cones.

Cones are described by homogeneous integer linear systems (rows meaning
``row . xi = 0`` or ``row . xi >= 0``).  Everything is exact and stays in
the integers: elimination is fraction-free (a row is reduced against a pivot
row with ``p*row - f*prow``, p > 0, and kept primitive), and feasibility
uses a phase-1 simplex with fraction-free integer pivoting (Bareiss) and
Bland's anti-cycling rule.  Cone dimension is obtained by testing which
inequalities admit a strictly positive value over the cone.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

IntRow = tuple[int, ...]


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def primitive_vector(v: Sequence[int]) -> IntRow | None:
    """Divide by the gcd of the entries; None for the zero vector.

    The direction (sign pattern) is kept, so inequality rows stay equivalent.
    """
    g = gcd(*v)
    return tuple(x // g for x in v) if g else None


# ----------------------------------------------------------------------
# exact elimination (fraction-free)


def rref(rows: Iterable[Sequence[int]]) -> tuple[list[int], list[IntRow]]:
    """Reduced row echelon form over Z.  Returns (pivot columns, rows).

    Each row is primitive, has a positive pivot and is the only nonzero row
    in its pivot column: the rational RREF up to a positive scale per row.
    Eliminating with ``p*row - f*prow`` (p > 0) keeps every row a positive
    multiple of its rational counterpart, so the pivots are the same.
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    if not mat:
        return pivots, []
    r = 0
    for col in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        g = gcd(*mat[r]) if mat[r][col] > 0 else -gcd(*mat[r])
        prow = mat[r] = [x // g for x in mat[r]]
        p = prow[col]
        for i in range(len(mat)):
            f = mat[i][col]
            if i != r and f:
                row = [p * a - f * c for a, c in zip(mat[i], prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g else row
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return pivots, [tuple(row) for row in mat[:r]]


def exact_rank(rows: Iterable[Sequence[int]]) -> int:
    pivots, _ = rref(rows)
    return len(pivots)


def nullspace_basis(rows: Iterable[Sequence[int]], width: int) -> list[IntRow]:
    """Primitive integer basis of {x : row . x = 0 for all rows}.

    The vector of free column j is the rational one (1 at j, ``-prow[j]/p``
    at each pivot) scaled by the lcm of the pivots p.
    """
    pivots, reduced = rref(rows)
    scale = lcm(*(prow[pcol] for prow, pcol in zip(reduced, pivots)))
    basis: list[IntRow] = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [0] * width
        vec[free] = scale
        for prow, pcol in zip(reduced, pivots):
            vec[pcol] = -prow[free] * (scale // prow[pcol])
        basis.append(primitive_vector(vec))
    return basis


def _reduce_modulo(row: IntRow, pivots: list[int], reduced: list[IntRow]) -> IntRow | None:
    """Reduce a row modulo a row span given by :func:`rref`; primitive result or None."""
    vec: Sequence[int] = row
    for prow, pcol in zip(reduced, pivots):
        f = vec[pcol]
        if f:
            p = prow[pcol]
            vec = [p * a - f * c for a, c in zip(vec, prow)]
    return primitive_vector(vec)


# ----------------------------------------------------------------------
# linear systems


def _primitive_rows(rows: Iterable[Sequence[int]], dim: int) -> list[IntRow]:
    """The nonzero rows as primitive tuples of plain ints, validated."""
    out: list[IntRow] = []
    for row in rows:
        if len(row) != dim:
            raise ValueError(f"row {tuple(row)} has length {len(row)}, expected {dim}")
        try:
            ints = [operator.index(x) for x in row]
        except TypeError:
            raise ValueError(f"row {tuple(row)} has a non-integer entry") from None
        prim = primitive_vector(ints)
        if prim is not None:
            out.append(prim)
    return out


@dataclass(frozen=True, order=True)
class LinearSystem:
    """Homogeneous system: equalities ``row.xi = 0``, inequalities ``row.xi >= 0``.

    Instances should be built through :meth:`make`, which canonicalises rows:
    primitive integers, inequalities reduced modulo the equality span,
    opposite inequality pairs promoted to equalities, duplicates dropped,
    rows sorted lexicographically.
    """

    dim: int
    equalities: tuple[IntRow, ...]
    inequalities: tuple[IntRow, ...]

    @classmethod
    def make(
        cls,
        dim: int,
        equalities: Iterable[Sequence[int]] = (),
        inequalities: Iterable[Sequence[int]] = (),
    ) -> "LinearSystem":
        if dim < 1:
            raise ValueError("ambient dimension must be positive")
        eq_rows = _primitive_rows(equalities, dim)
        ineq_rows = _primitive_rows(inequalities, dim)
        while True:
            pivots, reduced = rref(eq_rows)
            canon_eqs = tuple(sorted(reduced))
            seen: set[IntRow] = set()
            for row in ineq_rows:
                rr = _reduce_modulo(row, pivots, reduced)
                if rr is not None:
                    seen.add(rr)
            promoted = [r for r in seen if tuple(-x for x in r) in seen and r < tuple(-x for x in r)]
            if not promoted:
                return cls(dim, canon_eqs, tuple(sorted(seen)))
            eq_rows = list(canon_eqs) + promoted
            ineq_rows = [r for r in seen if r not in promoted and tuple(-x for x in r) not in promoted]

    def is_trivial(self) -> bool:
        """True when the system constrains nothing (whole space)."""
        return not self.equalities and not self.inequalities

    def satisfied_by(self, xi: Sequence[int]) -> bool:
        if len(xi) != self.dim:
            raise ValueError(f"point has length {len(xi)}, expected {self.dim}")
        return all(dot(row, xi) == 0 for row in self.equalities) and all(
            dot(row, xi) >= 0 for row in self.inequalities
        )

    def to_json_dict(self) -> dict:
        return {
            "eq": [list(row) for row in self.equalities],
            "ineq": [list(row) for row in self.inequalities],
        }


def intersect(s1: LinearSystem, s2: LinearSystem) -> LinearSystem:
    """Concatenate and re-canonicalise two systems over the same space."""
    if s1.dim != s2.dim:
        raise ValueError(f"ambient dimensions differ: {s1.dim} vs {s2.dim}")
    return LinearSystem.make(
        s1.dim,
        s1.equalities + s2.equalities,
        s1.inequalities + s2.inequalities,
    )


# ----------------------------------------------------------------------
# phase-1 simplex (Bland's rule, exact fraction-free integer pivoting)


def solve_nonneg(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[tuple[list[int], int]]:
    """Find x >= 0 with A x = b exactly, or None if infeasible.

    The solution is returned in integers as ``(y, D)`` with ``x = y / D``
    and D > 0.  The tableau is kept in integers: every entry of T, b and
    the objective row d, and the objective value, is D times its true
    value, where D is the determinant of the current basis (D = 1 for the
    starting basis of unit columns).  A pivot on p = T[leave][enter] > 0
    leaves the pivot row as it is, maps every other entry a with multiplier
    f = T[i][enter] to (p*a - f*c) // D, where c is the pivot row's entry in
    a's column (an exact division, Bareiss 1968), and then sets D = p.
    Since D > 0, sign tests and cross-multiplied ratio comparisons decide
    exactly as on the true values.
    """
    m = len(rows)
    if m == 0:
        return [], 1
    n = len(rows[0])
    T = [list(row) for row in rows]
    b = list(rhs)
    for i in range(m):
        if b[i] < 0:
            T[i] = [-v for v in T[i]]
            b[i] = -b[i]

    # crash basis from pre-existing unit columns
    basis: list[int] = [-1] * m
    taken: set[int] = set()
    for i in range(m):
        for j in range(n):
            if j in taken or T[i][j] != 1:
                continue
            if all(T[k][j] == 0 for k in range(m) if k != i):
                basis[i] = j
                taken.add(j)
                break
    art_rows = [i for i in range(m) if basis[i] == -1]
    for k, i in enumerate(art_rows):
        basis[i] = n + k

    # phase-1 objective: minimise the sum of artificials (with none, d is
    # zero and the crash basis is the answer).  d[j] is the rate at which
    # the objective drops when structural column j enters.  The artificial
    # columns never re-enter, so neither T nor d stores them.
    d = [sum(T[i][j] for i in art_rows) for j in range(n)]
    value = sum(b[i] for i in art_rows)
    D = 1

    while True:
        enter = -1
        for j in range(n):
            if d[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        for i in range(m):
            coef = T[i][enter]
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                # ratio b[i] / coef against b[leave] / T[leave][enter]
                here = b[i] * T[leave][enter]
                best = b[leave] * coef
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        prow = T[leave]
        p = prow[enter]
        bl = b[leave]
        for i in range(m):
            if i == leave:
                continue
            f = T[i][enter]
            if f or p != D:
                T[i] = [(p * a - f * c) // D for a, c in zip(T[i], prow)]
                b[i] = (p * b[i] - f * bl) // D
        f = d[enter]
        if f or p != D:
            d = [(p * a - f * c) // D for a, c in zip(d, prow)]
            value = (p * value - f * bl) // D
        D = p
        basis[leave] = enter

    if value != 0:
        return None
    y = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            y[j] = b[i]
    return y, D


def _strict_feasible(rows: Sequence[IntRow], strict: Sequence[IntRow]) -> Optional[tuple[list[int], int]]:
    """A point y / D with row.y >= 0 for all rows and row.y >= D for strict rows.

    Free variables are split as y = u - w; slack columns make the zero-rhs
    rows a ready-made basis, so artificials are only needed on strict rows.
    """
    if not rows and not strict:
        return None
    d = len(rows[0]) if rows else len(strict[0])
    strict_set = set(strict)
    plain = [r for r in rows if r not in strict_set]
    ordered = list(strict) + plain
    k = len(ordered)
    A: list[list[int]] = []
    b: list[int] = []
    for i, row in enumerate(ordered):
        slack = [0] * k
        if i < len(strict):
            line = list(row) + [-x for x in row]
            slack[i] = -1
            b.append(1)
        else:
            line = [-x for x in row] + list(row)
            slack[i] = 1
            b.append(0)
        A.append(line + slack)
    sol = solve_nonneg(A, b)
    if sol is None:
        return None
    x, D = sol
    return [x[j] - x[d + j] for j in range(d)], D


# ----------------------------------------------------------------------
# cone analysis


@dataclass(frozen=True)
class _ConeAnalysis:
    dimension: int
    interior: IntRow | None
    span_basis: tuple[IntRow, ...]
    projected_rows: tuple[IntRow, ...]


# bounded so that a long-lived process cannot grow it without limit; a whole
# benchmark pass of CLI invocations makes about 150 misses
@functools.lru_cache(maxsize=4096)
def _analyze(system: LinearSystem) -> _ConeAnalysis:
    m = system.dim
    eqs = system.equalities
    basis = tuple(nullspace_basis(eqs, m))
    span_dim = len(basis)
    projected: set[IntRow] = set()
    for row in system.inequalities:
        pr = primitive_vector([dot(row, v) for v in basis])
        if pr is not None:
            projected.add(pr)
    proj_rows = tuple(sorted(projected))

    implicit: list[IntRow] = []
    candidates: list[IntRow] = []
    for r in proj_rows:
        if tuple(-x for x in r) in projected:
            implicit.append(r)
        else:
            candidates.append(r)

    witnesses: list[tuple[list[int], int]] = []
    if candidates:
        joint = _strict_feasible(proj_rows, candidates)
        if joint is not None:
            witnesses.append(joint)
        else:
            for r in candidates:
                w = _strict_feasible(proj_rows, [r])
                if w is None:
                    implicit.append(r)
                else:
                    witnesses.append(w)

    cone_dim = span_dim - exact_rank(implicit)
    if cone_dim == 0:
        return _ConeAnalysis(0, None, basis, proj_rows)

    if witnesses:
        # the sum of the witnesses y / D, scaled by the lcm of their D
        scale = lcm(*(D for _, D in witnesses))
        y = [sum(w[j] * (scale // D) for w, D in witnesses) for j in range(span_dim)]
    else:
        y = list(nullspace_basis(implicit, span_dim)[0])
    point = [sum(coeff * vec[j] for coeff, vec in zip(y, basis)) for j in range(m)]
    prim = primitive_vector(point)
    assert prim is not None
    return _ConeAnalysis(cone_dim, prim, basis, proj_rows)


def cone_dimension(system: LinearSystem) -> int:
    """Linear dimension of the cone cut out by the system (0 means only 0)."""
    return _analyze(system).dimension


def interior_point(system: LinearSystem) -> IntRow | None:
    """A relative-interior point of the cone, or None for the zero cone.

    The point satisfies every equality exactly and every inequality that is
    not forced to equality strictly.
    """
    return _analyze(system).interior


def cone_strict_feasible(system: LinearSystem, row: Sequence[int]) -> bool:
    """Is there a point of the cone with ``row . xi > 0``?"""
    info = _analyze(system)
    pr = primitive_vector([dot(row, v) for v in info.span_basis])
    if pr is None:
        return False
    return _strict_feasible(tuple(sorted(set(info.projected_rows) | {pr})), [pr]) is not None


def cone_contains(inner: LinearSystem, outer: LinearSystem) -> bool:
    """Exact test cone(inner) <= cone(outer); the zero cone lies in every cone."""
    if inner.dim != outer.dim:
        raise ValueError("ambient dimensions differ")
    if inner == outer:
        return True
    p = interior_point(inner)
    if p is None:
        return True
    if not outer.satisfied_by(p):
        return False
    for row in outer.equalities:
        if cone_strict_feasible(inner, row) or cone_strict_feasible(inner, tuple(-x for x in row)):
            return False
    for row in outer.inequalities:
        if cone_strict_feasible(inner, tuple(-x for x in row)):
            return False
    return True
