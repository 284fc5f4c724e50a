"""Exact rational linear algebra and LP feasibility for polyhedral cones.

Cones are described by homogeneous integer linear systems (rows meaning
``row . xi = 0`` or ``row . xi >= 0``).  Everything is exact: elimination
runs in Fraction arithmetic, and feasibility uses a phase-1 simplex with
fraction-free integer pivoting (Bareiss) and Bland's anti-cycling rule.
Cone dimension is obtained by testing which inequalities admit a strictly
positive value over the cone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

RationalVector = tuple[Fraction, ...]
RationalMatrix = tuple[RationalVector, ...]
IntRow = tuple[int, ...]


def dot(a: Sequence[int | Fraction], b: Sequence[int | Fraction]) -> Fraction | int:
    return sum(x * y for x, y in zip(a, b))


def primitive_vector(v: Sequence[int | Fraction]) -> IntRow | None:
    """Scale by a positive rational to a primitive integer vector.

    Returns None for the zero vector.  The direction (sign pattern) is kept,
    so inequality rows stay equivalent.
    """
    if all(isinstance(x, int) for x in v):
        g = gcd(*v)
        return tuple(x // g for x in v) if g else None
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        return None
    denom_lcm = 1
    for x in fracs:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _sign_canonical(row: IntRow) -> IntRow:
    for x in row:
        if x > 0:
            return row
        if x < 0:
            return tuple(-y for y in row)
    return row


# ----------------------------------------------------------------------
# exact elimination


def rref(rows: Iterable[Sequence[int | Fraction]]) -> tuple[list[int], list[list[Fraction]]]:
    """Reduced row echelon form over Q.  Returns (pivot columns, rows)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    out: list[list[Fraction]] = []
    if not mat:
        return pivots, out
    width = len(mat[0])
    r = 0
    for col in range(width):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return pivots, mat[: len(pivots)]


def exact_rank(rows: Iterable[Sequence[int | Fraction]]) -> int:
    pivots, _ = rref(rows)
    return len(pivots)


def nullspace_basis(rows: Iterable[Sequence[int | Fraction]], width: int) -> list[IntRow]:
    """Primitive integer basis of {x : row . x = 0 for all rows}."""
    mat = [list(row) for row in rows]
    if not mat:
        return [tuple(1 if j == i else 0 for j in range(width)) for i in range(width)]
    pivots, reduced = rref(mat)
    free_cols = [c for c in range(width) if c not in pivots]
    basis: list[IntRow] = []
    for free in free_cols:
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for prow, pcol in zip(reduced, pivots):
            vec[pcol] = -prow[free]
        prim = primitive_vector(vec)
        assert prim is not None
        basis.append(prim)
    return basis


def _echelon_primitive(rows: Iterable[IntRow]) -> tuple[IntRow, ...]:
    """Canonical primitive-integer echelon basis of the row span."""
    pivots, reduced = rref(rows)
    out = []
    for row in reduced:
        prim = primitive_vector(row)
        assert prim is not None
        out.append(_sign_canonical(prim))
    return tuple(sorted(out))


def _reduce_modulo(row: IntRow, pivots: list[int], reduced: list[list[Fraction]]) -> IntRow | None:
    """Reduce a row modulo a row span given in RREF; primitive result or None."""
    vec = [Fraction(x) for x in row]
    for prow, pcol in zip(reduced, pivots):
        factor = vec[pcol]
        if factor != 0:
            vec = [a - factor * b for a, b in zip(vec, prow)]
    return primitive_vector(vec)


# ----------------------------------------------------------------------
# linear systems


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
        eq_rows: list[IntRow] = []
        for row in equalities:
            if len(row) != dim:
                raise ValueError(f"row {tuple(row)} has length {len(row)}, expected {dim}")
            prim = primitive_vector(row)
            if prim is not None:
                eq_rows.append(prim)
        ineq_rows: list[IntRow] = []
        for row in inequalities:
            if len(row) != dim:
                raise ValueError(f"row {tuple(row)} has length {len(row)}, expected {dim}")
            prim = primitive_vector(row)
            if prim is not None:
                ineq_rows.append(prim)
        while True:
            pivots, reduced = rref(eq_rows)
            canon_eqs = _echelon_primitive(eq_rows) if eq_rows else ()
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

    def satisfied_by(self, xi: Sequence[int | Fraction]) -> bool:
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


def _integer_rows(
    rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> tuple[list[list[int]], list[int]]:
    """Integer copies of the rows and rhs, each row scaled to clear denominators.

    Scaling a row and its rhs by a positive integer keeps the feasible set.
    Integer rows are copied as they are.
    """
    A: list[list[int]] = []
    b: list[int] = []
    for row, r in zip(rows, rhs):
        if isinstance(r, int) and all(isinstance(v, int) for v in row):
            A.append(list(row))
            b.append(r)
            continue
        fracs = [Fraction(v) for v in row]
        fr = Fraction(r)
        scale = lcm(fr.denominator, *(v.denominator for v in fracs))
        A.append([v.numerator * (scale // v.denominator) for v in fracs])
        b.append(fr.numerator * (scale // fr.denominator))
    return A, b


def solve_nonneg(rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b exactly, or None if infeasible.

    The tableau is kept in integers: every entry of T, b and the objective
    row d, and the objective value, is D times its true value, where D is
    the determinant of the current basis (D = 1 for the starting basis of
    unit columns).  A pivot on p = T[leave][enter] > 0 leaves the pivot row
    as it is, maps every other entry a with multiplier f = T[i][enter] to
    (p*a - f*c) // D, where c is the pivot row's entry in a's column (an
    exact division, Bareiss 1968), and then sets D = p.  Since D > 0, sign
    tests and cross-multiplied ratio comparisons decide exactly as on the
    true values.
    """
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    T, b = _integer_rows(rows, rhs)
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
    if not art_rows:
        x = [Fraction(0)] * n
        for i, j in enumerate(basis):
            x[j] = Fraction(b[i])
        return x
    for k, i in enumerate(art_rows):
        basis[i] = n + k

    # phase-1 objective: minimise the sum of artificials.  d[j] is the rate
    # at which the objective drops when structural column j enters.  The
    # artificial columns never re-enter, so neither T nor d stores them.
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
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(b[i], D)
    return x


def _strict_feasible(rows: Sequence[IntRow], strict: Sequence[IntRow]) -> Optional[list[Fraction]]:
    """A point y with row.y >= 0 for all rows and row.y >= 1 for strict rows.

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
    x = solve_nonneg(A, b)
    if x is None:
        return None
    return [x[j] - x[d + j] for j in range(d)]


# ----------------------------------------------------------------------
# cone analysis


@dataclass(frozen=True)
class _ConeAnalysis:
    dimension: int
    interior: IntRow | None
    span_dim: int
    span_basis: tuple[IntRow, ...]
    projected_rows: tuple[IntRow, ...]


# bounded so that a long-lived process cannot grow it without limit; a whole
# benchmark pass of CLI invocations makes about 150 misses
@functools.lru_cache(maxsize=4096)
def _analyze(system: LinearSystem) -> _ConeAnalysis:
    m = system.dim
    eqs = system.equalities
    span_dim = m - exact_rank(eqs) if eqs else m
    if span_dim == 0:
        return _ConeAnalysis(0, None, 0, (), ())
    basis = tuple(nullspace_basis(eqs, m)) if eqs else tuple(
        tuple(1 if j == i else 0 for j in range(m)) for i in range(m)
    )
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

    witnesses: list[list[Fraction]] = []
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

    cone_dim = span_dim - (exact_rank(implicit) if implicit else 0)
    if cone_dim == 0:
        return _ConeAnalysis(0, None, span_dim, basis, proj_rows)

    if witnesses:
        y = [sum(w[j] for w in witnesses) for j in range(span_dim)]
    else:
        y = [Fraction(x) for x in nullspace_basis(implicit, span_dim)[0]]
    point = [Fraction(0)] * m
    for coeff, vec in zip(y, basis):
        for j in range(m):
            point[j] += coeff * vec[j]
    prim = primitive_vector(point)
    assert prim is not None
    return _ConeAnalysis(cone_dim, prim, span_dim, basis, proj_rows)


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
    if info.span_dim == 0:
        return False
    pr = primitive_vector([dot(row, v) for v in info.span_basis])
    if pr is None:
        return False
    return _strict_feasible(tuple(sorted(set(info.projected_rows) | {pr})), [pr]) is not None


def cone_contains(inner: LinearSystem, outer: LinearSystem) -> bool:
    """Exact test cone(inner) <= cone(outer) for nonzero inner cones."""
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
