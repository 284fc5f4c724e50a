"""Exact integer linear algebra and LP feasibility for polyhedral cones.

Cones are described by homogeneous integer linear systems (rows meaning
``row . xi = 0`` or ``row . xi >= 0``).  Everything is exact and stays in
the integers: elimination is fraction-free (a row is reduced against a
pivot row with ``p*row - f*prow``, p > 0, and kept primitive), a null
space is read off the RREF by one back-substitution, and feasibility uses
a revised phase-1 simplex with Bland's anti-cycling rule: it stores only D
times the inverse basis, D the basis determinant (the
artificial block of a fraction-free tableau, so every division is exact),
and prices columns on demand.  Every LP asks one question
(:func:`balance`): is there a nonnegative combination of some rows that is
zero and weighs a chosen subset?  By Gordan's alternative, when there is
none the simplex multipliers are a Farkas certificate: a point strictly
positive on that subset and nonnegative on every row.  Cone analysis and
containment both ask it of a cone's signed rows (the inequalities, and each
equality with both signs) in the ambient coordinates.  Cone dimension comes
from the implicit equalities, the inequalities that vanish on the whole
cone: each combination found names more of them, until none is left and the
certificate point is a relative-interior point, or they leave only the zero
cone.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

IntRow = tuple[int, ...]


def int_entries(values: Iterable, what: str) -> IntRow:
    """The entries as plain ints by ``operator.index``: numpy integers pass,
    and a float or Fraction entry is a ValueError instead of being truncated."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} {values} has a non-integer entry") from None


def primitive_vector(v: Sequence[int]) -> IntRow | None:
    """Divide by the gcd of the entries; None for the zero vector.

    Always a tuple (``_analyze`` passes a list), built at once when the gcd
    is 1.  The direction (sign pattern) is kept, so inequality rows stay equivalent.
    """
    g = gcd(*v)
    if g == 1:
        return tuple(v)
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


def back_substitute(
    pivots: Sequence[int], reduced: Sequence[IntRow], width: int
) -> tuple[list[int], list[list[int]], list[int]]:
    """(free, lift, denom) of {x : row . x = 0} for rows in reduced echelon
    form, each with its pivot column: over values g of the free columns,
    ``x_j = lift[j] . g / denom[j]``, a pivot's ``-prow[free] / p`` and a
    free column's unit row.  The rows may come in any order."""
    free = [j for j in range(width) if j not in pivots]
    lift = [[int(j == f) for f in free] for j in range(width)]
    denom = [1] * width
    for prow, pcol in zip(reduced, pivots):
        lift[pcol] = [-prow[f] for f in free]
        denom[pcol] = prow[pcol]
    return free, lift, denom


def nullspace_lift(rows: Iterable[Sequence[int]], width: int) -> tuple[list[int], list[list[int]], list[int]]:
    """(free, lift, denom) of {x : row . x = 0}: :func:`back_substitute` on
    the RREF of the rows."""
    return back_substitute(*rref(rows), width)


def nullspace_basis(rows: Iterable[Sequence[int]], width: int) -> list[IntRow]:
    """Primitive integer basis of {x : row . x = 0 for all rows}: the lift
    column of each free column, scaled by the lcm of the pivots."""
    free, lift, denom = nullspace_lift(rows, width)
    scale = lcm(*denom)
    return [primitive_vector([row[i] * (scale // d) for row, d in zip(lift, denom)]) for i in range(len(free))]


# ----------------------------------------------------------------------
# linear systems


def _primitive_rows(rows: Iterable[Sequence[int]], dim: int) -> list[IntRow]:
    """The nonzero rows as primitive tuples of plain ints, validated."""
    out: list[IntRow] = []
    for row in rows:
        if len(row) != dim:
            raise ValueError(f"row {tuple(row)} has length {len(row)}, expected {dim}")
        prim = primitive_vector(int_entries(row, "row"))
        if prim is not None:
            out.append(prim)
    return out


@dataclass(frozen=True, order=True)
class LinearSystem:
    """Homogeneous system: equalities ``row.xi = 0``, inequalities ``row.xi >= 0``.

    Instances should be built through :meth:`make`, which canonicalises rows:
    primitive integers, inequalities reduced modulo the equality span,
    opposite inequality pairs promoted to equalities, duplicates dropped,
    rows sorted lexicographically.  The hash is computed once per instance.
    Two invariants follow, and the direction walk reads them: the
    equalities are the rows of the RREF (see :func:`rref`), so each row's
    first nonzero entry is its pivot; and every inequality is zero on
    every pivot column, so an inequality with one nonzero entry bounds a
    free coordinate.
    """

    dim: int
    equalities: tuple[IntRow, ...]
    inequalities: tuple[IntRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.dim, self.equalities, self.inequalities)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def make(
        cls,
        dim: int,
        equalities: Iterable[Sequence[int]] = (),
        inequalities: Iterable[Sequence[int]] = (),
    ) -> "LinearSystem":
        """Canonical form in one pass per round: each inequality is reduced by
        the echelon equalities nonzero in its pivot column, primitive after
        each step; opposite results become equalities for the next round."""
        if dim < 1:
            raise ValueError("ambient dimension must be positive")
        return cls._canonical(dim, _primitive_rows(equalities, dim), _primitive_rows(inequalities, dim))

    @classmethod
    def _canonical(cls, dim: int, eq_rows: Sequence[IntRow], ineq_rows: Iterable[IntRow]) -> "LinearSystem":
        """The canonicalisation loop of :meth:`make`, on rows that are
        already primitive tuples of plain ints of length dim."""
        while True:
            pivots, reduced = rref(eq_rows)
            echelon = [(prow, pcol, prow[pcol]) for prow, pcol in zip(reduced, pivots)]
            seen: set[IntRow] = set()
            for row in ineq_rows:
                for prow, pcol, p in echelon:
                    if f := row[pcol]:
                        row = primitive_vector([p * a - f * c for a, c in zip(row, prow)])
                        if row is None:
                            break
                else:
                    seen.add(row)
            negs = {row: tuple(map(operator.neg, row)) for row in seen}
            promoted = [row for row, neg in negs.items() if row < neg and neg in seen]
            if not promoted:
                return cls(dim, tuple(sorted(reduced)), tuple(sorted(seen)))
            eq_rows = reduced + promoted
            ineq_rows = [row for row, neg in negs.items() if neg not in seen]

    def satisfied_by(self, xi: Sequence[int]) -> bool:
        if len(xi) != self.dim:
            raise ValueError(f"point has length {len(xi)}, expected {self.dim}")
        return all(sum(map(operator.mul, row, xi)) == 0 for row in self.equalities) and all(
            sum(map(operator.mul, row, xi)) >= 0 for row in self.inequalities
        )

    def to_json_dict(self) -> dict:
        return {
            "eq": [list(row) for row in self.equalities],
            "ineq": [list(row) for row in self.inequalities],
        }


def intersect(s1: LinearSystem, s2: LinearSystem) -> LinearSystem:
    """Concatenate and re-canonicalise two systems over the same space.  Their
    rows are already primitive tuples of plain ints, so they are not
    validated again."""
    if s1.dim != s2.dim:
        raise ValueError(f"ambient dimensions differ: {s1.dim} vs {s2.dim}")
    return LinearSystem._canonical(s1.dim, s1.equalities + s2.equalities, s1.inequalities + s2.inequalities)


# ----------------------------------------------------------------------
# revised phase-1 simplex (Bland's rule, exact fraction-free integer pivoting)


def solve_nonneg(
    rows: Sequence[Sequence[int]],
    certificate: Optional[list[int]] = None,
) -> Optional[list[int]]:
    """Find x >= 0 with A x = (0, ..., 0, 1) exactly, or None if infeasible.

    The solution is returned in integers, as D times x for some D > 0.  A
    revised simplex stores only M = D B^-1, for B the basis and D its
    determinant (M = I, D = 1 for the artificial starting basis), and the
    multipliers pi, the sum of M's rows on artificial basic columns.  M's
    last column is D x_B.  Each pivot prices the columns of A in order by
    d_j = pi . A_j, the first positive one enters (Bland's rule), and the
    ratio test runs on alpha = M A_enter.  M is the artificial block of the
    fraction-free tableau and pi - D that of its objective row, so a pivot
    on p = alpha[leave] > 0 keeps the leaving row and maps every other entry
    a, with multiplier f (alpha[i], or d_enter for pi), to (p*a - f*c) // D:
    c is the leaving row's entry in a's column, and the division is exact
    (Bareiss 1968).  Then D = p > 0, so signs and cross-multiplied ratios
    decide as on the true values.

    The phase-1 objective, D times the sum of the artificials, is pi[-1].
    When it stays positive the LP is infeasible and pi is a Farkas
    certificate, one integer per row of A: ``pi^T A <= 0`` and
    ``pi[-1] > 0``; ``certificate``, if a list, is filled with it.
    """
    m = len(rows)
    columns = list(zip(*rows))
    n = len(columns)
    M = [[int(k == i) for k in range(m)] for i in range(m)]
    pi = [1] * m
    basis = list(range(n, n + m))
    D = 1

    while True:
        for enter, col in enumerate(columns):
            f = sum(map(operator.mul, pi, col))
            if f > 0:
                break
        else:
            break
        alpha = [sum(map(operator.mul, row, col)) for row in M]
        leave = -1
        for i, coef in enumerate(alpha):
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                # ratio x_i / coef against x_leave / alpha[leave]
                here = M[i][-1] * alpha[leave]
                best = M[leave][-1] * coef
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        prow = M[leave]
        p = alpha[leave]
        for i in range(m):
            g = alpha[i]
            if i != leave and (g or p != D):
                M[i] = [(p * a - g * c) // D for a, c in zip(M[i], prow)]
        pi = [(p * a - f * c) // D for a, c in zip(pi, prow)]
        D = p
        basis[leave] = enter

    if pi[-1]:
        if certificate is not None:
            certificate[:] = pi
        return None
    y = [0] * n
    for i, j in enumerate(basis):
        if j < n:
            y[j] = M[i][-1]
    return y


def balance(
    rows: Sequence[IntRow],
    weighted: Iterable[IntRow],
    point: Optional[list[int]] = None,
) -> Optional[list[int]]:
    """Integers lam >= 0, one per row, with ``sum lam_i * row_i = 0`` and
    lam > 0 on some weighted row; None if there are none.

    One LP over the rows as columns, with the normalisation ``sum of lam
    over the weighted rows = 1``.  By Gordan's alternative there is no lam
    exactly when some point is strictly positive on every weighted row and
    nonnegative on every row; when ``point`` is a list it is then filled
    with such an integer point: minus the simplex multipliers of the
    coordinate equations, the first ``len(row)`` entries of the Farkas
    certificate of :func:`solve_nonneg`.  Every row with lam > 0 vanishes
    on the cone that the rows cut out.
    """
    dim = len(rows[0])
    chosen = set(weighted)
    A = list(zip(*rows))
    A.append([int(row in chosen) for row in rows])
    certificate = None if point is None else []
    lam = solve_nonneg(A, certificate)
    if lam is None and point is not None:
        point[:] = [-v for v in certificate[:dim]]
    return lam


# ----------------------------------------------------------------------
# cone analysis


def _signed_rows(system: LinearSystem) -> tuple[IntRow, ...]:
    """The rows that are >= 0 on the cone: the inequalities, and each
    equality with both signs."""
    return system.inequalities + system.equalities + tuple(tuple(-x for x in row) for row in system.equalities)


@dataclass(frozen=True)
class _ConeAnalysis:
    dimension: int
    interior: IntRow | None


def _unit_solution(equalities: Sequence[IntRow], rows: Sequence[IntRow], width: int) -> list[int] | None:
    """Integers y with ``eq . y = 0`` and ``row . y`` the same positive number
    on every row, if the equalities and rows are linearly independent
    together; None if they are not, or there are no rows.

    Such rows never balance, so y is a relative-interior witness that needs
    no LP: the null vector of ``[eq 0; row 1]`` with last coordinate minus
    the lcm of the pivots and the other free unknowns 0, read off the pivot
    entries of the last column alone.
    """
    if not rows or len(equalities) + len(rows) > width:
        return None
    pivots, reduced = rref([eq + (0,) for eq in equalities] + [row + (1,) for row in rows])
    if len(pivots) < len(equalities) + len(rows) or width in pivots:
        return None
    scale = lcm(*(prow[pcol] for prow, pcol in zip(reduced, pivots)))
    y = [0] * width
    for prow, pcol in zip(reduced, pivots):
        y[pcol] = prow[width] * (scale // prow[pcol])
    return y


# bounded so that a long-lived process cannot grow it without limit; a whole
# benchmark pass of CLI invocations makes about 150 misses
@functools.lru_cache(maxsize=4096)
def _analyze(system: LinearSystem) -> _ConeAnalysis:
    """Dimension and a relative-interior point of the cone.

    The implicit equalities start as the equalities, and every inequality
    is a candidate.  One LP (:func:`balance`) over the signed rows asks for
    a nonnegative combination that is zero and weighs some candidate.  If
    there is one, the candidates it weighs are implicit equalities; they
    stop being candidates and the LP is solved again, unless the implicit
    equalities already cut the cone down to zero.  If there is none,
    Gordan's alternative gives a point of the ambient space strictly
    positive on every candidate and nonnegative on every signed row, so
    zero on exactly the implicit equalities: a relative-interior point.
    Equalities and inequalities that are linearly independent together
    never balance, so they get that point from :func:`_unit_solution`,
    with no LP.
    """
    m = system.dim
    rows = _signed_rows(system)
    implicit = list(system.equalities)
    candidates = list(system.inequalities)
    witness = _unit_solution(system.equalities, system.inequalities, m)
    while candidates and witness is None:
        point: list[int] = []
        lam = balance(rows, candidates, point)
        if lam is None:
            witness = point
            break
        forced = {row for row, weight in zip(rows, lam) if weight}
        implicit += [r for r in candidates if r in forced]
        candidates = [r for r in candidates if r not in forced]
        if exact_rank(implicit) == m:
            break  # the zero cone: every row left vanishes on it too

    cone_dim = m - exact_rank(implicit)
    if cone_dim == 0:
        return _ConeAnalysis(0, None)

    # the witness is positive on every candidate; with none left, any point
    # of the implicit equalities' null space is interior
    prim = primitive_vector(witness if candidates else nullspace_basis(implicit, m)[0])
    assert prim is not None
    return _ConeAnalysis(cone_dim, prim)


def cone_dimension(system: LinearSystem) -> int:
    """Linear dimension of the cone cut out by the system (0 means only 0)."""
    return _analyze(system).dimension


def interior_point(system: LinearSystem) -> IntRow | None:
    """A relative-interior point of the cone, or None for the zero cone.

    The point satisfies every equality exactly and every inequality that is
    not forced to equality strictly.
    """
    return _analyze(system).interior


def cone_contains(inner: LinearSystem, outer: LinearSystem) -> bool:
    """Exact test cone(inner) <= cone(outer); the zero cone lies in every cone.

    After the identical-system and interior-point checks, each signed outer
    row r is one :func:`balance` by Farkas' lemma: r >= 0 on cone(inner)
    exactly when inner's signed rows and -r balance with weight on -r.
    """
    if inner.dim != outer.dim:
        raise ValueError("ambient dimensions differ")
    if inner == outer:
        return True
    p = interior_point(inner)
    if p is None:
        return True
    if not outer.satisfied_by(p):
        return False
    rows = _signed_rows(inner)
    for row in _signed_rows(outer):
        neg = tuple(-x for x in row)
        if row not in rows and balance(rows + (neg,), [neg]) is None:
            return False
    return True
