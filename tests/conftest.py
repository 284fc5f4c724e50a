"""Shared helpers: seeded random polynomials and independent oracles.

The oracles here deliberately re-implement their checks from scratch (plain
loops, no library internals) so the tests compare two independent routes.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Iterable, Optional, Sequence

import loglimset
from loglimset.exactgeom import LinearSystem, cone_dimension
from loglimset.laurent import LaurentPolynomial
from loglimset.sphdual import pair_cone, reduce_to_maximal


def subprocess_env() -> dict[str, str]:
    """The environment with the imported package's source root first on
    PYTHONPATH, so ``python -m loglimset`` in a child runs the same code."""
    src = str(Path(loglimset.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def random_laurent(
    rng: random.Random,
    variables,
    max_terms: int = 6,
    exp_lo: int = -4,
    exp_hi: int = 4,
    coeff_lo: int = -9,
    coeff_hi: int = 9,
    min_terms: int = 1,
) -> LaurentPolynomial:
    """A random nonzero Laurent polynomial with small integer data."""
    m = len(variables)
    while True:
        n_terms = rng.randint(min_terms, max_terms)
        terms: dict = {}
        for _ in range(n_terms):
            exps = tuple(rng.randint(exp_lo, exp_hi) for _ in range(m))
            coeff = 0
            while coeff == 0:
                coeff = rng.randint(coeff_lo, coeff_hi)
            terms[exps] = terms.get(exps, 0) + coeff
        poly = LaurentPolynomial(variables, terms)
        if not poly.is_zero():
            return poly


def support_max_twice(support, xi) -> bool:
    """Direct limit-set membership: max of xi.alpha attained at least twice."""
    values = [sum(a * x for a, x in zip(alpha, xi)) for alpha in support]
    if len(values) < 2:
        return False
    top = max(values)
    return values.count(top) >= 2


def primitive_vectors_py(dim: int, height: int) -> list[tuple[int, ...]]:
    """Pure-python enumeration of primitive vectors with max-norm <= height."""
    out = []
    for vec in itertools.product(range(-height, height + 1), repeat=dim):
        if not any(vec):
            continue
        g = 0
        for x in vec:
            g = gcd(g, abs(x))
        if g == 1:
            out.append(vec)
    return out


# Reference reduced row echelon form over Q in Fraction arithmetic; tests
# compare the fraction-free elimination of exactgeom.rref to it.
def rref_fraction(rows: Iterable[Sequence[int | Fraction]]) -> tuple[list[int], list[list[Fraction]]]:
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


# Reference phase-1 simplex on a Fraction tableau, with the crash basis and
# Bland rule of exactgeom.solve_nonneg; tests compare the integer kernel to it.
def solve_nonneg_fraction(rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b exactly, or None if infeasible."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    A = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]

    # crash basis from pre-existing unit columns
    basis: list[int] = [-1] * m
    taken: set[int] = set()
    for i in range(m):
        for j in range(n):
            if j in taken or A[i][j] != 1:
                continue
            if all(A[k][j] == 0 for k in range(m) if k != i):
                basis[i] = j
                taken.add(j)
                break
    art_rows = [i for i in range(m) if basis[i] == -1]
    if not art_rows:
        x = [Fraction(0)] * n
        for i, j in enumerate(basis):
            x[j] = b[i]
        return x

    total = n + len(art_rows)
    T = [row + [Fraction(0)] * len(art_rows) for row in A]
    for k, i in enumerate(art_rows):
        T[i][n + k] = Fraction(1)
        basis[i] = n + k

    # phase-1 objective: minimise the sum of artificials.  d[j] is the rate
    # at which the objective drops when nonbasic column j enters.
    d = [Fraction(0)] * total
    value = Fraction(0)
    for i in art_rows:
        for j in range(total):
            d[j] += T[i][j]
        value += b[i]
    for j in range(n, total):
        d[j] = Fraction(0)  # artificials never re-enter
    alive = [True] * total

    while True:
        enter = -1
        for j in range(n):
            if alive[j] and d[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            coef = T[i][enter]
            if coef > 0:
                ratio = b[i] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        b[leave] = b[leave] / piv
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * c for a, c in zip(T[i], T[leave])]
                b[i] -= f * b[leave]
        f = d[enter]
        if f != 0:
            d = [a - f * c for a, c in zip(d, T[leave])]
            value -= f * b[leave]
        left_col = basis[leave]
        if left_col >= n:
            alive[left_col] = False
        basis[leave] = enter

    if value != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = b[i]
    return x


# Reference cells of one support, built from every pair of support points: the
# nonzero pair cones reduced to maximal cells.  Tests compare the edge
# construction of sphdual to it.
def support_cells_all_pairs(support) -> tuple[LinearSystem, ...]:
    """Maximal cells of the spherical dual of one support."""
    pts = sorted(support)
    systems = {pair_cone(pts, a0, a1) for a0, a1 in itertools.combinations(pts, 2)}
    return reduce_to_maximal(s for s in sorted(systems) if cone_dimension(s) > 0)
