"""Shared helpers: seeded random polynomials and independent oracles.

The oracles here deliberately re-implement their checks from scratch (plain
loops, no library internals) so the tests compare two independent routes.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import os
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
from mpmath import mp

import loglimset
from loglimset.exactgeom import (
    LinearSystem,
    cone_contains,
    cone_dimension,
    exact_rank,
    nullspace_basis,
    primitive_vector,
)
from loglimset.knots import TorusKnotParams, a_polynomial
from loglimset.laurent import LaurentPolynomial
from loglimset.loglim import SampleParams, SamplePoint, SampleResult
from loglimset.sphdual import SphericalComplex, pair_cone, ray_directions, reduce_to_maximal


def subprocess_env() -> dict[str, str]:
    """The environment with the imported package's source root first on
    PYTHONPATH, so ``python -m loglimset`` in a child runs the same code."""
    src = str(Path(loglimset.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def load_bench_module(name: str):
    """A module of the benchmark's ``bench/`` directory, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # registered first, as an import would, so its dataclasses can resolve it
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


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


LINK_VARIABLES = ("m1", "l1", "m2", "l2")


def split_link_generators(*knots: tuple[int, int]) -> list[LaurentPolynomial]:
    """A_K1(m1, l1) and A_K2(m2, l2) of two torus knots, over (m1, l1, m2, l2)."""
    gens = []
    for cusp, (p, q) in enumerate(knots):
        terms = {}
        for (m, l), coeff in a_polynomial(TorusKnotParams(p, q)).expand().items():
            exps = [0] * len(LINK_VARIABLES)
            exps[2 * cusp], exps[2 * cusp + 1] = m, l
            terms[tuple(exps)] = coeff
        gens.append(LaurentPolynomial(LINK_VARIABLES, terms))
    return gens


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


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


def _primitive_int_row(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """The positive multiple of a nonzero rational row with coprime integer entries."""
    scale = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


# Reference canonical form of a homogeneous system in Fraction arithmetic;
# tests compare LinearSystem.make to it.
def canonical_rows_fraction(
    equalities: Iterable[Sequence[int]], inequalities: Iterable[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(equalities, inequalities) in canonical form: the equalities are the
    rational RREF scaled to primitive integer rows, each inequality is reduced
    over Q modulo their span and scaled to a primitive integer row, zero and
    duplicate rows go, and opposite inequalities become equalities until no
    opposite pair is left.  Both tuples are sorted."""
    eqs = [[int(x) for x in row] for row in equalities]
    ineqs = [[int(x) for x in row] for row in inequalities]
    while True:
        pivots, reduced = rref_fraction(eqs)
        rows = set()
        for row in ineqs:
            vec = [Fraction(x) for x in row]
            for prow, col in zip(reduced, pivots):
                f = vec[col]
                vec = [a - f * c for a, c in zip(vec, prow)]
            if any(vec):
                rows.add(_primitive_int_row(vec))
        canon_eqs = sorted(_primitive_int_row(row) for row in reduced)
        opposite = [row for row in rows if tuple(-x for x in row) in rows]
        if not opposite:
            return tuple(canon_eqs), tuple(sorted(rows))
        eqs = canon_eqs + opposite
        ineqs = [row for row in rows if row not in opposite]


# Reference phase-1 simplex on a Fraction tableau, every row starting on an
# artificial column, with the Bland rule of exactgeom.solve_nonneg; tests
# compare the integer kernel to it.
def solve_nonneg_fraction(rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]) -> Optional[list[Fraction]]:
    """Find x >= 0 with A x = b exactly, or None if infeasible."""
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    T = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in rhs]
    for i in range(m):
        if b[i] < 0:
            T[i] = [-v for v in T[i]]
            b[i] = -b[i]

    # row i starts on artificial column n + i; the artificial columns never
    # re-enter, so T does not store them
    basis = list(range(n, n + m))

    # phase-1 objective: minimise the sum of artificials.  d[j] is the rate
    # at which the objective drops when structural column j enters.
    d = [sum(col, Fraction(0)) for col in zip(*T)]
    value = sum(b, Fraction(0))

    while True:
        enter = -1
        for j in range(n):
            if d[j] > 0:
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
        if piv != 1:
            T[leave] = [v / piv if v else v for v in T[leave]]
            b[leave] = b[leave] / piv
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * c if c else a for a, c in zip(T[i], T[leave])]
                b[i] -= f * b[leave]
        f = d[enter]
        if f != 0:
            d = [a - f * c if c else a for a, c in zip(d, T[leave])]
            value -= f * b[leave]
        basis[leave] = enter

    if value != 0:
        return None
    x = [Fraction(0)] * n
    for i, j in enumerate(basis):
        if j < n:
            x[j] = b[i]
    return x


# The hull LP that polytope.extreme_points solved before it asked balance:
# point = sum lam_q q over the others, with sum lam_q = 1 and lam >= 0.
def in_convex_hull_fraction(point: Sequence[int], others: Sequence[Sequence[int]]) -> bool:
    rows = [[1] * len(others)] + [[q[i] for q in others] for i in range(len(point))]
    return solve_nonneg_fraction(rows, [1, *point]) is not None


# The primal strict LP that exactgeom used before it asked balance: free
# unknowns split as y = u - w and one slack column per row, on the Fraction
# tableau above.
def strict_feasible(rows: Sequence[Sequence[int]], strict: Sequence[Sequence[int]]) -> Optional[list[Fraction]]:
    """A point y with row.y >= 0 for all rows and row.y >= 1 for strict rows, or None."""
    d = len(rows[0]) if rows else len(strict[0])
    strict_set = set(strict)
    ordered = list(strict) + [r for r in rows if r not in strict_set]
    A = []
    for i, row in enumerate(ordered):
        slack = [0] * len(ordered)
        slack[i] = -1
        A.append(list(row) + [-x for x in row] + slack)
    x = solve_nonneg_fraction(A, [int(i < len(strict)) for i in range(len(ordered))])
    if x is None:
        return None
    return [x[j] - x[d + j] for j in range(d)]


# Reference cone analysis that solves one LP per candidate row once the joint
# strict LP is infeasible, as exactgeom._analyze did before it read implicit
# equalities off a certificate.  It works on the inequalities projected onto a
# basis of the equalities' null space, where _analyze balances the signed rows
# in the ambient coordinates.  Tests compare the balance loop to it.
def analyze_per_candidate(system: LinearSystem) -> tuple[int, frozenset]:
    """(cone dimension, the inequality rows that vanish on the whole cone)."""
    basis = nullspace_basis(system.equalities, system.dim)
    projected = {row: primitive_vector([dot(row, v) for v in basis]) for row in system.inequalities}
    proj_rows = sorted(set(projected.values()))
    implicit = [r for r in proj_rows if tuple(-x for x in r) in proj_rows]
    candidates = [r for r in proj_rows if r not in implicit]
    if candidates and strict_feasible(proj_rows, candidates) is None:
        implicit += [r for r in candidates if strict_feasible(proj_rows, [r]) is None]
    vanishing = frozenset(row for row, pr in projected.items() if pr in implicit)
    return len(basis) - exact_rank(implicit), vanishing


# Reference containment on the strict LP above: cone(inner) lies in
# cone(outer) exactly when no outer row (each equality with both signs) can
# be made strictly negative on cone(inner).
def contains_strict_lp(inner: LinearSystem, outer: LinearSystem) -> bool:
    """cone(inner) <= cone(outer), one strict LP per signed outer row."""

    def signed(s: LinearSystem) -> list[tuple[int, ...]]:
        return list(s.inequalities) + [tuple(sign * x for x in r) for r in s.equalities for sign in (1, -1)]

    rows = signed(inner)
    return all(strict_feasible(rows, [tuple(-x for x in r)]) is None for r in signed(outer))


# Reference maximal reduction that tries every ordered pair of cells, also
# against cells it has dropped, as sphdual.reduce_to_maximal did before it
# skipped them.
def reduce_to_maximal_all_pairs(cells) -> tuple[LinearSystem, ...]:
    ordered = sorted(set(cells))
    return tuple(
        a
        for a in ordered
        if not any(b != a and cone_contains(a, b) and (b < a or not cone_contains(b, a)) for b in ordered)
    )


# Reference cells of one support, built from every pair of support points: the
# nonzero pair cones reduced to maximal cells.  Tests compare the edge
# construction of sphdual to it.
def support_cells_all_pairs(support) -> tuple[LinearSystem, ...]:
    """Maximal cells of the spherical dual of one support."""
    pts = sorted(support)
    systems = {pair_cone(pts, a0, a1) for a0, a1 in itertools.combinations(pts, 2)}
    return reduce_to_maximal(s for s in sorted(systems) if cone_dimension(s) > 0)


# Reference rational points of a cell complex: every primitive direction of
# the (2h+1)^m grid, masked cell by cell, as sphdual.rational_points did
# before it enumerated each cell through its free coordinates.  Tests compare
# the per-cell walk to it.
_INT64_SAFE = 2**62
_GRID_BLOCK_LIMIT = 2_000_000


def _primitive_directions_grid(dim: int, height: int) -> np.ndarray:
    axis = np.arange(-height, height + 1, dtype=np.int64)
    grid = np.meshgrid(*([axis] * dim), indexing="ij")
    vectors = np.stack([g.ravel() for g in grid], axis=1)
    nonzero = vectors[np.any(vectors != 0, axis=1)]
    g = np.gcd.reduce(np.abs(nonzero), axis=1)
    return nonzero[g == 1]


def _direction_blocks_grid(dim: int, height: int):
    """Primitive directions in lex order, sliced to bound peak memory."""
    if dim == 1 or (2 * height + 1) ** dim <= _GRID_BLOCK_LIMIT:
        block = _primitive_directions_grid(dim, height)
        if len(block):
            yield block
        return
    axis = np.arange(-height, height + 1, dtype=np.int64)
    grid = np.meshgrid(*([axis] * (dim - 1)), indexing="ij")
    tail = np.stack([g.ravel() for g in grid], axis=1)
    for first in axis:
        block = np.concatenate(
            [np.full((len(tail), 1), first, dtype=np.int64), tail], axis=1
        )
        nonzero = block[np.any(block != 0, axis=1)]
        if not len(nonzero):
            continue
        g = np.gcd.reduce(np.abs(nonzero), axis=1)
        primitive = nonzero[g == 1]
        if len(primitive):
            yield primitive


def _cell_mask_grid(cell: LinearSystem, dirs: np.ndarray, height: int) -> np.ndarray:
    rows = list(cell.equalities) + list(cell.inequalities)
    maxabs = max((abs(x) for row in rows for x in row), default=0)
    dtype = np.int64 if maxabs * height * cell.dim < _INT64_SAFE else object
    mask = np.ones(len(dirs), dtype=bool)
    if cell.equalities:
        eq = np.array(cell.equalities, dtype=dtype)
        mask &= ((eq @ dirs.T.astype(dtype, copy=False)) == 0).all(axis=0)
    if cell.inequalities:
        # the equalities keep few directions: test the inequalities on those only
        idx = np.nonzero(mask)[0]
        iq = np.array(cell.inequalities, dtype=dtype)
        mask[idx] = ((iq @ dirs[idx].T.astype(dtype, copy=False)) >= 0).all(axis=0)
    return mask


def rational_points_grid(complex_, height: int) -> tuple[tuple[int, ...], ...]:
    """Primitive directions of max-norm <= height in the cells of a complex."""
    out: list[tuple[int, ...]] = []
    for dirs in _direction_blocks_grid(complex_.dim, height):
        mask = np.zeros(len(dirs), dtype=bool)
        for cell in complex_.cells:
            mask |= _cell_mask_grid(cell, dirs, height)
        out.extend(tuple(int(x) for x in row) for row in dirs[mask])
    return tuple(out)


# ----------------------------------------------------------------------
# angles between sample directions and the rays of a two-variable dual


def spherical_distance(u: Sequence[float], v: Sequence[float]) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    return math.acos(max(-1.0, min(1.0, dot)))


def unit_direction(vec: Sequence[int]) -> tuple[float, ...]:
    norm = math.sqrt(sum(x * x for x in vec))
    return tuple(x / norm for x in vec)


def min_angle_to_complex(direction: Sequence[float], complex_: SphericalComplex) -> float:
    """Angular distance from a unit vector to the nearest ray of the complex.

    Valid when every cell of the complex is one-dimensional (rays or lines),
    which covers all two-variable duals.
    """
    if complex_.full_sphere:
        return 0.0
    rays = ray_directions(complex_)
    if not rays:
        return math.pi
    return min(spherical_distance(direction, unit_direction(r)) for r in rays)


# ----------------------------------------------------------------------
# the 40-digit mpmath sampler


def _quadratic_roots(a, b, c) -> list:
    # stable complex quadratic: avoid the cancellation in -b +- sqrt(disc)
    disc = mp.sqrt(b * b - 4 * a * c)
    if abs(b + disc) >= abs(b - disc):
        q = -(b + disc) / 2
    else:
        q = -(b - disc) / 2
    if q == 0:
        return [mp.mpc(0), mp.mpc(0)]
    return [q / a, c / q]


def _binomial_roots(lead, const, n: int) -> list:
    target = -const / lead
    radius = abs(target) ** (mp.mpf(1) / n)
    phase = mp.arg(target) / n
    return [radius * mp.exp(1j * (phase + 2 * mp.pi * k / n)) for k in range(n)]


def _double_roots(coeffs: list) -> list | None:
    """``np.roots`` of the coefficients as mpmath starting points; None when
    they are not finite and distinct: Durand-Kerner never separates two
    equal starting points, so both would converge to one root."""
    roots = np.roots([complex(c) for c in coeffs])
    if not np.all(np.isfinite(roots)) or len(set(roots.tolist())) < len(roots):
        return None
    return [mp.mpc(w) for w in roots.tolist()]


def _closed_or_polyroots(coeffs: list) -> list:
    degree = len(coeffs) - 1
    if degree == 1:
        return [-coeffs[1] / coeffs[0]]
    if degree == 2:
        return _quadratic_roots(*coeffs)
    if all(c == 0 for c in coeffs[1:-1]):
        return _binomial_roots(coeffs[0], coeffs[-1], degree)
    # 100 extra bits settle nearly every cluster; the few whose error bound
    # stays above 1e-30 at 100 are solved again at 400.  The first solve
    # starts from numpy's companion-matrix roots, which only saves steps: it
    # still iterates to the same bound, far past the starting doubles.
    try:
        roots, error = mp.polyroots(
            coeffs, maxsteps=500, extraprec=100, error=True, roots_init=_double_roots(coeffs)
        )
        if error <= 1e-30:
            return list(roots)
    except mp.NoConvergence:
        pass
    return list(mp.polyroots(coeffs, maxsteps=500, extraprec=400))


def _upper_hull(points: list[tuple[int, float]]) -> list[tuple[int, float]]:
    hull: list[tuple[int, float]] = []
    for px, py in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1) >= 0:
                hull.pop()
            else:
                break
        hull.append((px, py))
    return hull


_CLUSTER_SPREAD = 60.0  # natural-log coefficient range where direct solving is safe
_CLUSTER_WINDOW = 120.0  # coefficients this far (in nats) below a cluster are dropped


def _mp_roots(coeffs: list) -> list:
    """Roots of a dense polynomial (descending coefficients), deterministic.

    Small degrees use closed forms.  When the coefficient magnitudes span an
    extreme range (log-coordinates near e^10 put variety points at
    magnitudes like e^23000, far beyond any iterative solver's basin from
    unit-circle starting points), the roots split into magnitude clusters
    read off the upper Newton polygon of (k, log|a_k|); each cluster is
    rescaled to unit size, solved with the far-away coefficients windowed
    out, and scaled back.  The windowing perturbs each cluster only by a
    relative e^-20 or less, far below the sampling tolerances.  A segment
    from k1 to k2 holds the roots of ranks k1+1 .. k2 by modulus, and the
    window from lo to hi keeps those of ranks lo+1 .. hi; taking the
    segment's roots by rank stays right when clusters nearly touch, where
    the roots nearest the segment's scale can belong to its neighbour.
    """
    n = len(coeffs) - 1
    asc = coeffs[::-1]
    logs = [(k, float(mp.log(abs(a)))) for k, a in enumerate(asc) if a != 0]
    spread = max(v for _, v in logs) - min(v for _, v in logs)
    if spread <= _CLUSTER_SPREAD or len(logs) < 2:
        return _closed_or_polyroots(coeffs)
    roots: list = []
    hull = _upper_hull(logs)
    for (k1, v1), (k2, v2) in zip(hull, hull[1:]):
        cluster_scale = mp.exp(mp.mpf(v1 - v2) / (k2 - k1))
        scaled = [asc[k] * cluster_scale**k for k in range(n + 1)]
        top = max(abs(x) for x in scaled)
        cutoff = top * mp.exp(mp.mpf(-_CLUSTER_WINDOW))
        scaled = [x / top if abs(x) > cutoff else mp.mpc(0) for x in scaled]
        lo = 0
        while scaled[lo] == 0:
            lo += 1
        hi = n
        while scaled[hi] == 0:
            hi -= 1
        w_roots = _closed_or_polyroots(scaled[lo : hi + 1][::-1])
        ranked = sorted(w_roots, key=abs)[k1 - lo : k2 - lo]
        roots.extend(cluster_scale * w for w in ranked)
    return roots


def mp_root_log_moduli(coeffs: list) -> list[float]:
    """Sorted ``log|w|`` of the nonzero roots of ``sum a_k w^k`` in 40-digit
    mpmath; ``coeffs[k]`` is ``(log|a_k|, a_k / |a_k|)`` in ascending
    powers, or None for a zero coefficient, as the sampler's solver takes
    them."""
    with mp.workdps(40):
        desc = [mp.mpc(0) if c is None else mp.exp(mp.mpf(c[0])) * mp.mpc(c[1]) for c in reversed(coeffs)]
        top = max(abs(c) for c in desc)
        roots = _mp_roots([c / top for c in desc])
        return sorted(float(mp.log(abs(w))) for w in roots if w != 0)


def mp_sample_loglim(f: LaurentPolynomial, params: SampleParams) -> SampleResult:
    """Sample the plane curve f = 0 and return normalised log-vectors.

    The sampler as it was in 40-digit mpmath, kept as the reference for the
    log-polar double sampler ``loglim.sample_loglim``.

    For each magnitude rho on the grid and each random phase theta, one
    coordinate is fixed to ``rho * exp(i theta)`` and the polynomial is
    solved for the nonzero roots of the other; the sweep is then repeated
    with the coordinate roles exchanged.  Grid points where the remaining
    polynomial is constant, or where the root solver fails, are skipped and
    recorded.  Output order is fixed by (sweep, grid index, phase, root).
    """
    if len(f.variables) != 2:
        raise ValueError("sampling is implemented for two variables only")
    if f.is_zero():
        raise ValueError("cannot sample the zero polynomial")
    degree_spread = [
        max(e[i] for e in f.support()) - min(e[i] for e in f.support()) for i in (0, 1)
    ]
    if degree_spread[0] == 0 and degree_spread[1] == 0:
        raise ValueError("polynomial is constant in both variables; nothing to sample")

    rng = random.Random(params.seed)
    result = SampleResult()
    with mp.workdps(40):
        log_lo = mp.log(mp.mpf(params.rho_min))
        log_hi = mp.log(mp.mpf(params.rho_max))
        if not log_lo < log_hi:
            raise ValueError("rho_min must be smaller than rho_max")
        step = (log_hi - log_lo) / (params.grid - 1)
        for sweep in (0, 1):
            fixed, free = sweep, 1 - sweep
            # exponent of the free variable -> list of (fixed exponent, coeff)
            groups: dict[int, list[tuple[int, object]]] = {}
            for exps, coeff in f.items():
                groups.setdefault(exps[free], []).append((exps[fixed], coeff))
            emax, emin = max(groups), min(groups)
            if emax == emin:
                # keep the phase stream aligned so the other sweep draws the
                # same angles whether or not this one was degenerate
                for gi in range(params.grid):
                    for pi in range(params.phases):
                        rng.uniform(0.0, 2.0 * math.pi)
                        result.skipped.append((sweep, gi, pi, "constant in the free variable"))
                continue
            for gi in range(params.grid):
                t = log_lo + step * gi
                rho = mp.e**t
                for pi in range(params.phases):
                    theta = mp.mpf(rng.uniform(0.0, 2.0 * math.pi))
                    x = rho * (mp.cos(theta) + 1j * mp.sin(theta))
                    dense = []
                    scales = []
                    for e_free in range(emax, emin - 1, -1):
                        acc = mp.mpc(0)
                        scale = mp.mpf(0)
                        for e_fixed, coeff in groups.get(e_free, ()):
                            value = mp.mpf(coeff.numerator) / coeff.denominator * x**e_fixed
                            acc += value
                            scale += abs(value)
                        dense.append(acc)
                        scales.append(scale)
                    # strip coefficients that vanished by cancellation
                    zero_like = [
                        abs(c) <= scale * mp.mpf(2) ** (-mp.prec + 10)
                        for c, scale in zip(dense, scales)
                    ]
                    lo = 0
                    hi = len(dense)
                    while lo < hi and zero_like[lo]:
                        lo += 1
                    while hi > lo and zero_like[hi - 1]:
                        hi -= 1
                    coeffs = dense[lo:hi]
                    if len(coeffs) <= 1:
                        result.skipped.append((sweep, gi, pi, "no roots at this grid point"))
                        continue
                    top = max(abs(c) for c in coeffs)
                    coeffs = [c / top for c in coeffs]
                    try:
                        roots = _mp_roots(coeffs)
                    except mp.NoConvergence:
                        result.skipped.append((sweep, gi, pi, "root solver did not converge"))
                        continue
                    for ri, root in enumerate(roots):
                        if root == 0:
                            continue
                        u = mp.log(abs(root))
                        logvec = [mp.mpf(0), mp.mpf(0)]
                        logvec[fixed] = t
                        logvec[free] = u
                        norm = mp.sqrt(logvec[0] ** 2 + logvec[1] ** 2)
                        if norm == 0:
                            continue
                        radius = float(mp.sqrt(1 + norm**2))
                        direction = (float(logvec[0] / norm), float(logvec[1] / norm))
                        result.points.append(
                            SamplePoint(direction, radius, sweep, gi, pi, ri)
                        )
    return result
