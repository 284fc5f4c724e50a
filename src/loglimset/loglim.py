"""Logarithmic limit sets: exact assembly and numerical sampling.

For a principal ideal the limit set equals the spherical dual of the single
generator, computed exactly.  For a finitely generated ideal the
intersection of the generators' duals is only an OUTER approximation: it
contains the true limit set and can be strictly larger, since membership of
the true set quantifies over every element of the ideal.

``sample_loglim`` checks the combinatorics against the analytic definition
for curves in two variables: points of the variety are sampled along
log-spaced magnitude grids, their coordinate-log vectors are normalised, and
the resulting directions accumulate on the limit set as the radius grows.
The roots come in magnitude clusters, one per Newton-polygon segment, and
each sweep solves all its clusters of one size in one stacked eigenvalue
call.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from decimal import Context, Decimal, InvalidOperation
from typing import Iterable, Sequence

import numpy as np

from .laurent import LaurentPolynomial
from .sphdual import SphericalComplex, intersect, ray_directions, spherical_dual

DEFAULT_ACCUMULATION_RADIUS = math.exp(10.0)

_LN_CONTEXT = Context(prec=30)  # not the caller's thread-local decimal context
_CANCELLED = 2.0**-43  # a coefficient this small relative to its terms' moduli is zero
# Coefficients this many nats below a cluster's largest are dropped.  Dropping
# moves the cluster's roots by up to e^-W relative; a root up to e^W away that
# stays in the same companion matrix costs up to 2^-53 * e^W.  At 24 the
# measured error in log|root| stays below 2e-9; at 40 a cluster can be lost.
_CLUSTER_WINDOW = 24.0


def loglim_outer(generators: Sequence[LaurentPolynomial]) -> SphericalComplex:
    """Intersection of the generators' spherical duals.

    This is an outer approximation of the limit set of the generated ideal;
    it is exact for principal ideals.  Zero generators contribute nothing and
    are dropped; if every generator is zero the result is the full sphere.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    variables = gens[0].variables
    for g in gens[1:]:
        if g.variables != variables:
            raise ValueError("generators must share one variable list")
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return SphericalComplex.full(len(variables))
    result = spherical_dual(nonzero[0])
    for g in nonzero[1:]:
        result = intersect(result, spherical_dual(g))
    return result


# ----------------------------------------------------------------------
# numerical sampling (two variables)


@dataclass(frozen=True)
class SampleParams:
    """Grid parameters for sampling a plane curve near infinity.

    Magnitudes are log-spaced between ``rho_min`` and ``rho_max``, each a
    finite positive decimal (strings are accepted so magnitudes far beyond
    double range, e.g. "1e10000", can be requested).
    """

    rho_min: str | float = "1e-8"
    rho_max: str | float = "1e8"
    grid: int = 64
    phases: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.grid < 2:
            raise ValueError("grid must have at least two magnitudes")
        if self.phases < 1:
            raise ValueError("need at least one phase per magnitude")
        log_lo, log_hi = self.log_bounds
        if not log_lo < log_hi:
            raise ValueError("rho_min must be smaller than rho_max")

    @property
    def log_bounds(self) -> tuple[float, float]:
        """``(ln rho_min, ln rho_max)`` as doubles."""
        return _log_magnitude(self.rho_min), _log_magnitude(self.rho_max)


@dataclass(frozen=True)
class SamplePoint:
    """One normalised log-vector of a sampled variety point.

    ``direction`` is the exact unit vector of the log-coordinates and
    ``radius`` the unnormalised length ``sqrt(1 + sum(log|x_i|)^2)``, so the
    ball-model image is recoverable as ``direction * sqrt(r^2-1)/r``.
    """

    direction: tuple[float, float]
    radius: float
    sweep: int
    grid_index: int
    phase_index: int
    root_index: int


@dataclass
class SampleResult:
    points: list[SamplePoint] = field(default_factory=list)
    skipped: list[tuple[int, int, int, str]] = field(default_factory=list)


def _log_magnitude(value: str | float) -> float:
    """Natural log of a finite positive magnitude given as a decimal string
    or number; strings far beyond double range, such as "1e10000", are exact."""
    try:
        magnitude = Decimal(value)
        valid = magnitude.is_finite() and magnitude > 0
    except (InvalidOperation, TypeError, ValueError):
        valid = False
    if not valid:
        raise ValueError(f"magnitude must be a finite positive number, got {value!r}")
    return float(magnitude.ln(_LN_CONTEXT))


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


# One root cluster: ``(log_scale, first, stop, desc)``.  Its roots are those of
# ranks ``first+1 .. stop`` by modulus among the roots of the polynomial with
# descending coefficients ``desc``, each multiplied by ``e^log_scale``.
_Cluster = tuple[float, int, int, list[complex]]


def _plan_clusters(coeffs: list[tuple[float, complex] | None]) -> list[_Cluster]:
    """The root clusters of ``sum a_k w^k``, one per Newton-polygon segment.

    ``coeffs[k]`` is ``(log|a_k|, a_k / |a_k|)`` in ascending powers, or
    ``None`` for a zero coefficient; the first and last are nonzero.  Each
    segment of the upper Newton polygon of ``(k, log|a_k|)`` holds as many
    roots as it is wide, of modulus about ``e^-slope`` (Ostrowski).  The
    polynomial is rescaled so that a segment's roots have unit size, and
    the coefficients more than ``_CLUSTER_WINDOW`` nats below the largest
    are dropped; the rest is left to :func:`_solve_clusters`, in doubles.
    So no magnitude ever leaves double range, however far apart the
    clusters lie.
    """
    points = [(k, c[0]) for k, c in enumerate(coeffs) if c is not None]
    clusters: list[_Cluster] = []
    hull = _upper_hull(points)
    for (k1, v1), (k2, v2) in zip(hull, hull[1:]):
        log_scale = (v1 - v2) / (k2 - k1)
        scaled = [(k, v + k * log_scale) for k, v in points]
        top = max(v for _, v in scaled)
        kept = [(k, v) for k, v in scaled if v >= top - _CLUSTER_WINDOW]
        k_lo, k_hi = kept[0][0], kept[-1][0]
        desc = [0j] * (k_hi - k_lo + 1)
        for k, v in kept:
            desc[k_hi - k] = math.exp(v - top) * coeffs[k][1]
        # the window keeps the roots of ranks k_lo+1 .. k_hi; this segment's
        # are ranks k1+1 .. k2, which stays right when clusters nearly touch
        clusters.append((log_scale, k1 - k_lo, k2 - k_lo, desc))
    return clusters


def _solve_clusters(descs: list[list[complex]]) -> list[list[complex] | None]:
    """Roots of each polynomial (descending coefficients, both ends nonzero),
    or None where the eigenvalue solver fails.

    Polynomials of one length are solved together: a linear one in closed
    form, the others as one stack of companion matrices, built as
    ``np.roots`` builds them (Edelman and Murakami, *Polynomial roots from
    companion matrix eigenvalues*, 1995), in one ``np.linalg.eigvals``
    call, so the roots are bitwise those of ``np.roots``.  A stack whose
    solve fails is solved again one matrix at a time.
    """
    by_length: dict[int, list[int]] = {}
    for i, desc in enumerate(descs):
        by_length.setdefault(len(desc), []).append(i)
    roots: list[list[complex] | None] = [None] * len(descs)
    for n, members in by_length.items():
        p = np.array([descs[i] for i in members], dtype=complex)
        if n == 2:
            solved = (-p[:, 1:] / p[:, :1]).tolist()
        else:
            companion = np.zeros((len(members), n - 1, n - 1), dtype=complex)
            companion[:, 0, :] = -p[:, 1:] / p[:, :1]
            below = np.arange(n - 2)
            companion[:, below + 1, below] = 1
            try:
                solved = np.linalg.eigvals(companion).tolist()
            except np.linalg.LinAlgError:
                solved = [_eigvals_or_none(matrix) for matrix in companion]
        for i, r in zip(members, solved):
            roots[i] = r
    return roots


def _eigvals_or_none(matrix: np.ndarray) -> list[complex] | None:
    try:
        return np.linalg.eigvals(matrix).tolist()
    except np.linalg.LinAlgError:
        return None


def _log_moduli(clusters: list[_Cluster], solved: Iterable[list[complex] | None]) -> list[float] | None:
    """``log|w|`` of each cluster's roots from its solved polynomial; None
    if the solver failed on any cluster."""
    result: list[float] = []
    for (log_scale, first, stop, _), roots in zip(clusters, solved):
        if roots is None:
            return None
        # scalar math.log(abs(w)) per root: numpy's vectorised abs rounds differently
        logs = sorted(math.log(abs(w)) for w in roots if w != 0)
        chosen = sorted(logs[first:stop], key=abs)
        result.extend(u + log_scale for u in chosen)
    return result


def _root_log_moduli(coeffs: list[tuple[float, complex] | None]) -> list[float]:
    """``log|w|`` of the roots of ``sum a_k w^k`` (coefficients as in
    :func:`_plan_clusters`), cluster by cluster; raises ``LinAlgError``
    when the root solver fails."""
    clusters = _plan_clusters(coeffs)
    logs = _log_moduli(clusters, _solve_clusters([c[3] for c in clusters]))
    if logs is None:
        raise np.linalg.LinAlgError("root solver did not converge")
    return logs


def sample_loglim(f: LaurentPolynomial, params: SampleParams) -> SampleResult:
    """Sample the plane curve f = 0 and return normalised log-vectors.

    For each magnitude rho on the grid and each random phase theta, one
    coordinate is fixed to ``rho * exp(i theta)`` and the polynomial is
    solved for the nonzero roots of the other; the sweep is then repeated
    with the coordinate roles exchanged.  Grid points where the remaining
    polynomial is constant, or where the root solver fails, are skipped and
    recorded.  Output order is fixed by (sweep, grid index, phase, root).

    Everything is computed in log-polar doubles: a term ``c * x^e`` is the
    log-modulus ``log|c| + e*log(rho)`` with the phase ``arg c + e*theta``,
    and only ``log|root|`` reaches the output, so magnitudes like e^23000
    never exist as numbers.  A sweep first plans the root clusters of every
    grid point (:func:`_plan_clusters`), then solves them all at once
    (:func:`_solve_clusters`), then emits its points.
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
    log_lo, log_hi = params.log_bounds
    step = (log_hi - log_lo) / (params.grid - 1)
    for sweep in (0, 1):
        fixed, free = sweep, 1 - sweep
        # exponent of the free variable -> list of (fixed exponent, log|c|, sign c)
        groups: dict[int, list[tuple[int, float, int]]] = {}
        for exps, coeff in f.items():
            log_abs = math.log(abs(coeff.numerator)) - math.log(coeff.denominator)
            groups.setdefault(exps[free], []).append((exps[fixed], log_abs, 1 if coeff > 0 else -1))
        emax, emin = max(groups), min(groups)
        if emax == emin:
            # keep the phase stream aligned so the other sweep draws the
            # same angles whether or not this one was degenerate
            for gi in range(params.grid):
                for pi in range(params.phases):
                    rng.uniform(0.0, 2.0 * math.pi)
                    result.skipped.append((sweep, gi, pi, "constant in the free variable"))
            continue
        # (grid index, phase, t, clusters), clusters None without roots
        planned: list[tuple[int, int, float, list[_Cluster] | None]] = []
        for gi in range(params.grid):
            t = log_lo + step * gi
            for pi in range(params.phases):
                theta = rng.uniform(0.0, 2.0 * math.pi)
                # coefficient of each power of the free variable, ascending:
                # the terms are summed relative to the largest of them
                coeffs: list[tuple[float, complex] | None] = []
                for e_free in range(emin, emax + 1):
                    terms = [(lc + e * t, sign, e) for e, lc, sign in groups.get(e_free, ())]
                    top = max((v for v, _, _ in terms), default=0.0)
                    acc = 0j
                    scale = 0.0
                    for v, sign, e in terms:
                        modulus = math.exp(v - top)
                        acc += sign * modulus * cmath.exp(1j * e * theta)
                        scale += modulus
                    # a sum this small has vanished by cancellation
                    if abs(acc) <= scale * _CANCELLED:
                        coeffs.append(None)
                    else:
                        coeffs.append((top + math.log(abs(acc)), acc / abs(acc)))
                lo = 0
                hi = len(coeffs)
                while lo < hi and coeffs[lo] is None:
                    lo += 1
                while hi > lo and coeffs[hi - 1] is None:
                    hi -= 1
                planned.append((gi, pi, t, _plan_clusters(coeffs[lo:hi]) if hi - lo > 1 else None))
        solved = iter(_solve_clusters([c[3] for _, _, _, clusters in planned if clusters for c in clusters]))
        planned.reverse()
        while planned:
            gi, pi, t, clusters = planned.pop()  # dropped once its points are out
            if clusters is None:
                result.skipped.append((sweep, gi, pi, "no roots at this grid point"))
                continue
            log_roots = _log_moduli(clusters, [next(solved) for _ in clusters])
            if log_roots is None:
                result.skipped.append((sweep, gi, pi, "root solver did not converge"))
                continue
            for ri, u in enumerate(log_roots):
                logvec = [0.0, 0.0]
                logvec[fixed] = t
                logvec[free] = u
                radius = math.hypot(1.0, *logvec)
                if radius == 1.0:
                    continue  # a log-vector this short is rounding noise
                norm = math.hypot(*logvec)
                direction = (logvec[0] / norm, logvec[1] / norm)
                result.points.append(SamplePoint(direction, radius, sweep, gi, pi, ri))
    return result


def csv_lines(points: Iterable[SamplePoint]) -> list[str]:
    """Rows of ``radius,d1,d2,...`` with full float precision."""
    return [
        ",".join([repr(p.radius)] + [repr(c) for c in p.direction]) for p in points
    ]


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


def cluster_directions(
    points: Sequence[SamplePoint],
    top_fraction: float = 0.1,
    tolerance: float = 0.02,
) -> list[tuple[tuple[float, float], int]]:
    """Greedy clusters of the largest-radius sample directions.

    Takes the top ``top_fraction`` of samples by radius and groups directions
    within ``tolerance`` spherical distance of a cluster representative (the
    first member encountered, in deterministic sample order).
    """
    if not points:
        return []
    ordered = sorted(points, key=lambda p: (-p.radius, p.sweep, p.grid_index, p.phase_index, p.root_index))
    keep = max(1, int(len(ordered) * top_fraction))
    chosen = ordered[:keep]
    reps: list[tuple[float, float]] = []
    counts: list[int] = []
    for p in chosen:
        for i, rep in enumerate(reps):
            if spherical_distance(p.direction, rep) <= tolerance:
                counts[i] += 1
                break
        else:
            reps.append(p.direction)
            counts.append(1)
    return list(zip(reps, counts))
