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
Each sweep runs as numpy arrays over all its grid points.  The roots come in
magnitude clusters, one per Newton-polygon segment; a two-term cluster is
solved in closed form, the others of one size in one stacked eigenvalue
call, and every root is then polished by one Newton step on its grid
point's full polynomial.  The output is byte-stable on one host, but its
floats may differ in their last bits across CPUs, because numpy dispatches
``exp`` and ``log`` by CPU.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from decimal import Context, Decimal, InvalidOperation
from typing import Iterable, Iterator, Sequence

import numpy as np

from .laurent import LaurentPolynomial
from .sphdual import SphericalComplex, intersect, spherical_dual

DEFAULT_ACCUMULATION_RADIUS = math.exp(10.0)

_LN_CONTEXT = Context(prec=30)  # not the caller's thread-local decimal context
_CANCELLED = 2.0**-43  # a coefficient this small relative to its terms' moduli is zero
# Coefficients this many nats below a cluster's largest are dropped from its
# companion matrix.  Dropping moves the cluster's roots by up to e^-W
# relative, and a root up to e^W away that stays in the same matrix costs up
# to 2^-53 * e^W; the Newton step on the full polynomial (_newton_step)
# removes both errors.  At 40 a cluster can be lost.
_CLUSTER_WINDOW = 24.0
# A Newton step that moves a root by more than this, relative to its size,
# is not trusted, and the eigenvalue root is kept.
_POLISH_LIMIT = 2.0**-10
# Grid points solved together.  Most of a block's time is numpy's cost per
# call, so a sweep of a few thousand points runs as one block; the bound
# keeps a long sweep's working arrays, a few kB per grid point on small
# curves, from growing with the grid.
_BLOCK = 4096
_SKIP_REASONS = ("", "no roots at this grid point", "root solver did not converge")


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


class SamplePoints(Sequence[SamplePoint]):
    """Sample points stored as columns: ``radius`` (n,), ``direction``
    (n, 2) and ``keys`` (n, 4), whose rows are (sweep, grid index, phase
    index, root index).  Indexing and iteration build :class:`SamplePoint`
    objects on demand; equality is that of the point lists."""

    def __init__(self, radius: np.ndarray, direction: np.ndarray, keys: np.ndarray):
        self.radius, self.direction, self.keys = radius, direction, keys

    @classmethod
    def of(cls, points: Iterable[SamplePoint]) -> SamplePoints:
        if isinstance(points, SamplePoints):
            return points
        points = list(points)
        return cls(
            np.array([p.radius for p in points], dtype=float),
            np.array([p.direction for p in points], dtype=float).reshape(-1, 2),
            np.array(
                [(p.sweep, p.grid_index, p.phase_index, p.root_index) for p in points], dtype=np.int64
            ).reshape(-1, 4),
        )

    def __len__(self) -> int:
        return len(self.radius)

    def __getitem__(self, i: int) -> SamplePoint:
        return SamplePoint(tuple(self.direction[i].tolist()), float(self.radius[i]), *self.keys[i].tolist())

    def __iter__(self) -> Iterator[SamplePoint]:
        for d, r, k in zip(self.direction.tolist(), self.radius.tolist(), self.keys.tolist()):
            yield SamplePoint(tuple(d), r, *k)

    def __eq__(self, other) -> bool:
        if isinstance(other, Sequence):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


@dataclass
class SampleResult:
    points: Sequence[SamplePoint] = field(default_factory=list)
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


def _coefficient_sums(
    f: LaurentPolynomial, free: int, t: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of ``f`` in the free variable at every grid point.

    The fixed variable is ``e^t * e^(i theta)``.  Row ``p`` of both results
    describes ``sum_k a_k w^k`` at grid point ``p``, where ``k`` counts from
    the lowest free exponent of ``f``: ``log|a_k|`` (``-inf`` for a zero
    coefficient) and ``a_k / |a_k|`` (0 there).  Each coefficient sums its
    terms relative to the largest of them, and a sum that is this small
    against their moduli (``_CANCELLED``) has vanished by cancellation.
    """
    items = sorted(f.items(), key=lambda item: item[0][free])
    e_free = np.array([e[free] for e, _ in items])
    e_fixed = np.array([e[1 - free] for e, _ in items])[:, None]
    log_abs = np.array([math.log(abs(c.numerator)) - math.log(c.denominator) for _, c in items])
    sign = np.array([1.0 if c > 0 else -1.0 for _, c in items])[:, None]
    starts = np.flatnonzero(np.diff(e_free, prepend=e_free[0] - 1))
    # term j as log-modulus plus phase, then relative to its coefficient's top
    v = log_abs[:, None] + e_fixed * t
    top = np.maximum.reduceat(v, starts)
    modulus = np.exp(v - np.repeat(top, np.diff(starts, append=len(items)), axis=0))
    acc = np.add.reduceat(sign * modulus * np.exp(1j * (e_fixed * theta)), starts)
    size = np.abs(acc)
    alive = size > np.add.reduceat(modulus, starts) * _CANCELLED
    k = e_free[starts] - e_free[0]
    log_mod = np.full((len(t), e_free[-1] - e_free[0] + 1), -np.inf)
    phase = np.zeros(log_mod.shape, dtype=complex)
    log_mod[:, k] = (top + np.log(size, out=np.full_like(size, -np.inf), where=alive)).T
    phase[:, k] = np.divide(acc, size, out=np.zeros_like(acc), where=alive).T
    return log_mod, phase


def _newton_segments(log_mod: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The segments ``(row, k1, k2)`` of every row's upper Newton polygon of
    the points ``(k, log_mod[row, k])`` with finite ``log_mod``, row by row
    and left to right.

    The rows run Andrew's monotone chain in step: a point that lies on or
    below the chord of the last two hull points pops the last one, so
    collinear points never split a segment.
    """
    rows, width = log_mod.shape
    hull = np.zeros((rows, width), dtype=np.int64)
    depth = np.zeros(rows, dtype=np.int64)
    for k in range(width):
        here = np.flatnonzero(np.isfinite(log_mod[:, k]))
        active = here
        while active.size:
            active = active[depth[active] >= 2]
            x1 = hull[active, depth[active] - 2]
            x2 = hull[active, depth[active] - 1]
            y1 = log_mod[active, x1]
            y2 = log_mod[active, x2]
            turn = (x2 - x1) * (log_mod[active, k] - y1) - (y2 - y1) * (k - x1) >= 0
            active = active[turn]
            depth[active] -= 1
        hull[here, depth[here]] = k
        depth[here] += 1
    row, j = np.nonzero(np.arange(width - 1) < (depth - 1)[:, None])
    return row, hull[row, j], hull[row, j + 1]


def _eigenvalues(desc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of each row's polynomial (descending coefficients, both ends
    nonzero), and whether its solve succeeded.

    A row with two nonzero coefficients, ``a w^d + b``, is solved in closed
    form: its roots are ``|c|^(1/d) e^(i (arg c + 2 pi j) / d)`` with
    ``c = -b/a``.  The others go as one stack of companion matrices, built as
    ``np.roots`` builds them (Edelman and Murakami, *Polynomial roots from
    companion matrix eigenvalues*, 1995), into one ``np.linalg.eigvals``
    call.  A stack whose solve fails is solved again one matrix at a time.
    """
    count, d = desc.shape[0], desc.shape[1] - 1
    ok = np.ones(count, dtype=bool)
    roots = np.ones((count, d), dtype=complex)
    two = np.count_nonzero(desc, axis=1) == 2
    c = -desc[two, -1:] / desc[two, :1]
    roots[two] = np.abs(c) ** (1 / d) * np.exp(1j * (np.angle(c) + 2 * np.pi * np.arange(d)) / d)
    rest = np.flatnonzero(~two)
    if not rest.size:
        return roots, ok
    companion = np.zeros((len(rest), d, d), dtype=complex)
    companion[:, 0, :] = -desc[rest, 1:] / desc[rest, :1]
    below = np.arange(d - 1)
    companion[:, below + 1, below] = 1
    try:
        roots[rest] = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError:
        for i, matrix in zip(rest, companion):
            try:
                roots[i] = np.linalg.eigvals(matrix)
            except np.linalg.LinAlgError:
                ok[i] = False
    return roots, ok


def _newton_step(
    log_mod: np.ndarray, phase: np.ndarray, owner: np.ndarray, logs: np.ndarray, unit: np.ndarray
) -> np.ndarray:
    """``log|w|`` after one Newton step from each root ``w = e^logs * unit``
    of the polynomial in row ``owner`` (rows as :func:`_coefficient_sums`
    gives them, with powers counted from the row's first nonzero
    coefficient).

    The step is ``w - p/p' = w (1 - delta)`` with ``delta = p(w) / (w p'(w))``,
    so ``log|w|`` grows by ``log|1 - delta|``; the terms ``a_k w^k`` are
    divided by the largest before they are summed, so nothing overflows.  A
    step that is not finite, as where ``p'(w)`` vanishes, or larger than
    ``_POLISH_LIMIT`` keeps the root.  The sums run one power at a time,
    so no array is larger than one value per root.
    """
    first = np.argmax(np.isfinite(log_mod), axis=1)[owner]
    top = np.full(len(logs), -np.inf)
    for k in range(log_mod.shape[1]):
        np.maximum(top, log_mod[owner, k] + (k - first) * logs, out=top)
    value = np.zeros(len(logs), dtype=complex)
    slope = np.zeros(len(logs), dtype=complex)
    for k in range(log_mod.shape[1]):
        power = k - first
        term = np.exp(log_mod[owner, k] + power * logs - top) * phase[owner, k] * unit**power
        value += term
        slope += power * term
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = value / slope
        step = np.log(np.abs(1.0 - delta))
    good = np.isfinite(delta) & (np.abs(delta) <= _POLISH_LIMIT)
    return np.where(good, logs + step, logs)


def _root_logs(log_mod: np.ndarray, phase: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``log|w|`` of the nonzero roots of every row's polynomial.

    Rows are as :func:`_coefficient_sums` gives them, each with at least two
    nonzero coefficients.  Each segment of a row's upper Newton polygon of
    ``(k, log|a_k|)`` holds as many roots as it is wide, of modulus about
    ``e^-slope`` (Ostrowski).  The polynomial is rescaled so that a
    segment's roots have unit size, the coefficients more than
    ``_CLUSTER_WINDOW`` nats below the largest are dropped, and the rest is
    solved in doubles (:func:`_eigenvalues`); the window keeps the roots of
    ranks ``k_lo+1 .. k_hi`` by modulus, of which the segment's are ranks
    ``k1+1 .. k2``, which stays right when clusters nearly touch.  Each root
    then gets one Newton step (:func:`_newton_step`).  So no magnitude ever
    leaves double range, however far apart the clusters lie.

    Returns ``(owner, logs, failed)``: the roots row by row, cluster by
    cluster and within a cluster by ``|log|w||`` before the Newton step,
    with their rows in ``owner``; and the rows whose solve failed, which
    have no roots in the output.
    """
    width = log_mod.shape[1]
    seg_row, k1, k2 = _newton_segments(log_mod)
    seg = np.arange(len(seg_row))
    v = log_mod[seg_row]
    log_scale = (v[seg, k1] - v[seg, k2]) / (k2 - k1)
    first_nonzero = np.argmax(np.isfinite(v), axis=1)
    scaled = v + (np.arange(width) - first_nonzero[:, None]) * log_scale[:, None]
    top = scaled.max(axis=1)
    kept = scaled >= (top - _CLUSTER_WINDOW)[:, None]
    k_lo = np.argmax(kept, axis=1)
    k_hi = width - 1 - np.argmax(kept[:, ::-1], axis=1)
    coeff = np.where(kept, np.exp(scaled - top[:, None]) * phase[seg_row], 0)
    seg_failed = np.zeros(len(seg), dtype=bool)
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=complex))]
    # not np.unique, whose first call imports numpy.ma
    for degree in sorted(set((k_hi - k_lo).tolist())):
        members = np.flatnonzero(k_hi - k_lo == degree)
        desc = coeff[members[:, None], k_hi[members, None] - np.arange(degree + 1)]
        roots, ok = _eigenvalues(desc)
        seg_failed[members[~ok]] = True
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(roots))  # a zero root gives -inf and ranks first
        order = np.argsort(logs, axis=1, kind="stable")
        logs = np.take_along_axis(logs, order, axis=1)
        roots = np.take_along_axis(roots, order, axis=1)
        rank = np.arange(degree) - np.count_nonzero(roots == 0, axis=1)[:, None]
        chosen = ok[:, None] & (rank >= (k1 - k_lo)[members, None]) & (rank < (k2 - k_lo)[members, None])
        order = np.argsort(np.where(chosen, np.abs(logs), np.inf), axis=1, kind="stable")
        count = np.count_nonzero(chosen, axis=1)
        taken = np.arange(degree) < count[:, None]
        parts.append(
            (
                np.repeat(members, count),
                np.take_along_axis(logs, order, axis=1)[taken],
                np.take_along_axis(roots, order, axis=1)[taken],
            )
        )
    root_seg, logs, roots = (np.concatenate(column) for column in zip(*parts))
    failed = np.zeros(len(log_mod), dtype=bool)
    failed[seg_row[seg_failed]] = True
    # segments are numbered row by row, left to right
    order = np.argsort(root_seg, kind="stable")
    order = order[~failed[seg_row[root_seg[order]]]]
    root_seg, logs, roots = root_seg[order], logs[order], roots[order]
    owner = seg_row[root_seg]
    logs = logs + log_scale[root_seg]
    return owner, _newton_step(log_mod, phase, owner, logs, roots / np.abs(roots)), failed


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
    never exist as numbers.  A sweep computes the coefficients of all its
    grid points at once (:func:`_coefficient_sums`), then their roots
    (:func:`_root_logs`), then its points, each step as arrays.
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
    log_lo, log_hi = params.log_bounds
    step = (log_hi - log_lo) / (params.grid - 1)
    # grid point p is magnitude p // phases and phase p % phases
    t = np.repeat(log_lo + step * np.arange(params.grid), params.phases)
    skipped: list[tuple[int, int, int, str]] = []
    columns = [(np.zeros(0), np.zeros((0, 2)), np.zeros((0, 4), dtype=np.int64))]
    for sweep in (0, 1):
        fixed, free = sweep, 1 - sweep
        # both sweeps draw every angle, so each draws the same ones whether
        # or not the other was degenerate; uniform(0, 2 pi) is 2 pi * random(),
        # bit for bit
        theta = np.array([rng.random() for _ in range(len(t))]) * (2.0 * math.pi)
        if degree_spread[free] == 0:
            skipped.extend(
                (sweep, gi, pi, "constant in the free variable")
                for gi in range(params.grid)
                for pi in range(params.phases)
            )
            continue
        for start in range(0, len(t), _BLOCK):
            block = np.arange(start, min(start + _BLOCK, len(t)))
            log_mod, phase = _coefficient_sums(f, free, t[block], theta[block])
            reason = np.zeros(len(block), dtype=np.int64)
            solvable = np.count_nonzero(np.isfinite(log_mod), axis=1) >= 2
            reason[~solvable] = 1
            rows = np.flatnonzero(solvable)
            owner, logs, failed = _root_logs(log_mod[rows], phase[rows])
            reason[rows[failed]] = 2
            bad = np.flatnonzero(reason)
            skipped.extend(
                (sweep, p // params.phases, p % params.phases, _SKIP_REASONS[r])
                for p, r in zip(block[bad].tolist(), reason[bad].tolist())
            )
            # the root index counts every root of its grid point, kept or not
            root = np.arange(len(owner)) - np.searchsorted(owner, owner)
            point = block[rows[owner]]
            logvec = np.empty((len(point), 2))
            logvec[:, fixed] = t[point]
            logvec[:, free] = logs
            norm = np.hypot(logvec[:, 0], logvec[:, 1])
            radius = np.hypot(1.0, norm)
            keep = radius != 1.0  # a log-vector this short is rounding noise
            keys = np.column_stack(
                [np.full(len(point), sweep), point // params.phases, point % params.phases, root]
            )
            columns.append((radius[keep], logvec[keep] / norm[keep, None], keys[keep]))
    radius, direction, keys = (np.concatenate(column) for column in zip(*columns))
    return SampleResult(SamplePoints(radius, direction, keys), skipped)


def _repr_blocks(points: Iterable[SamplePoint]) -> Iterator[tuple[list[str], zip]]:
    """One block of points at a time: the ``repr`` of each distinct float of
    ``(radius, d1, d2)``, and each point's three indices into that list.

    Near infinity all phases of one magnitude give roots of one modulus, so
    most floats of a sample repeat exactly and only a few are formatted.
    Floats are told apart by their bits, not their values, because ``0.0``
    and ``-0.0`` are equal but print differently.
    """
    columns = SamplePoints.of(points)
    for start in range(0, len(columns), 1024):
        block = slice(start, start + 1024)
        bits = np.concatenate([columns.radius[block], *columns.direction[block].T], dtype=float).view(np.int64)
        order = np.argsort(bits)  # equal bits share one text, so no stable sort is needed
        first = np.r_[True, bits[order[1:]] != bits[order[:-1]]]
        index = np.empty_like(order)
        index[order] = np.cumsum(first) - 1
        yield list(map(repr, bits[order[first]].view(float).tolist())), zip(*index.reshape(3, -1).tolist())


def csv_lines(points: Iterable[SamplePoint]) -> list[str]:
    """Rows of ``radius,d1,d2`` with full float precision."""
    return [f"{t[r]},{t[a]},{t[b]}" for t, block in _repr_blocks(points) for r, a, b in block]


def plotdata_lines(points: Iterable[SamplePoint]) -> list[str]:
    """Rows of ``d1 d2 radius`` with full float precision."""
    return [f"{t[a]} {t[b]} {t[r]}" for t, block in _repr_blocks(points) for r, a, b in block]


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
    columns = SamplePoints.of(points)
    if not len(columns):
        return []
    sweep, grid_index, phase_index, root_index = columns.keys.T
    ordered = np.lexsort((root_index, phase_index, grid_index, sweep, -columns.radius))
    chosen = columns.direction[ordered[: max(1, int(len(columns) * top_fraction))]]
    # a greedy pass in sample order: each point not yet taken founds a
    # cluster of every untaken point within tolerance of it
    free = np.ones(len(chosen), dtype=bool)
    clusters = []
    while free.any():
        rep = chosen[np.argmax(free)]
        dot = chosen[:, 0] * rep[0] + chosen[:, 1] * rep[1]
        near = free & (np.arccos(np.clip(dot, -1.0, 1.0)) <= tolerance)
        free &= ~near
        clusters.append((tuple(rep.tolist()), int(np.count_nonzero(near))))
    return clusters
