"""Boundary-curve coordinates from limit sets of eigenvalue varieties.

Variables are ordered (m_1, l_1, ..., m_h, l_h), one meridian/longitude
eigenvalue pair per boundary torus.  A rational direction of the limit set
is converted to a projectivised boundary-curve class by the blockwise
quarter turn (a, b) -> (b, -a) followed by canonicalisation in
RP^(2h-1) / Z_2^(h-1): divide by the gcd and flip each pair so its first
nonzero entry is positive.  For a single torus the class [p, q] is read as
the slope p/q.

``detect_boundary_coordinates`` computes the classes of a whole complex as
arrays: one integer array of directions, the quarter turn as a column swap
with one negation, the pair flips by ``np.where``.  ``apply_T`` and
``canonicalize`` are the per-vector API and the reference that the tests
compare it with.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .exactgeom import int_entries, primitive_vector
from .sphdual import RationalDirection, SphericalComplex, rational_points


def apply_T(xi: Sequence[int], h: int) -> RationalDirection:
    """Blockwise quarter turn: each pair (a, b) maps to (b, -a)."""
    vec = int_entries(xi, "direction")
    if len(vec) != 2 * h:
        raise ValueError(f"direction has length {len(vec)}, expected {2 * h}")
    out: list[int] = []
    for i in range(h):
        a, b = vec[2 * i], vec[2 * i + 1]
        out.extend((b, -a))
    return tuple(out)


@dataclass(frozen=True)
class BoundaryCurveCoordinate:
    """Canonical class representative in RP^(2h-1) modulo per-pair sign flips.

    Entries are (n_1 p_1, n_1 q_1, ..., n_h p_h, n_h q_h) with overall gcd
    one and each pair flipped so its first nonzero entry is positive.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or len(self.entries) % 2:
            raise ValueError("entries must come in (p, q) pairs")
        if not any(self.entries):
            raise ValueError("the zero vector is not a boundary coordinate")

    @property
    def h(self) -> int:
        return len(self.entries) // 2

    def slope(self) -> Fraction | None:
        """Slope p/q for the single-torus case; None means the meridian (1/0)."""
        if self.h != 1:
            raise ValueError("slopes are defined for a single boundary torus")
        p, q = self.entries
        if q == 0:
            return None
        return Fraction(p, q)

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self) -> str:
        return f"[{', '.join(str(x) for x in self.entries)}]"


def canonicalize(vector: Sequence[int]) -> BoundaryCurveCoordinate:
    """Canonical representative of an integer vector in the quotient sphere."""
    vec = int_entries(vector, "vector")
    if not vec or len(vec) % 2:
        raise ValueError("vector length must be a positive even number")
    if not any(vec):
        raise ValueError("cannot canonicalise the zero vector")
    vec = primitive_vector(vec)
    out: list[int] = []
    for i in range(0, len(vec), 2):
        a, b = vec[i], vec[i + 1]
        lead = a if a != 0 else b
        if lead < 0:
            a, b = -a, -b
        out.extend((a, b))
    return BoundaryCurveCoordinate(tuple(out))


def detect_boundary_coordinates(
    complex_: SphericalComplex, height: int
) -> set[BoundaryCurveCoordinate]:
    """Boundary classes of all rational directions of the limit set.

    The complex must live over the 2h eigenvalue coordinates in cusp order;
    every primitive direction up to the height bound is pushed through the
    quarter turn and canonicalised, all of them at once as one array.
    """
    if complex_.dim % 2:
        raise ValueError("eigenvalue varieties live in an even number of variables")
    h = complex_.dim // 2
    pairs = np.array(rational_points(complex_, height), dtype=np.int64).reshape(-1, h, 2)
    # T is a signed permutation, so a primitive direction stays primitive: no gcd
    turned = pairs[:, :, ::-1] * np.array([1, -1])
    lead = np.where(turned[:, :, 0] != 0, turned[:, :, 0], turned[:, :, 1])
    turned *= np.where(lead < 0, -1, 1)[:, :, None]
    # a set of tuples deduplicates these few thousand rows faster than np.unique(axis=0)
    classes = set(map(tuple, turned.reshape(-1, 2 * h).tolist()))
    return {BoundaryCurveCoordinate(entries) for entries in classes}


def format_slope(slope: Fraction | None) -> str:
    return "inf" if slope is None else str(slope)


def sort_slopes(slopes: Iterable[Fraction | None]) -> list[Fraction | None]:
    """Finite slopes ascending, the infinite slope last."""
    items = list(slopes)
    finite = sorted(s for s in items if s is not None)
    if any(s is None for s in items):
        finite.append(None)
    return finite
