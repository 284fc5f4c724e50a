"""Correctness oracles for the benchmark's CLI outputs.

Each oracle recomputes the answer by a route that avoids the code path under
test: plain numpy and integer arithmetic, no ``loglimset`` import.  A check
returns None when the output is right and a one-line reason otherwise.

* ``dual``: the direct "maximum of xi.alpha attained at least twice" test on
  every primitive direction up to a height bound must agree with membership
  in the emitted cells, and one relative-interior direction of every cone of
  the Newton polytope's normal fan that meets the set must lie in a cell.
* ``newton``: the claimed vertices must span the Minkowski sum of the two
  factors' supports (every pairwise sum satisfies every facet inequality of
  their hull), and each must be the unique maximiser of an integer direction
  (the sum of the normals of its facets).
* ``torusknot`` and ``link``: the boundary classes must equal the closed
  forms, computed with this module's own quarter turn and canonicalisation.
* ``sample``: every sample at radius >= e^10 must lie within 0.05 of a
  closed-form ray, and every ray must have such a sample near it.
"""

from __future__ import annotations

import itertools
import json
import math
from math import gcd

import numpy as np

# directions up to this max-norm are tested, by ambient dimension
DUAL_HEIGHT = {2: 24, 3: 8, 4: 5}
SAMPLE_RADIUS = math.exp(10.0)
SAMPLE_TOLERANCE = 0.05


def primitive_directions(dim: int, height: int) -> np.ndarray:
    """Every primitive integer vector of max-norm <= height, one per row."""
    axis = np.arange(-height, height + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(*([axis] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    grid = grid[np.any(grid != 0, axis=1)]
    return grid[np.gcd.reduce(np.abs(grid), axis=1) == 1]


def _in_cells(cells: list[dict], dirs: np.ndarray) -> np.ndarray:
    """Which rows of dirs satisfy every row of at least one JSON cell."""
    covered = np.zeros(len(dirs), dtype=bool)
    for cell in cells:
        inside = np.ones(len(dirs), dtype=bool)
        if cell["eq"]:
            inside &= (np.array(cell["eq"], dtype=np.int64) @ dirs.T == 0).all(axis=0)
        if cell["ineq"]:
            inside &= (np.array(cell["ineq"], dtype=np.int64) @ dirs.T >= 0).all(axis=0)
        covered |= inside
    return covered


def check_dual(data: dict, stdout: str) -> str | None:
    payload = json.loads(stdout)
    dim = data["dim"]
    if payload.get("dim") != dim or payload.get("full_sphere") is not False:
        return f"expected a dim-{dim} complex that is not the full sphere"
    support = np.array(data["support"], dtype=np.int64)
    dirs = primitive_directions(dim, DUAL_HEIGHT[dim])
    values = support @ dirs.T
    twice = (values == values.max(axis=0)).sum(axis=0) >= 2
    wrong = np.nonzero(twice != _in_cells(payload["cells"], dirs))[0]
    if len(wrong):
        xi = dirs[wrong[0]].tolist()
        return f"{len(wrong)} directions disagree with the support test, e.g. {xi}"
    # A cell can be too thin to hold a direction of bounded height, so every
    # cone of the normal fan also gets a witness of any height: the sum of the
    # normals of the facets through two support points.  Its maximum is
    # attained at both points, so it must lie in the complex.
    if np.linalg.matrix_rank(support[1:] - support[0]) < dim:
        return None
    facets = _facets(support)
    normals, offsets = facets[:, :dim], facets[:, dim]
    tight = normals @ support.T == offsets[:, None]
    witnesses = set()
    for a, b in itertools.combinations(range(len(support)), 2):
        both = tight[:, a] & tight[:, b]
        if both.any():
            witnesses.add(tuple(normals[both].sum(axis=0).tolist()))
    witness = np.array(sorted(witnesses), dtype=np.int64)
    uncovered = witness[~_in_cells(payload["cells"], witness)]
    if len(uncovered):
        return f"{len(uncovered)} normal-fan directions lie in no cell, e.g. {uncovered[0].tolist()}"
    return None


def _facets(vertices: np.ndarray) -> np.ndarray:
    """Outward facet inequalities (normal..., offset) of a full-dimensional hull.

    Every hyperplane through dim affinely independent vertices with all
    vertices on one side supports a facet, and every facet arises this way.
    """
    k, dim = vertices.shape
    found = set()
    combos = itertools.combinations(range(k), dim)
    while len(chunk := np.array(list(itertools.islice(combos, 20000)), dtype=np.int64).reshape(-1, dim)):
        pts = vertices[chunk]
        diffs = (pts[:, 1:, :] - pts[:, :1, :]).astype(float)
        # generalised cross product: cofactors of the (dim-1) x dim difference rows
        normal = np.empty((len(chunk), dim), dtype=np.int64)
        for j in range(dim):
            minor = np.delete(diffs, j, axis=2)
            det = np.linalg.det(minor) if dim > 1 else np.ones(len(chunk))
            normal[:, j] = np.rint((-1) ** j * det).astype(np.int64)
        offset = (normal * pts[:, 0, :]).sum(axis=1)
        values = normal @ vertices.T - offset[:, None]
        below = (values <= 0).all(axis=1)
        above = (values >= 0).all(axis=1)
        keep = np.any(normal != 0, axis=1) & (below | above)
        sign = np.where(below, 1, -1)
        for n, b in zip(normal[keep] * sign[keep, None], offset[keep] * sign[keep]):
            g = gcd(*(abs(int(x)) for x in n))
            found.add(tuple(int(x) // g for x in n) + (int(b) // g,))
    return np.array(sorted(found), dtype=np.int64).reshape(-1, dim + 1)


def check_newton(data: dict, stdout: str) -> str | None:
    payload = json.loads(stdout)
    dim = data["dim"]
    claimed = [tuple(v) for v in payload.get("vertices", [])]
    if payload.get("dim") != dim or payload.get("empty") is not False:
        return f"expected a nonempty dim-{dim} polytope"
    if len(set(claimed)) != len(claimed):
        return "repeated vertex"
    product = {tuple(p) for p in data["product"]}
    stray = [v for v in claimed if v not in product]
    if stray:
        return f"claimed vertex {list(stray[0])} is not in the product's support"
    vertices = np.array(claimed, dtype=np.int64).reshape(-1, dim)
    if len(vertices) <= dim or np.linalg.matrix_rank(vertices[1:] - vertices[0]) < dim:
        return "claimed vertices do not span a full-dimensional polytope"
    facets = _facets(vertices)
    normals, offsets = facets[:, :dim], facets[:, dim]
    f = np.array(data["f"], dtype=np.int64)
    g = np.array(data["g"], dtype=np.int64)
    sums = np.unique((f[:, None, :] + g[None, :, :]).reshape(-1, dim), axis=0)
    outside = (normals @ sums.T > offsets[:, None]).any(axis=0)
    if outside.any():
        return f"Minkowski-sum point {sums[outside][0].tolist()} lies outside the claimed hull"
    for v in vertices:
        tight = normals @ v == offsets
        direction = normals[tight].sum(axis=0)
        values = sums @ direction
        top = int(direction @ v)
        if values.max() != top or int((values == top).sum()) != 1:
            return f"claimed vertex {v.tolist()} is not a unique maximiser"
    return None


def quarter_turn(xi) -> tuple[int, ...]:
    out = []
    for i in range(0, len(xi), 2):
        out.extend((xi[i + 1], -xi[i]))
    return tuple(out)


def canonical_class(vec) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    vec = [x // g for x in vec]
    out = []
    for i in range(0, len(vec), 2):
        a, b = vec[i], vec[i + 1]
        if (a if a else b) < 0:
            a, b = -a, -b
        out.extend((a, b))
    return tuple(out)


def torus_knot_rays(p: int, q: int) -> list[tuple[int, int]]:
    """Rays of a torus knot's limit set in (m, l): the A-polynomial's Newton
    polygon has edges along (0, 1) and (pq, 1)."""
    return [(1, 0), (-1, 0), (1, -p * q), (-1, p * q)]


def check_torusknot(data: dict, stdout: str) -> str | None:
    payload = json.loads(stdout)
    p, q = data["p"], data["q"]
    if (payload.get("p"), payload.get("q"), payload.get("psl2")) != (p, q, data["psl2"]):
        return "echoed knot parameters differ from the request"
    if payload.get("slopes") != ["0", str(p * q)]:
        return f"slopes {payload.get('slopes')} differ from {{0, {p * q}}}"
    expected = sorted({canonical_class(quarter_turn(r)) for r in torus_knot_rays(p, q)})
    if [tuple(c) for c in payload.get("coordinates", [])] != expected:
        return f"coordinates differ from {[list(c) for c in expected]}"
    return None


def link_classes(knots, height: int) -> list[tuple[int, ...]]:
    """Classes of (C1 u 0) x (C2 u 0) minus 0 at max-norm <= height."""
    per_cusp = []
    for p, q in knots:
        points = {(0, 0)}
        for ray in torus_knot_rays(p, q):
            top = max(abs(x) for x in ray)
            points.update((k * ray[0], k * ray[1]) for k in range(1, height // top + 1))
        per_cusp.append(points)
    classes = set()
    for a in per_cusp[0]:
        for b in per_cusp[1]:
            xi = a + b
            if any(xi) and gcd(*(abs(x) for x in xi)) == 1:
                classes.add(canonical_class(quarter_turn(xi)))
    return sorted(classes)


def check_link(data: dict, stdout: str) -> str | None:
    payload = json.loads(stdout)
    if payload.get("h") != 2 or payload.get("slopes") != []:
        return "expected two cusps and no single-cusp slopes"
    expected = link_classes(data["knots"], data["height"])
    got = [tuple(c) for c in payload.get("coordinates", [])]
    if got != expected:
        missing = sorted(set(expected) - set(got))[:1]
        extra = sorted(set(got) - set(expected))[:1]
        return f"classes differ: missing {missing}, unexpected {extra}"
    return None


def _angle(u, v) -> float:
    return math.acos(max(-1.0, min(1.0, u[0] * v[0] + u[1] * v[1])))


def check_sample(data: dict, stdout: str) -> str | None:
    far = []
    for line in stdout.splitlines()[1:]:
        if line.startswith("#"):
            continue
        radius, d1, d2 = (float(x) for x in line.split(","))
        if radius >= SAMPLE_RADIUS:
            far.append((d1, d2))
    if not far:
        return "no sample reaches radius e^10"
    rays = [(x / math.hypot(x, y), y / math.hypot(x, y)) for x, y in data["rays"]]
    for d in far:
        gap = min(_angle(d, r) for r in rays)
        if gap > SAMPLE_TOLERANCE:
            return f"sample direction {d} is {gap:.3f} from every ray"
    for r in rays:
        gap = min(_angle(d, r) for d in far)
        if gap > SAMPLE_TOLERANCE:
            return f"no far sample near ray {r} (closest {gap:.3f})"
    return None


CHECKS = {
    "dual": check_dual,
    "newton": check_newton,
    "torusknot": check_torusknot,
    "link": check_link,
    "sample": check_sample,
}


def check(kind: str, data: dict, stdout: str) -> str | None:
    """None if stdout is a correct answer for the item, else the reason."""
    try:
        return CHECKS[kind](data, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
