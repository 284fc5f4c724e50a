"""Seeded input generation for the benchmark workloads.

``build(name, seed, workdir)`` writes the input files of one workload into
``workdir`` and returns its CLI invocations, which every pass of a run
repeats.  Each :class:`Item` carries the ``loglimset`` argv (file names
relative to ``workdir``) and the data its oracle needs; nothing here imports
``loglimset``, so the program under test only ever sees the generated files.

Everything that sets the cost of a pass is drawn from the workload name
alone: supports, factor shapes, the knots of each link, the curve of the
binomial.  The seed draws only what the cost hardly depends on: the
coefficients (the spherical dual depends on the support alone), the
sampler's phase seed and the order of the invocations.  So every seed times
the same work, and the spread between seeds is the machine's, not the draw's
(the cost of one random polynomial varies by 15-30 % from draw to draw).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

import numpy as np

VARIABLES = ("x", "y", "z", "w")

# (variables, terms) of each sphdual input of a pass, exponents in -6..6
DUAL_SHAPES = ((2, 20), (2, 14), (3, 10), (3, 10), (4, 10))
DUAL_EXPONENTS = 6

# (variables, terms of f, terms of g) of each newton product of a pass,
# exponents in -4..4: 25 to 42 support points.  Bigger products cost
# seconds each and would dominate the pass-to-pass spread.
NEWTON_SHAPES = ((3, 5, 5), (3, 6, 6), (3, 8, 5), (3, 7, 6), (4, 5, 5), (4, 6, 6), (4, 8, 5))
NEWTON_EXPONENTS = 4

TORUS_KNOTS = tuple((p, q) for p in range(2, 8) for q in range(p + 1, 8) if gcd(p, q) == 1)
LINKS = 7
LINK_HEIGHT = 12

SAMPLE_ARGS = ("--rho-min", "1e-10000", "--rho-max", "1e10000", "--grid", "200", "--phases", "8")


@dataclass
class Item:
    """One CLI invocation and what its oracle needs to check the output."""

    argv: list[str]
    kind: str
    data: dict


def _coefficient(rng: random.Random) -> int:
    value = 0
    while value == 0:
        value = rng.randint(-9, 9)
    return value


def random_support(rng: random.Random, m: int, n: int, bound: int) -> list[tuple[int, ...]]:
    """Exactly n distinct exponent vectors in [-bound, bound]^m, in drawing order."""
    support: dict[tuple[int, ...], None] = {}
    while len(support) < n:
        support[tuple(rng.randint(-bound, bound) for _ in range(m))] = None
    return list(support)


def with_coefficients(rng: random.Random, support) -> dict[tuple[int, ...], int]:
    """A nonzero coefficient for every exponent vector of support."""
    return {exps: _coefficient(rng) for exps in support}


def render(terms: dict[tuple[int, ...], int], variables) -> str:
    """Polynomial text in the CLI grammar, terms in sorted exponent order."""
    pieces = []
    for exps in sorted(terms):
        coeff = terms[exps]
        factors = [str(abs(coeff))] + [
            v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e != 0
        ]
        body = "*".join(factors)
        sign = "-" if coeff < 0 else "+"
        pieces.append(f"{sign} {body}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text


def product_support(f: dict, g: dict) -> list[tuple[int, ...]]:
    """Exponents with a nonzero coefficient in the expanded product f*g."""
    coeffs: dict[tuple[int, ...], int] = {}
    for a, ca in f.items():
        for b, cb in g.items():
            s = tuple(x + y for x, y in zip(a, b))
            coeffs[s] = coeffs.get(s, 0) + ca * cb
    return sorted(s for s, c in coeffs.items() if c)


def _write(workdir: Path, name: str, lines: list[str]) -> str:
    (workdir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return name


def _dual_random(shape: random.Random, seeded: random.Random, workdir: Path) -> list[Item]:
    items = []
    for i, (m, n) in enumerate(DUAL_SHAPES):
        variables = VARIABLES[:m]
        support = random_support(shape, m, n, DUAL_EXPONENTS)
        terms = with_coefficients(seeded, support)
        path = _write(workdir, f"dual{i}.txt", [render(terms, variables)])
        items.append(
            Item(
                ["sphdual", path, "--vars", ",".join(variables)],
                "dual",
                {"dim": m, "support": sorted(support)},
            )
        )
    return items


def _newton_products(shape: random.Random, seeded: random.Random, workdir: Path) -> list[Item]:
    items = []
    for i, (m, nf, ng) in enumerate(NEWTON_SHAPES):
        variables = VARIABLES[:m]
        while True:
            f_support = random_support(shape, m, nf, NEWTON_EXPONENTS)
            g_support = random_support(shape, m, ng, NEWTON_EXPONENTS)
            # the oracle certifies vertices through facets, so the polytope
            # must be full-dimensional; vertices never cancel, so the plain
            # Minkowski sum has the affine hull of the product's support
            sums = np.array([np.add(a, b) for a in f_support for b in g_support])
            if np.linalg.matrix_rank(sums[1:] - sums[0]) == m:
                break
        f = with_coefficients(seeded, f_support)
        g = with_coefficients(seeded, g_support)
        line = f"({render(f, variables)})*({render(g, variables)})"
        path = _write(workdir, f"newton{i}.txt", [line])
        items.append(
            Item(
                ["newton", path, "--vars", ",".join(variables)],
                "newton",
                {"dim": m, "f": sorted(f), "g": sorted(g), "product": product_support(f, g)},
            )
        )
    return items


def a_polynomial_text(p: int, q: int, m: str, l: str) -> str:
    """Factored torus-knot A-polynomial (l-1)(l m^pq + 1)[(l m^pq - 1)]."""
    pq = p * q
    text = f"({l}-1)*({l}*{m}^{pq}+1)"
    if p != 2 and q != 2:
        text += f"*({l}*{m}^{pq}-1)"
    return text


def _boundary_slopes(shape: random.Random, seeded: random.Random, workdir: Path) -> list[Item]:
    items = []
    for p, q in TORUS_KNOTS:
        for psl2 in (False, True):
            argv = ["torusknot", str(p), str(q), "--format", "json"] + (["--psl2"] if psl2 else [])
            items.append(Item(argv, "torusknot", {"p": p, "q": q, "psl2": psl2}))
    for i in range(LINKS):
        k1 = shape.choice(TORUS_KNOTS)
        k2 = shape.choice(TORUS_KNOTS)
        path = _write(
            workdir,
            f"link{i}.txt",
            [a_polynomial_text(*k1, "m1", "l1"), a_polynomial_text(*k2, "m2", "l2")],
        )
        items.append(
            Item(
                ["slopes", path, "--vars", "m1,l1,m2,l2", "--height", str(LINK_HEIGHT)],
                "link",
                {"knots": [list(k1), list(k2)], "height": LINK_HEIGHT},
            )
        )
    return items


def _sample_curves(shape: random.Random, seeded: random.Random, workdir: Path) -> list[Item]:
    """A line, a one-variable binomial and the trefoil A-polynomial.

    The rays of each curve's limit set are known in closed form.  The
    binomial depends on one variable only, so one of the two sampling sweeps
    meets a constant polynomial at every grid point: that is the sampler's
    skip path, which the other two curves never take.
    """
    axis = shape.randrange(2)
    line = render(with_coefficients(seeded, [(1, 0), (0, 1), (0, 0)]), ("x", "y"))
    exps = (3, 0) if axis == 0 else (0, 3)
    binomial = render(with_coefficients(seeded, [exps, (0, 0)]), ("x", "y"))
    unit = [0, 0]
    unit[1 - axis] = 1
    curves = [
        (line, "x,y", [[1, 1], [-1, 0], [0, -1]]),
        (binomial, "x,y", [unit, [-x for x in unit]]),
        (a_polynomial_text(2, 3, "m", "l"), "m,l", [[1, 0], [-1, 0], [1, -6], [-1, 6]]),
    ]
    items = []
    for i, (text, variables, rays) in enumerate(curves):
        path = _write(workdir, f"curve{i}.txt", [text])
        argv = ["sample", path, "--vars", variables, *SAMPLE_ARGS, "--seed", str(seeded.randrange(1000))]
        items.append(Item(argv, "sample", {"rays": rays}))
    return items


_BUILDERS = {
    "dual-random": _dual_random,
    "newton-products": _newton_products,
    "boundary-slopes": _boundary_slopes,
    "sample-curves": _sample_curves,
}
WORKLOADS = tuple(_BUILDERS)


def build(name: str, seed: int, workdir: Path) -> list[Item]:
    """Write the inputs of one workload for one seed; return its invocations.

    File names are relative to ``workdir``.  The shapes come from the
    workload name; the seed picks coefficients, sampler phases and the order
    of the invocations.
    """
    shape = random.Random(name)
    seeded = random.Random(f"{name}/{seed}")
    items = _BUILDERS[name](shape, seeded, Path(workdir))
    seeded.shuffle(items)
    return items
