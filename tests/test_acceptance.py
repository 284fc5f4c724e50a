"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All tolerances are pinned here; the runtime budgets are
printed for inspection rather than asserted (wall-clock assertions are
unreliable under CI load), and all are met by a wide margin on a stock
machine.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

from conftest import primitive_vectors_py, random_laurent, subprocess_env, support_max_twice
from loglimset import cli
from loglimset.knots import TorusKnotParams, detected_slopes, verify_psl2_relation
from loglimset.laurent import parse
from loglimset.loglim import (
    DEFAULT_ACCUMULATION_RADIUS,
    SampleParams,
    loglim_outer,
    min_angle_to_complex,
    sample_loglim,
    spherical_distance,
    unit_direction,
)
from loglimset.polytope import minkowski_sum, newton_polytope
from loglimset.sphdual import (
    max_cell_dimension,
    rational_points,
    ray_directions,
    spherical_dual,
    union,
)

COPRIME_PAIRS = [(p, q) for p in range(2, 8) for q in range(p + 1, 8) if gcd(p, q) == 1]


def report(number: int, description: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS - {description} [{elapsed:.2f}s, budget {budget:g}s]")


def test_criterion_1_torus_knot_slope_corpus():
    started = time.perf_counter()
    assert len(COPRIME_PAIRS) == 11
    for p, q in COPRIME_PAIRS:
        slopes = detected_slopes(TorusKnotParams(p, q))
        assert slopes == {Fraction(0), Fraction(p * q)}, (p, q, slopes)
    report(1, "torus-knot pipeline gives {0, pq} for all 11 coprime pairs", started, 2)


def test_criterion_2_psl2_relation():
    started = time.perf_counter()
    for p, q in COPRIME_PAIRS:
        assert verify_psl2_relation(TorusKnotParams(p, q)), (p, q)
    report(2, "squarefree squared-eigenvalue relation holds for all 11 pairs", started, 1)


def test_criterion_3_product_dual_is_union_of_duals():
    started = time.perf_counter()
    rng = random.Random(1003)
    for trial in range(100):
        m = rng.choice((2, 3))
        variables = ("x", "y", "z")[:m]
        f = random_laurent(rng, variables)
        g = random_laurent(rng, variables)
        product_points = rational_points(spherical_dual(f * g), 8)
        union_points = rational_points(union(spherical_dual(f), spherical_dual(g)), 8)
        assert product_points == union_points, (trial, f.render(), g.render())
    report(3, "dual of product = union of duals on all height-8 directions, 100 pairs", started, 30)


def test_criterion_4_product_polytope_is_minkowski_sum():
    started = time.perf_counter()
    rng = random.Random(1004)
    for trial in range(100):
        m = rng.choice((2, 3))
        variables = ("x", "y", "z")[:m]
        f = random_laurent(rng, variables)
        g = random_laurent(rng, variables)
        left = newton_polytope(f * g)
        right = minkowski_sum(newton_polytope(f), newton_polytope(g))
        assert left == right, (trial, f.render(), g.render())
    report(4, "product polytope equals Minkowski sum, vertex-exact, 100 pairs", started, 10)


def test_criterion_5_sampling_consistency():
    started = time.perf_counter()
    cases = [
        ("x+y+1", ("x", "y")),
        ("x*y-1", ("x", "y")),
        ("x-1", ("x", "y")),
        ("(l-1)*(l*m^6+1)", ("m", "l")),
    ]
    params = SampleParams(rho_min="1e-10000", rho_max="1e10000", grid=200, phases=8, seed=0)
    radius_floor = DEFAULT_ACCUMULATION_RADIUS  # e^10
    tolerance = 0.05
    for text, variables in cases:
        f = parse(text, variables)
        result = sample_loglim(f, params)
        complex_ = spherical_dual(f)
        far = [p for p in result.points if p.radius >= radius_floor]
        assert far, text
        worst = max(min_angle_to_complex(p.direction, complex_) for p in far)
        assert worst <= tolerance, (text, worst)
        for ray in ray_directions(complex_):
            target = unit_direction(ray)
            nearest = min(spherical_distance(p.direction, target) for p in far)
            assert nearest <= tolerance, (text, ray, nearest)
    report(5, "analytic samples at radius >= e^10 match the combinatorial set to 0.05", started, 60)


def test_criterion_6_hypersurface_dimension():
    started = time.perf_counter()
    rng = random.Random(1006)
    for m in (2, 3):
        variables = ("x", "y", "z")[:m]
        found = 0
        while found < 50:
            f = random_laurent(rng, variables)
            if newton_polytope(f).dimension() != m:
                continue
            found += 1
            assert max_cell_dimension(spherical_dual(f)) == m - 2, f.render()
    report(6, "max spherical cell dimension is m-2 for 50 full-dim cases in m=2 and m=3", started, 30)


def test_criterion_7_membership_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(1007)
    for trial in range(50):
        m = rng.choice((2, 3))
        variables = ("x", "y", "z")[:m]
        f = random_laurent(rng, variables)
        support = sorted(f.support())
        by_cells = rational_points(spherical_dual(f).materialized(), 10)
        by_oracle = tuple(
            xi for xi in primitive_vectors_py(m, 10) if support_max_twice(support, xi)
        )
        assert by_cells == by_oracle, (trial, f.render())
    report(7, "cell membership equals the direct support test up to height 10, 50 cases", started, 30)


def test_criterion_8_outer_approximation_goldens():
    started = time.perf_counter()
    x_minus_1 = parse("x-1", ("x", "y"))
    y_minus_1 = parse("y-1", ("x", "y"))
    point_variety = loglim_outer([x_minus_1, y_minus_1])
    assert json.dumps(point_variety.to_json_dict(), sort_keys=True) == (
        '{"cells": [], "dim": 2, "full_sphere": false}'
    )

    line = parse("x+y+1", ("x", "y"))
    diagonal = parse("x-y", ("x", "y"))
    overshoot = loglim_outer([line, diagonal])
    assert json.dumps(overshoot.to_json_dict(), sort_keys=True) == (
        '{"cells": [{"eq": [[1, -1]], "ineq": [[0, 1]]}], "dim": 2, "full_sphere": false}'
    )
    assert rational_points(overshoot, 8) == ((1, 1),)

    trimmed = loglim_outer([line, diagonal, parse("2*y+1", ("x", "y"))])
    assert json.dumps(trimmed.to_json_dict(), sort_keys=True) == (
        '{"cells": [], "dim": 2, "full_sphere": false}'
    )
    report(8, "outer-approximation demonstrations match golden JSON exactly", started, 1)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    started = time.perf_counter()
    triangle = tmp_path / "triangle.txt"
    triangle.write_text("x+y+1\n", encoding="utf-8")
    trefoil = tmp_path / "trefoil.txt"
    trefoil.write_text("(l-1)*(l*m^6+1)\n", encoding="utf-8")
    pair = tmp_path / "pair.txt"
    pair.write_text("x-1\ny-1\n", encoding="utf-8")
    invocations = [
        ["newton", str(triangle), "--vars", "x,y"],
        ["sphdual", str(triangle), "--vars", "x,y"],
        ["sphdual", str(triangle), "--vars", "x,y", "--format", "plotdata"],
        ["loglim", str(pair), "--vars", "x,y"],
        ["slopes", str(trefoil), "--vars", "m,l", "--height", "8"],
        ["torusknot", "2", "3"],
        ["torusknot", "3", "4", "--format", "json"],
        ["torusknot", "2", "3", "--psl2", "--format", "json"],
        ["sample", str(triangle), "--vars", "x,y", "--grid", "24", "--phases", "4", "--seed", "7"],
        ["sample", str(triangle), "--vars", "x,y", "--grid", "24", "--phases", "4", "--seed", "7",
         "--format", "plotdata"],
    ]
    for args in invocations:
        outputs = []
        for _ in range(2):
            rc = cli.main(args)
            captured = capsys.readouterr()
            assert rc == 0 and captured.err == ""
            outputs.append(captured.out.encode("utf-8"))
        assert outputs[0] == outputs[1], args

    # one double-run through a real process boundary as well
    command = [sys.executable, "-m", "loglimset", "sample", str(triangle), "--vars", "x,y",
               "--grid", "10", "--phases", "3", "--seed", "5"]
    env = subprocess_env()
    first = subprocess.run(command, capture_output=True, env=env)
    second = subprocess.run(command, capture_output=True, env=env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    report(9, "every CLI golden invocation is byte-identical across runs", started, 10)
