"""Self-tests of the benchmark: span arithmetic, oracles, grading, wrappers.

Usage (from the repository root): ``python3 bench/selftest.py``

* Self times and derived metrics are checked on a synthetic span tree.
* Each oracle accepts a real ``loglimset`` output for one generated item and
  flags a deliberately corrupted copy of it: a dropped cell, a missing
  vertex, a wrong slope, a perturbed sample direction.
* Grading counts a nonzero exit, stderr output and a wrong answer as
  failures, so the failure ratio can be nonzero.
* A traced run fails when a layer the metric table names reads 0, when
  self times add up to more than the pass, or when the ``cli.main`` spans
  leave part of the pass uncovered.
* ``spans.METRICS`` and the per-layer metrics of ``BENCHMARK.json`` name
  the same metrics.
* The tracer reaches every layer-boundary function through the namespaces
  the CLI calls it from.
* The host-speed probe samples while a process works, its time can be
  taken out of a timed interval, and a pass process reports it.

Prints one PASS line per check and exits nonzero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import oracles
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

import loglimset.cli  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def passed(message: str) -> None:
    print(f"PASS {message}")


def test_self_times() -> None:
    tree = [
        ["root", 0.0, 10.0, -1, 0, {}],
        ["a", 1.0, 4.0, 0, 0, {}],
        ["b", 5.0, 6.0, 0, 0, {}],
        ["a1", 1.5, 2.0, 1, 0, {}],
        ["a2", 2.5, 3.5, 1, 0, {}],
        ["lone", 11.0, 12.0, -1, 0, {}],
    ]
    expect(spans.self_times(tree) == [6.0, 1.5, 1.0, 0.5, 1.0, 1.0], "self times of a nested tree")
    expect(sum(spans.self_times(tree)) == 11.0, "self times sum to the time the roots cover")
    overlapping = [["r", 0.0, 4.0, -1, 0, {}], ["c", 1.0, 3.0, 0, 0, {}], ["d", 2.0, 3.5, 0, 0, {}]]
    expect(spans.self_times(overlapping)[0] == 1.5, "overlapping children are counted once")
    passed("self time = duration minus the union of child intervals")


def test_layer_metrics() -> None:
    tree = [
        ["cli.main", 0.0, 8.0, -1, 0, {}],
        ["polytope.newton", 1.0, 3.0, 0, 0, {}],
        ["exactgeom.lp", 1.0, 1.5, 1, 0, {"infeasible": True}],
        ["exactgeom.lp", 2.0, 2.5, 1, 0, {"infeasible": False}],
        ["sphdual.cells", 4.0, 7.0, 0, 0, {"n": 2}],
        ["sphdual.pair_cone", 4.0, 4.5, 4, 0, {}],
        ["sphdual.pair_cone", 4.5, 5.0, 4, 0, {}],
        ["sphdual.pair_cone", 5.0, 5.5, 4, 0, {}],
        ["sphdual.pair_cone", 5.5, 6.0, 4, 0, {}],
        ["exactgeom.cone_dimension", 6.0, 6.5, 4, 0, {}],
        ["exactgeom.lp", 6.0, 6.25, 9, 0, {"infeasible": True}],
        ["sphdual.cells", 7.0, 7.5, 0, 0, {"n": 2}],
    ]
    m = spans.layer_metrics(tree, analyze_hits=3, analyze_misses=1)
    expect(m["polytope.hull_lps"] == 2 and m["polytope.lp_vertex_ratio"] == 0.5, "hull LP counts")
    expect(m["exactgeom.lp_calls"] == 3 and m["exactgeom.lp_s"] == 1.25, "LP totals")
    expect(m["exactgeom.lps_per_analysis"] == 1.0, "LPs per cone analysis")
    expect(m["exactgeom.analyze_hit_ratio"] == 0.75, "analysis cache hit ratio")
    expect(m["sphdual.pair_cones"] == 4 and m["sphdual.cells_kept_ratio"] == 0.5, "kept cells")
    expect(m["polytope.newton_s"] == 2.0, "inclusive Newton time")
    expect(m["cli.self_s"] == 8.0 - 2.0 - 3.0 - 0.5, "CLI self time")
    passed("per-layer metrics derived from a synthetic span tree")


def test_trace_checks() -> None:
    plain = [{"solve_s": 1.0}]
    lone = {"solve_s": 1.0, "analyze_hits": 0, "analyze_misses": 0}
    cases = (
        (1.0, "exactgeom.lp_calls", "a traced pass with no LP spans on dual-random"),
        (1.5, "self times", "self times longer than the pass"),
        (0.5, "cover", "a pass half outside every cli.main span"),
    )
    for end, error, what in cases:
        try:
            run.per_layer_metrics("dual-random", plain, [{**lone, "spans": [["cli.main", 0.0, end, -1, 0, {}]]}])
        except run.BenchError as exc:
            expect(error in str(exc), f"unexpected error {exc}")
        else:
            expect(False, f"{what} was accepted")
    passed("a traced run fails when a layer reads 0, self times exceed the pass or spans miss part of it")
    expect(set(run.per_layer_units()) == set(spans.METRICS), "metric tables differ")
    passed("BENCHMARK.json and spans.METRICS name the same per-layer metrics")


def test_hostspeed(workdir: Path) -> None:
    hostspeed.start()
    started = time.perf_counter()
    while time.perf_counter() - started < 0.5:
        sum(range(1000))
    taken = len(hostspeed.samples)
    probe_s = hostspeed.median_sample()
    expect(5 <= taken <= 11, f"{taken} samples in 0.5 s at one per {hostspeed.EVERY_S} s")
    expect(0 < hostspeed.spent() < 0.5 and probe_s > 0, "sample times")
    expect(run.at_reference(2.0, 2 * run.PROBE_REFERENCE_S) == 1.0, "scaling to the reference")
    result = run.Session("sample-curves", 1, workdir).spawn(solve=False)
    expect(0 < result["setup_s"] and result["probe_s"] > 0, f"set-up process result {result}")
    passed("the host-speed probe samples while a process works and a pass process reports it")


def cli_output(argv: list[str], workdir: Path) -> str:
    out = io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(out):
        code = loglimset.cli.main(argv)
    expect(code == 0, f"loglimset {' '.join(argv)} exited with {code}")
    return out.getvalue()


def first(items, kind, predicate=lambda item: True):
    return next(item for item in items if item.kind == kind and predicate(item))


def accepted_and_flagged(item, good: str, bad: str, what: str) -> None:
    verdict = oracles.check(item.kind, item.data, good)
    expect(verdict is None, f"{item.kind} oracle rejects the real output: {verdict}")
    verdict = oracles.check(item.kind, item.data, bad)
    expect(verdict is not None, f"{item.kind} oracle misses {what}")
    passed(f"{item.kind} oracle accepts the real output and flags {what} ({verdict})")


def test_oracles(workdir: Path) -> None:
    items = workloads.build("dual-random", 1, workdir)
    item = first(items, "dual", lambda it: it.data["dim"] == 3)
    good = cli_output(item.argv, workdir)
    payload = json.loads(good)
    flagged = 0
    for i in range(len(payload["cells"])):
        cells = payload["cells"][:i] + payload["cells"][i + 1 :]
        flagged += oracles.check("dual", item.data, json.dumps({**payload, "cells": cells})) is not None
    expect(flagged == len(payload["cells"]), f"only {flagged} of {len(payload['cells'])} dropped cells flagged")
    accepted_and_flagged(item, good, json.dumps({**payload, "cells": payload["cells"][1:]}), "a dropped cell")

    items = workloads.build("newton-products", 1, workdir)
    item = first(items, "newton")
    good = cli_output(item.argv, workdir)
    payload = json.loads(good)
    for i in range(len(payload["vertices"])):
        vertices = payload["vertices"][:i] + payload["vertices"][i + 1 :]
        bad = json.dumps({**payload, "vertices": vertices})
        expect(oracles.check("newton", item.data, bad) is not None, f"missing vertex {i} not flagged")
    accepted_and_flagged(item, good, json.dumps({**payload, "vertices": payload["vertices"][1:]}), "a missing vertex")
    interior = next(list(p) for p in item.data["product"] if list(p) not in payload["vertices"])
    bad = json.dumps({**payload, "vertices": sorted(payload["vertices"] + [interior])})
    accepted_and_flagged(item, good, bad, "a non-vertex claimed as vertex")

    items = workloads.build("boundary-slopes", 1, workdir)
    item = first(items, "torusknot", lambda it: it.data["psl2"])
    good = cli_output(item.argv, workdir)
    payload = json.loads(good)
    wrong = str(item.data["p"] * item.data["q"] + 1)
    accepted_and_flagged(item, good, json.dumps({**payload, "slopes": ["0", wrong]}), "a wrong slope")
    item = first(items, "link")
    good = cli_output(item.argv, workdir)
    payload = json.loads(good)
    coords = [list(c) for c in payload["coordinates"]]
    coords[-1][-1] += 1
    accepted_and_flagged(item, good, json.dumps({**payload, "coordinates": coords}), "a wrong boundary class")

    items = workloads.build("sample-curves", 1, workdir)
    item = first(items, "sample", lambda it: "curve1.txt" in it.argv)  # the binomial: the cheapest curve
    good = cli_output(item.argv, workdir)
    lines = good.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        radius, d1, d2 = (float(x) for x in line.split(","))
        if radius >= oracles.SAMPLE_RADIUS:
            turn = 0.2
            d1, d2 = d1 * math.cos(turn) - d2 * math.sin(turn), d1 * math.sin(turn) + d2 * math.cos(turn)
            lines[i] = ",".join(repr(x) for x in (radius, d1, d2))
            break
    accepted_and_flagged(item, good, "\n".join(lines) + "\n", "a perturbed direction")


def test_grading(workdir: Path) -> None:
    session = run.Session("boundary-slopes", 1, workdir)
    items = session.items
    good = [[0, cli_output(item.argv, workdir), ""] for item in items]
    session.grade(good)
    expect(session.attempted == len(items) and not session.failures, "a correct pass has no failures")
    knots = [i for i, item in enumerate(items) if item.kind == "torusknot"]
    broken = [list(o) for o in good]
    broken[knots[0]][0] = 1
    broken[knots[1]][2] = "warning\n"
    broken[knots[2]][1] = broken[knots[2]][1].replace('"slopes": ["0"', '"slopes": ["1"')
    session.grade(broken)
    expect(len(session.failures) == 3, f"failures {session.failures}")
    fresh = run.Session("boundary-slopes", 1, workdir)
    fresh.grade(broken)
    expect(len(fresh.failures) == 3 and "slopes" in fresh.failures[2], "the oracle flags a wrong answer")
    passed("grading counts a nonzero exit, stderr output and a wrong answer as failures")


def test_wrappers(workdir: Path) -> None:
    from loglimset import cli, exactgeom, loglim, slopes, sphdual

    exactgeom._analyze.cache_clear()  # earlier tests warmed it
    tracer = spans.Tracer(pass_id=7)
    spans.install(tracer)

    expect(hasattr(cli.newton_polytope, "__wrapped__"), "cli's newton_polytope is wrapped")
    expect(hasattr(sphdual.cone_contains, "__wrapped__"), "sphdual's cone_contains is wrapped")
    expect(hasattr(slopes.rational_points, "__wrapped__"), "slopes' rational_points is wrapped")
    expect(hasattr(loglim.loglim_outer, "__wrapped__"), "loglim_outer is wrapped in its own module")
    items = workloads.build("boundary-slopes", 1, workdir)
    for item in (first(items, "torusknot"), first(items, "link")):
        cli_output(item.argv, workdir)
    seen = {s[0] for s in tracer.spans}
    wanted = {"cli.main", "knots.corpus", "laurent.parse", "sphdual.pair_cone", "sphdual.cells",
              "sphdual.reduce", "exactgeom.lp", "exactgeom.cone_contains", "sphdual.rational_points",
              "slopes.detect", "loglim.outer"}
    expect(wanted <= seen, f"spans missing: {sorted(wanted - seen)}")
    expect(all(s[4] == 7 for s in tracer.spans), "every span carries the pass id")
    roots = [s for s in tracer.spans if s[3] < 0]
    expect(all(s[0] == "cli.main" for s in roots), "every span nests under a CLI call")
    covered = sum(s[2] - s[1] for s in roots)
    expect(abs(sum(spans.self_times(tracer.spans)) - covered) < 1e-9, "self times partition the calls")
    passed("wrappers are rebound wherever the CLI calls them and spans nest under cli.main")


def main() -> None:
    test_self_times()
    test_layer_metrics()
    test_trace_checks()
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        test_oracles(workdir)
        test_grading(workdir)
        test_wrappers(workdir)
        test_hostspeed(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
