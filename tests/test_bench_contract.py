"""The layer functions the benchmark tracer wraps must exist in loglimset,
and a traced pass of every workload must give the benchmark what it checks.

``bench/spans.py`` wraps functions by name; a refactor that renames or
removes one would otherwise only show up when a traced benchmark runs.
``bench/run.py --trace 1`` also exits 1 when a pass process fails, when a
layer that ``spans.METRICS`` names for the workload reads 0, or when layer
self times sum past the pass time; one traced pass per workload checks the
same here.  (The run's coverage check is left out: it is a timing, noisy on
one pass.)
"""

import importlib
import sys
from pathlib import Path

import pytest

from conftest import load_bench_module
from loglimset.laurent import LaurentPolynomial
from loglimset.sphdual import SphericalComplex

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_functions_exist():
    for mod_name, attr, _span, _note in load_bench_module("spans").FUNCTIONS:
        module = importlib.import_module(f"loglimset.{mod_name}")
        assert callable(getattr(module, attr, None)), f"loglimset.{mod_name}.{attr}"


def test_traced_methods_keep_their_kind():
    assert isinstance(SphericalComplex.__dict__["cells"], property)
    assert isinstance(LaurentPolynomial.__dict__["parse"], classmethod)


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` imported the way it runs, with ``bench/`` on the path."""
    sys.path.insert(0, str(BENCH))
    try:
        import run

        yield run
    finally:
        sys.path.remove(str(BENCH))
        for name in ("run", "spans", "workloads", "oracles"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["dual-random", "newton-products", "boundary-slopes", "sample-curves"])
def test_traced_pass_meets_the_run_checks(bench_run, workload, tmp_path):
    spans = bench_run.spans
    session = bench_run.Session(workload, 1, tmp_path)
    result = session.spawn(trace=True)
    assert session.failures == []
    metrics = spans.layer_metrics(result["spans"], result["analyze_hits"], result["analyze_misses"])
    silent = [name for name, (_, _, on) in spans.METRICS.items() if workload in on and not metrics[name]]
    assert silent == []
    assert sum(spans.self_times(result["spans"])) <= result["solve_s"] + 1e-6
