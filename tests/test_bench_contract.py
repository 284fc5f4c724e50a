"""The layer functions the benchmark tracer wraps must exist in loglimset.

``bench/spans.py`` wraps functions by name; a refactor that renames or
removes one would otherwise only show up when a traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

from loglimset.laurent import LaurentPolynomial
from loglimset.sphdual import SphericalComplex

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for mod_name, attr, _span, _note in _load_spans().FUNCTIONS:
        module = importlib.import_module(f"loglimset.{mod_name}")
        assert callable(getattr(module, attr, None)), f"loglimset.{mod_name}.{attr}"


def test_traced_methods_keep_their_kind():
    assert isinstance(SphericalComplex.__dict__["cells"], property)
    assert isinstance(LaurentPolynomial.__dict__["parse"], classmethod)
