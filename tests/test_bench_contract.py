"""The layer functions the benchmark tracer wraps must exist in loglimset.

``bench/spans.py`` wraps functions by name; a refactor that renames or
removes one would otherwise only show up when a traced benchmark runs.
"""

import importlib

from conftest import load_bench_module
from loglimset.laurent import LaurentPolynomial
from loglimset.sphdual import SphericalComplex


def test_traced_functions_exist():
    for mod_name, attr, _span, _note in load_bench_module("spans").FUNCTIONS:
        module = importlib.import_module(f"loglimset.{mod_name}")
        assert callable(getattr(module, attr, None)), f"loglimset.{mod_name}.{attr}"


def test_traced_methods_keep_their_kind():
    assert isinstance(SphericalComplex.__dict__["cells"], property)
    assert isinstance(LaurentPolynomial.__dict__["parse"], classmethod)
