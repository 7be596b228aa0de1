"""The benchmark tracer wraps quasifold functions by name; every name it
looks up must still exist, or a traced benchmark run crashes."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import quasifold
import quasifold.cli  # noqa: F401  (the tracer patches cli's imports too)
from quasifold.linalg import Matrix

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_spans_resolve(tracing):
    for module, name, _ in tracing._FUNCTION_SPANS:
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


def test_matrix_methods_resolve(tracing):
    for method in tracing._MATRIX_METHODS:
        assert callable(getattr(Matrix, method, None)), method


def test_tracer_installs_and_uninstalls(tracing):
    # install also looks up names outside the two tuples
    # (induced_moment, smith_invariant_factors, Scalar and Field methods)
    parse = quasifold.cli.parse_polytope
    tracer = tracing.Tracer(tracing.quasifold_modules())
    try:
        tracer.install()
        assert quasifold.cli.parse_polytope is not parse
    finally:
        tracer.uninstall()
    assert quasifold.cli.parse_polytope is parse


def test_end_op_counts_bisections(tracing):
    # end_op reads each traced field's isolator, root_interval and degree.
    # The interval [7/5, sqrt 2] needs a refined isolator to certify the
    # sign of its length.
    document = {
        "field": {"minpoly": ["-2", "0", "1"], "root_interval": ["1", "2"]},
        "dimension": 1,
        "facets": [{"normal": ["1"], "offset": "7/5"},
                   {"normal": ["-1"], "offset": "-theta"}],
    }
    tracer = tracing.Tracer(tracing.quasifold_modules())
    try:
        tracer.install()
        quasifold.parse_polytope(document)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert tracer.counts["scalars.bisections"] > 0
