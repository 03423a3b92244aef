"""Fixtures shared by the test modules."""

import importlib.util
import tracemalloc
import warnings

import numpy
import pytest

# hypothesis imports this module when a test fails, to print the failing
# example as a patch; under the suite's error::DeprecationWarning filter the
# warning one of its imports raises would abort the session there, hiding
# every test after the failing one. Imported here once, with that warning
# ignored for this import only.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def pytest_report_header(config):
    """The ``menet`` package the run imports, so a run shows which tree it
    tested whatever ``PYTHONPATH`` says, and the numpy build: the
    bit-identity tests hold einsum to the rounding of the build they were
    written on, which its compile-time SIMD baseline (FMA or not) sets."""
    spec = importlib.util.find_spec("menet")
    where = spec.submodule_search_locations[0] if spec else "not found"
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__ as baseline
    except ImportError:   # numpy < 2 names the module numpy.core
        baseline = "unknown"
    return [f"menet under test: {where}",
            f"numpy {numpy.__version__}, SIMD baseline {baseline}"]


def _traced(fn):
    """Run ``fn()`` under tracemalloc; returns (result, bytes still held
    once it returned, peak bytes above the start), both counted from the
    memory traced when it was called."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = (v - start for v in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, held, peak


@pytest.fixture
def traced():
    """``traced(fn) -> (result, held, peak)``: memory that ``fn()`` keeps
    and the most it used, in bytes."""
    return _traced
