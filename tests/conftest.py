"""Fixtures shared by the test modules."""

import importlib.util
import tracemalloc

import pytest


def pytest_report_header(config):
    """The ``menet`` package the run imports, so a run shows which tree it
    tested whatever ``PYTHONPATH`` says."""
    spec = importlib.util.find_spec("menet")
    where = spec.submodule_search_locations[0] if spec else "not found"
    return f"menet under test: {where}"


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
