"""The ``bench.py`` suites under pytest: each must hold its acceptance bar
and not regress against its committed ``BENCH_<suite>.json``."""

import pytest

from benchmarks import bench


@pytest.mark.parametrize("suite", list(bench.SUITES))
def test_suite(suite):
    _results, problems = bench.check(suite)
    assert problems == []
