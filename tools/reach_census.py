#!/usr/bin/env python
"""Reachability census: which ``src/repro`` lines no real workload reaches.

The unit tests reach almost everything, so they cannot tell a used
subsystem from one that only its own tests drive.  This census runs the
*workload* sources instead, all in this one process under the line
tracer of ``tools/coverage_gate.py``:

* the chaos matrix (``tests/chaos`` + ``tests/test_soak_chaos.py``);
* the figure tier (``pytest benchmarks --benchmark-disable`` without
  the ``bench.py`` suites and the e2e smoke test; it rewrites
  ``benchmarks/results/`` byte-identically);
* every ``examples/*.py`` walkthrough;
* ``run.py --smoke`` of the five end-to-end workloads, metrics and
  layers (``benchmarks/e2e``).

It prints the unreached lines per file and the union's totals, and gates
nothing: a file full of unreached lines is a candidate for deletion, to
be confirmed by reading it.  Run from anywhere (3.5–4 min on a 2-core
Xeon with Python 3.11: 207 s and 250 s in two runs):

    python tools/reach_census.py

The tracer and the executable-line table are ``coverage_gate``'s own,
widened from its package list to the whole of ``src/repro``.
"""

import contextlib
import glob
import io
import os
import runpy
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import coverage_gate  # noqa: E402
from coverage_gate import (  # noqa: E402
    ROOT,
    SRC,
    _call_tracer,
    _executable_lines,
    _hits,
    _ranges,
    _target_files,
)

E2E_DIR = os.path.join(ROOT, "benchmarks", "e2e")
#: How the census runs pytest.  pytest-benchmark clears ``sys.settrace``
#: for the timed call of ``benchmark.pedantic(...)``, so with timing on
#: whatever a figure reaches only from its timed body reads as unreached.
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--benchmark-disable"]
#: The chaos matrix, then the figure tier, relative to the repo root.
WORKLOAD_TESTS = [
    "tests/chaos",
    "tests/test_soak_chaos.py",
    "benchmarks",
    "--ignore=benchmarks/e2e",
    "--ignore=benchmarks/test_bench.py",
]


@contextlib.contextmanager
def tracing():
    """Record every line of ``src/repro`` run inside (into ``_hits``)."""
    saved = coverage_gate.TARGET_DIRS, sys.gettrace(), threading.gettrace()
    coverage_gate.TARGET_DIRS = (os.path.join(SRC, "repro") + os.sep,)  # all of src/repro
    threading.settrace(_call_tracer)
    sys.settrace(_call_tracer)
    try:
        yield _hits
    finally:
        coverage_gate.TARGET_DIRS, previous, previous_threads = saved
        sys.settrace(previous)
        threading.settrace(previous_threads)


def _run_pytest(tests=WORKLOAD_TESTS) -> int:
    import pytest

    return int(pytest.main([*PYTEST_ARGS, *tests]))


def _run_examples() -> None:
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(path, run_name="__main__")


def _run_e2e_smoke() -> int:
    sys.path.insert(0, E2E_DIR)
    import harness
    from workloads import WORKLOADS

    failed = 0
    for name in WORKLOADS:
        report = harness.run_workload(name, 7, True, want_e2e=True, want_layers=True)
        failed += report["failed"]
    return failed


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    with tracing():
        pytest_exit = _run_pytest()
        _run_examples()
        e2e_failed = _run_e2e_smoke()
        target_files = _target_files()  # all of src/repro while tracing

    total_exec = total_hit = 0
    rows = []
    for path in target_files:
        executable = _executable_lines(path)
        hit = _hits.get(path, set()) & executable
        total_exec += len(executable)
        total_hit += len(hit)
        rows.append((os.path.relpath(path, ROOT), len(executable), sorted(executable - hit)))
    width = max(len(r[0]) for r in rows)
    print(f"\n{'file':<{width}}  lines  unreached")
    for rel, n_exec, missed in rows:
        if missed:
            print(f"{rel:<{width}}  {n_exec:>5}  {len(missed):>5}  {_ranges(missed)}")
    print(
        f"\nreached {100.0 * total_hit / total_exec:.1f}% of src/repro "
        f"({total_hit}/{total_exec} executable lines); "
        f"pytest exit {pytest_exit}, e2e answers wrong {e2e_failed}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
