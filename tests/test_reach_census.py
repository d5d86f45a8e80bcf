"""The reach census sees what a figure reaches only from its timed body.

pytest-benchmark clears ``sys.settrace`` for the timed call of
``benchmark.pedantic(...)``, so ``tools/reach_census.py`` must run the
figure tier with timing off.  This runs the census's own pytest step,
under its own tracer, over one small test file instead of the workload
tiers (the census itself takes minutes).
"""

import os
import sys
import textwrap

from repro.planner.cnf import admits

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))

import reach_census  # noqa: E402


def test_census_reaches_a_body_only_a_timed_call_runs(tmp_path):
    probe = tmp_path / "test_census_timed_body.py"
    probe.write_text(
        textwrap.dedent(
            """
            from repro.planner.cnf import admits


            def test_timed_body(benchmark):
                assert benchmark.pedantic(admits, args=((None, False, 5, False), 3), rounds=3)
            """
        )
    )
    code = admits.__code__
    body = max(line for _, _, line in code.co_lines() if line is not None)
    with reach_census.tracing() as hits:
        hits.pop(code.co_filename, None)
        exit_code = reach_census._run_pytest([str(probe)])
    assert exit_code == 0
    assert body in hits.get(code.co_filename, set())
