"""Run benchmark suites and gate them on their committed ``BENCH_<suite>.json``.

Usage (from the repo root)::

    python benchmarks/bench.py                      # every suite
    python benchmarks/bench.py kernels gateway      # the named suites
    python benchmarks/bench.py gateway --update     # re-baseline a suite

A suite is a module with ``run_suite()``, ``acceptance_failures(results)``
and ``regressions(results, baseline)``.  A run fails (exit 1) when a
suite's acceptance bar does not hold or, without ``--update``, when it
regressed against its baseline.  ``--update`` rewrites a suite's baseline
only when its acceptance bar holds.  An unknown suite name exits 2.

The kernel suite times in reference seconds (``_harness.best_ref_s``);
the other two report simulated seconds and counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
if __package__ in (None, ""):  # run as a script: make `benchmarks` and `repro` importable
    ROOT = os.path.dirname(HERE)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e.ticks import NOMINAL_TICK_S, Meter  # noqa: E402

SCHEMA_VERSION = 2
#: Suite name -> module under ``benchmarks/``.
SUITES: Dict[str, str] = {
    "kernels": "kernels",
    "gateway": "gateway_bench",
    "elastic": "elastic_bench",
}
BASELINE_DIR = HERE

Results = Dict[str, Dict[str, float]]


def baseline_path(suite: str) -> str:
    return os.path.join(BASELINE_DIR, f"BENCH_{suite}.json")


def machine_info() -> Dict[str, object]:
    """What the figures were taken on, under the e2e harness's key names."""
    meter = Meter(50)
    meter.timed(lambda: None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine_speed_index": meter.tick_wall_s / NOMINAL_TICK_S,
    }


def check(suite: str, update: bool = False) -> Tuple[Results, List[str]]:
    """Run ``suite``; returns its results and every problem found.

    Without ``update`` the results are compared with the committed
    baseline.  With it, the baseline is rewritten, but only if the
    acceptance bar holds: a failing run never becomes the baseline.
    """
    module = importlib.import_module(f"benchmarks.{SUITES[suite]}")
    results = module.run_suite()
    problems = module.acceptance_failures(results)
    path = baseline_path(suite)
    if not update:
        with open(path) as fh:
            problems += module.regressions(results, json.load(fh)["runs"])
    elif not problems:
        doc = {"schema_version": SCHEMA_VERSION, "info": machine_info(), "runs": results}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return results, problems


def format_results(suite: str, results: Results) -> str:
    lines = [f"== {suite} =="]
    for run, metrics in results.items():
        lines.append(f"{run}:")
        lines.extend(f"  {key:<32} {value:.6g}" for key, value in sorted(metrics.items()))
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=f"suites: {', '.join(SUITES)}",
    )
    parser.add_argument("suites", nargs="*", metavar="suite",
                        help="suites to run (default: all)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite each suite's baseline if its acceptance bar holds")
    args = parser.parse_args(argv)
    unknown = [name for name in args.suites if name not in SUITES]
    if unknown:
        parser.error(f"unknown suite {', '.join(unknown)}; valid: {', '.join(SUITES)}")

    failed = []
    for suite in args.suites or list(SUITES):
        results, problems = check(suite, args.update)
        print(format_results(suite, results))
        if problems:
            failed.append(suite)
            print("FAIL:" + "".join(f"\n  - {p}" for p in problems))
        elif args.update:
            print(f"baseline written to {baseline_path(suite)}")
        print()
    if failed:
        print(f"FAIL: {', '.join(failed)}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
