#!/usr/bin/env python
"""Dependency-free line-coverage gate for the client, cluster, columnar, engine, fault, gateway, index, planner, simulator, storage and workload layers.

The container has no ``coverage``/``pytest-cov``, so this implements the
minimum honestly: a ``sys.settrace`` hook records executed lines in the
``repro`` sub-packages named in ``TARGET_PACKAGES`` while the focused
test suites run in-process, the denominator comes from each module's
compiled ``co_lines()`` tables, and the gate fails if combined coverage
drops below the floor.

Run from the repo root (the verify flow does):

    python tools/coverage_gate.py            # enforce the 80% floor
    python tools/coverage_gate.py --report   # per-file detail, no gate

The tracer must be installed *before* the target packages are imported so
module-level statements (imports, class/def lines, dataclass fields)
count as executed — this script therefore always runs as its own process.
"""

import argparse
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: ``repro`` sub-packages under the gate.
TARGET_PACKAGES = (
    "client",
    "cluster",
    "columnar",
    "engine",
    "faults",
    "gateway",
    "index",
    "planner",
    "sim",
    "sql",
    "storage",
    "workload",
)
TARGET_DIRS = tuple(os.path.join(SRC, "repro", pkg) + os.sep for pkg in TARGET_PACKAGES)

#: Test files that exercise the gated packages.
TEST_ARGS = [
    "tests/chaos",
    "tests/test_bounded_state.py",
    "tests/test_client.py",
    "tests/test_client_serving_fixes.py",
    "tests/test_cluster_domains.py",
    "tests/test_cluster_features.py",
    "tests/test_cluster_jobs_unit.py",
    "tests/test_cluster_master.py",
    "tests/test_cluster_membership.py",
    "tests/test_cluster_node.py",
    "tests/test_cluster_scheduler.py",
    "tests/test_place_wave.py",
    "tests/test_cluster_state_fixes.py",
    "tests/test_elastic.py",
    "tests/test_membership.py",
    "tests/test_columnar_block.py",
    "tests/test_columnar_encoding.py",
    "tests/test_columnar_json.py",
    "tests/test_columnar_reader_property.py",
    "tests/test_columnar_schema.py",
    "tests/test_engine_aggregates.py",
    "tests/test_engine_executor.py",
    "tests/test_engine_operators.py",
    "tests/test_engine_serialize.py",
    "tests/test_gateway.py",
    "tests/test_gateway_differential.py",
    "tests/test_integration_differential.py",
    "tests/test_index_bitmap.py",
    "tests/test_index_btree.py",
    "tests/test_index_smartindex.py",
    "tests/test_sim_events.py",
    "tests/test_sim_golden.py",
    "tests/test_sim_netmodel.py",
    "tests/test_sim_resources.py",
    "tests/test_sql_analyzer.py",
    "tests/test_sql_fuzz.py",
    "tests/test_sql_lexer.py",
    "tests/test_sql_parser.py",
    "tests/test_statement_cache.py",
    "tests/test_soak_chaos.py",
    "tests/test_ssd_cache.py",
    "tests/test_ssd_cache_property.py",
    "tests/test_storage_router.py",
    "tests/test_storage_systems.py",
    "tests/test_new_features.py",
    "tests/test_block_digests.py",
    "tests/test_block_incarnation.py",
    "tests/test_write_path.py",
    "tests/test_loggen.py",
    "tests/test_conversion_daemon.py",
    "tests/test_workload.py",
    "tests/test_workload_replay.py",
    "tests/test_workload_traces.py",
    "tests/test_mutation_census.py",
]

FLOOR = 0.80

_hits = {}


def _line_tracer(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line_tracer


def _call_tracer(frame, event, arg):
    if event == "call":
        filename = frame.f_code.co_filename
        if filename.startswith(TARGET_DIRS):
            _hits.setdefault(filename, set()).add(frame.f_lineno)
            return _line_tracer
    return None


def _executable_lines(path):
    """Line numbers the compiler marks executable, from every code object
    reachable in the module, minus explicit ``pragma: no cover`` lines."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        for _, _, lineno in code.co_lines():
            if lineno is not None:
                lines.add(lineno)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for i, text in enumerate(source.splitlines(), start=1):
        if "pragma: no cover" in text:
            lines.discard(i)
    # The module code object charges its docstring/firstline; a line that
    # is only a string literal or comment is not meaningfully executable.
    for i, text in enumerate(source.splitlines(), start=1):
        stripped = text.strip()
        if stripped.startswith(('"""', "'''", "#")) or not stripped:
            lines.discard(i)
    return lines


def _target_files():
    out = []
    for base in TARGET_DIRS:
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.append(os.path.join(dirpath, name))
    return sorted(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", action="store_true", help="detail only, no gate")
    parser.add_argument("--floor", type=float, default=FLOOR)
    args = parser.parse_args()

    os.chdir(ROOT)
    sys.path.insert(0, SRC)

    threading.settrace(_call_tracer)
    sys.settrace(_call_tracer)
    try:
        import pytest

        exit_code = pytest.main(["-q", "-p", "no:cacheprovider", *TEST_ARGS])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if exit_code != 0:
        print(f"coverage gate: traced test run failed (pytest exit {exit_code})")
        return int(exit_code)

    total_exec = 0
    total_hit = 0
    rows = []
    for path in _target_files():
        executable = _executable_lines(path)
        hit = _hits.get(path, set()) & executable
        missed = sorted(executable - hit)
        total_exec += len(executable)
        total_hit += len(hit)
        pct = 100.0 * len(hit) / len(executable) if executable else 100.0
        rows.append((os.path.relpath(path, ROOT), len(executable), len(hit), pct, missed))

    width = max(len(r[0]) for r in rows)
    print(f"\n{'file':<{width}}  lines  hit   cover")
    for rel, n_exec, n_hit, pct, missed in rows:
        print(f"{rel:<{width}}  {n_exec:>5}  {n_hit:>4}  {pct:5.1f}%")
        if args.report and missed:
            print(f"{'':<{width}}  missed: {_ranges(missed)}")
    overall = total_hit / total_exec if total_exec else 1.0
    print(f"\nTOTAL {' + '.join('repro.' + pkg for pkg in TARGET_PACKAGES)}: {100.0 * overall:.1f}% "
          f"({total_hit}/{total_exec} lines), floor {100.0 * args.floor:.4g}%")
    if args.report:
        return 0
    if overall < args.floor:
        print("coverage gate: FAIL — add tests or justify exclusions")
        return 1
    print("coverage gate: OK")
    return 0


def _ranges(lines):
    """Compact "12-15, 40, 52-53" rendering of missed line numbers."""
    spans = []
    start = prev = lines[0]
    for n in lines[1:] + [None]:
        if n is not None and n == prev + 1:
            prev = n
            continue
        spans.append(f"{start}-{prev}" if prev > start else f"{start}")
        if n is not None:
            start = prev = n
    return ", ".join(spans)


if __name__ == "__main__":
    sys.exit(main())
