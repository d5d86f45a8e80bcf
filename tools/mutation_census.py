#!/usr/bin/env python
"""Mutation census: which seeded mutants of a module the tests miss.

For each module it lists every mutation site (stdlib ``ast`` only), samples
``--per-module`` of them with the fixed ``SEED``, and runs each mutant:

* first against the module's targeted test files (``MODULES``), with
  ``-x`` and a timeout;
* then, only if it survives those, against the whole tier 1.

Both must pass on the unmutated tree first, or the census stops.

The operators are the boundary and sense flips ``<`` / ``<=``,
``>`` / ``>=``, ``==`` / ``!=``, ``is`` / ``is not``, ``and`` / ``or``,
``+`` / ``-`` (``+=`` / ``-=`` too), an integer constant ± 1, and deleting
a statement that is a bare call.  A mutant edits the source text in place
of the operator or constant, so every other line keeps its number.

Every mutant runs in a copy of this tree (one copy and one worker per
core, in a fresh temporary directory that may not lie inside the tree and
is removed afterwards), and each copy's file is restored in a ``finally``;
the tree the tool was called from is only read.  Hypothesis runs with a
fixed seed and an empty example database, so two runs report the same
survivors.

A verdict is *killed* (a test failed, in either stage), *timeout*
(counted as detected) or *survived*.  A survivor the tables below explain
is printed with that reason; any other is work: a missing test, an
equivalent rewrite to add to ``EQUIVALENT``, or a second path that either
pays (``SECOND_PATHS``, with the gain measured) or goes.  Run from anywhere:

    python tools/mutation_census.py                      # the five modules, 60 each
    python tools/mutation_census.py engine/aggregates.py --per-module 20
    python tools/mutation_census.py --list               # the sampled sites, runs nothing
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from queue import Queue
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "repro")
#: The sampling seed: one seed, so every census samples the same mutants.
SEED = 1

#: Module (under ``src/repro``) -> the test files that target it.
MODULES: Dict[str, Tuple[str, ...]] = {
    "sim/events.py": (
        "tests/test_sim_events.py",
        "tests/test_sim_resources.py",
        "tests/test_sim_kernel_equivalence.py",
        "tests/test_event_trace.py",
        "tests/test_sim_golden.py",
    ),
    "engine/aggregates.py": (
        "tests/test_engine_aggregates.py",
        "tests/test_engine_serialize.py",
        "tests/test_kernels_property.py",
        "tests/test_engine_executor.py",
        "tests/test_sim_golden.py",
    ),
    "planner/cnf.py": (
        "tests/test_planner_cnf.py",
        "tests/test_planner_simplify.py",
        "tests/test_selectivity.py",
        "tests/test_planner_physical.py",
        "tests/test_fig7_plan_transformation.py",
        "tests/test_property_roundtrips.py",
    ),
    "index/smartindex.py": (
        "tests/test_index_smartindex.py",
        "tests/test_access_path_fold.py",
        "tests/test_bitmap_property.py",
        "tests/test_cluster_node.py",
        "tests/test_metrics_snapshot.py",
        "tests/test_fig7_plan_transformation.py",
    ),
    "cluster/scheduler.py": (
        "tests/test_cluster_scheduler.py",
        "tests/test_place_wave.py",
        "tests/test_cluster_master.py",
        "tests/test_elastic.py",
        "tests/test_client_serving_fixes.py",
        "tests/test_cluster_state_fixes.py",
    ),
}

_HEAD = "if lane and not (queue and queue[0] < lane[0]):"
_NO_TIE = "no two entries tie: each has its own seq"
_CAP = "a memo capacity: a miss recomputes the same bytes"
_ORDER = "only the registration indexes' order is read"

#: Survivors whose two sides answer the same, keyed by ``Site.key`` -> why;
#: a mutated line of None stands for every mutant of that line.
EQUIVALENT: Dict[Tuple[str, str, str, Optional[str]], str] = {
    ("sim/events.py", "Simulator.step", _HEAD, _HEAD.replace("<", "<=")): _NO_TIE,
    ("sim/events.py", "Simulator._drain", _HEAD, _HEAD.replace("<", "<=")): _NO_TIE,
    ("sim/events.py", "Simulator._drain", _HEAD, _HEAD.replace("lane[0]):", "lane[-1]):")): (
        "every lane entry is due now, and a heap entry due now is older than all of them"
    ),
    (
        "engine/aggregates.py",
        "GroupedPartial.merge",
        "bins = totals.nonzero()[0]",
        "bins = totals.nonzero()[-1]",
    ): "a 1-D array's nonzero() is a 1-tuple",
    (
        "engine/aggregates.py",
        "_group_ids",
        'if len(key_arrays) == 1 and key_arrays[0].dtype.kind == "i":',
        'if len(key_arrays) == 1 and key_arrays[-1].dtype.kind == "i":',
    ): "read only when there is one key column",
    ("engine/aggregates.py", "_group_ids", "col = key_arrays[0]", "col = key_arrays[-1]"): (
        "read only when there is one key column"
    ),
    ("engine/aggregates.py", "_group_ids", "if size > cap:", "if size >= cap:"): (
        "re-densifying keeps the ids' order and groups; only the count of empty bins changes"
    ),
    (
        "engine/aggregates.py",
        "_int_sum_cannot_wrap",
        "return (hi if hi > -lo else -lo) * values.size < 2**63",
        "return (hi if hi >= -lo else -lo) * values.size < 2**63",
    ): "on a tie both sides are the same number",
    (
        "index/smartindex.py",
        "SmartIndexManager.learn",
        "low = (ref.range_of(atom.column) or (None,))[0]",
        "low = (ref.range_of(atom.column) or (None,))[-1]",
    ): "np.max propagates NaN as np.min does, and (None,)[-1] is None",
    (
        "index/smartindex.py",
        "SmartIndexManager._insert_vector",
        "if len(self._created) > 2 * len(self._entries) + 8:",
        None,
    ): "when stale TTL records are compacted; _expire skips a stale record either way",
    ("cluster/scheduler.py", "", "TASK_BYTES_CACHE_ENTRIES = 1 << 16", None): _CAP,
    (
        "cluster/scheduler.py",
        "JobScheduler._task_bytes",
        "if len(self._task_bytes_cache) >= TASK_BYTES_CACHE_ENTRIES:",
        "if len(self._task_bytes_cache) > TASK_BYTES_CACHE_ENTRIES:",
    ): _CAP,
    ("cluster/scheduler.py", "JobScheduler.__init__", "self._registrations = 0", None): _ORDER,
    (
        "cluster/scheduler.py",
        "JobScheduler.register_leaf",
        "self._registrations += 1",
        "self._registrations += 2",
    ): _ORDER,
    (
        "cluster/scheduler.py",
        "JobScheduler.place",
        "placement = self.place_wave((task,), cnf, exclude)[0]",
        "placement = self.place_wave((task,), cnf, exclude)[-1]",
    ): "a wave of one task",
}

_DENSE = (
    "string ranks by hashing: without them ingest_query's qps_norm is 0.92x "
    "(10 pairs, median 117.1 -> 108.1, IQR 1.7) and py_calls_per_query +1.0 %"
)

#: Second paths kept because they pay, keyed like ``EQUIVALENT`` -> the
#: gain measured without them.
SECOND_PATHS: Dict[Tuple[str, str, str, str], str] = {
    (
        "engine/aggregates.py",
        "_dense_codes",
        "if col.dtype == object:",
        "if col.dtype != object:",
    ): _DENSE,
    (
        "engine/aggregates.py",
        "_dense_codes",
        "if uniques is not None and set(map(type, uniques)) <= {str}:",
        "if uniques is not None and set(map(type, uniques)) < {str}:",
    ): _DENSE,
}

PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")
#: The whole tier 1, less this tool's own test: it checks the tables above
#: against the tree's source, so it would "kill" every mutant they list.
TIER1 = ("--ignore=tests/test_mutation_census.py",)
TIER1_TIMEOUT_S = 400.0
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", ".benchmarks")

_COMPARE = {
    ast.Lt: ("<", "<="),
    ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="),
    ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="),
    ast.NotEq: ("!=", "=="),
    ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"),
}
_ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+")}
_BOOL = {ast.And: ("and", "or"), ast.Or: ("or", "and")}
#: How each operator token is found in the text between its operands.
_TOKEN = {
    "<": r"(?<![<>=!])<(?![<=])",
    "<=": r"<=",
    ">": r"(?<![<>=!-])>(?![>=])",
    ">=": r">=",
    "==": r"==",
    "!=": r"!=",
    "is": r"\bis\b(?!\s+not\b)",
    "is not": r"\bis\s+not\b",
    "and": r"\band\b",
    "or": r"\bor\b",
    "+": r"\+",
    "-": r"-",
    "+=": r"\+=",
    "-=": r"-=",
}


@dataclass(frozen=True)
class Site:
    """One mutant: text edits ``(start, end, new)`` in absolute offsets."""

    module: str
    line: int
    function: str
    operator: str
    edits: Tuple[Tuple[int, int, str], ...]

    def key(self, source: str) -> Tuple[str, str, str, str]:
        """(module, function, the line, the line mutated), both stripped."""
        line = self.line - 1
        return (
            self.module,
            self.function,
            source.splitlines()[line].strip(),
            mutate(source, self).splitlines()[line].strip(),
        )


def _offsets(source: str):
    """(line, utf-8 column) -> absolute character offset."""
    starts = [0]
    lines = source.splitlines(keepends=True)
    for text in lines:
        starts.append(starts[-1] + len(text))

    def at(line: int, col: int) -> int:
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    return at


def _skipped(tree: ast.AST) -> set:
    """Nodes no mutant touches: annotations and f-string parts."""
    roots: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            roots.append(node)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(sub) for root in roots for sub in ast.walk(root)}


def enumerate_sites(module: str, source: str) -> List[Site]:
    """Every mutation site of ``source``, in source order."""
    tree = ast.parse(source)
    at = _offsets(source)
    skip = _skipped(tree)
    sites: List[Site] = []

    def start(node):
        return at(node.lineno, node.col_offset)

    def end(node):
        return at(node.end_lineno, node.end_col_offset)

    def token(left, right, old: str) -> Optional[Tuple[int, int]]:
        lo, hi = end(left), start(right)
        gap = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), source[lo:hi])
        found = list(re.finditer(_TOKEN[old], gap))
        return (lo + found[0].start(), lo + found[0].end()) if len(found) == 1 else None

    def add(node, function, operator, edits):
        if edits and all(edit is not None for edit in edits):
            sites.append(Site(module, node.lineno, function, operator, tuple(edits)))

    def flip(node, function, pairs, old, new):
        edits = []
        for left, right in pairs:
            span = token(left, right, old)
            edits.append(None if span is None else (*span, new))
        add(node, function, f"{old} -> {new}", edits)

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = f"{function}.{node.name}" if function else node.name
        if id(node) not in skip:
            if isinstance(node, ast.Compare):
                left = node.left
                for op, right in zip(node.ops, node.comparators):
                    if type(op) in _COMPARE:
                        flip(node, function, [(left, right)], *_COMPARE[type(op)])
                    left = right
            elif isinstance(node, ast.BoolOp):
                flip(node, function, list(zip(node.values, node.values[1:])), *_BOOL[type(node.op)])
            elif isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
                flip(node, function, [(node.left, node.right)], *_ARITH[type(node.op)])
            elif isinstance(node, ast.AugAssign) and type(node.op) in _ARITH:
                old, new = _ARITH[type(node.op)]
                flip(node, function, [(node.target, node.value)], old + "=", new + "=")
            elif (
                isinstance(node, ast.Constant)
                and type(node.value) is int
                and source[start(node) : end(node)].isdigit()
            ):
                for delta in (1, -1):
                    new = str(node.value + delta)
                    add(node, function, f"{node.value} -> {new}", [(start(node), end(node), new)])
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                call = node.value
                lines = call.end_lineno - call.lineno
                new = "None" if not lines else "(None" + "\n" * lines + ")"
                add(node, function, "del call", [(start(call), end(call), new)])
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "")
    return sites


def sample_sites(module: str, source: str, seed: int, per_module: int) -> List[Site]:
    """``per_module`` sites of ``module`` drawn by ``seed``, in source order."""
    sites = enumerate_sites(module, source)
    rng = random.Random(f"{seed}/{module}")
    picked = rng.sample(range(len(sites)), min(per_module, len(sites)))
    return [sites[i] for i in sorted(picked)]


def mutate(source: str, site: Site) -> str:
    """``source`` with ``site``'s edits applied (last edit first)."""
    for lo, hi, new in sorted(site.edits, reverse=True):
        source = source[:lo] + new + source[hi:]
    return source


def check_workdir(root: str, workdir: str) -> None:
    """Refuse a work directory inside the tree the tool reads from."""
    root, workdir = os.path.realpath(root), os.path.realpath(workdir)
    if os.path.commonpath([root, workdir]) == root:
        raise ValueError(f"refusing to write mutants into {workdir}: it lies inside {root}")


def _pytest(copy: str, tests: Sequence[str], timeout: float) -> Tuple[str, float]:
    """Run pytest in ``copy``: ("pass" | "fail" | "timeout", seconds)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [*PYTEST, *tests],
        cwd=copy,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        verdict = "pass" if proc.wait(timeout=timeout) == 0 else "fail"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        verdict = "timeout"
    shutil.rmtree(os.path.join(copy, ".hypothesis"), ignore_errors=True)
    return verdict, time.perf_counter() - started


@dataclass
class Result:
    site: Site
    verdict: str  # "killed" | "timeout" | "survived"
    stage: str  # "targeted" | "tier 1"
    targeted_s: float
    tier1_s: float


def _run_mutant(copies: Queue, site: Site, source: str, timeout: float) -> Result:
    copy = copies.get()
    path = os.path.join(copy, PACKAGE, site.module)
    tier1_s = 0.0
    try:
        with open(path, "w") as fh:
            fh.write(mutate(source, site))
        verdict, targeted_s = _pytest(copy, MODULES[site.module], timeout)
        stage = "targeted"
        if verdict == "pass":
            stage = "tier 1"
            verdict, tier1_s = _pytest(copy, TIER1, TIER1_TIMEOUT_S)
    finally:
        with open(path, "w") as fh:
            fh.write(source)
        copies.put(copy)
    verdict = {"pass": "survived", "fail": "killed", "timeout": "timeout"}[verdict]
    return Result(site, verdict, stage, targeted_s, tier1_s)


def _explain(site: Site, source: str) -> str:
    key = site.key(source)
    why = EQUIVALENT.get(key) or EQUIVALENT.get((*key[:3], None))
    if why:
        return f"equivalent: {why}"
    if key in SECOND_PATHS:
        return f"second path, kept: {SECOND_PATHS[key]}"
    return "UNRESOLVED"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("modules", nargs="*", default=list(MODULES), help="modules under src/repro")
    parser.add_argument("--per-module", type=int, default=60)
    parser.add_argument("--list", action="store_true", help="print the sampled sites and run nothing")
    args = parser.parse_args(argv)

    sources = {}
    for module in args.modules:
        if module not in MODULES:
            parser.error(f"no targeted tests listed for {module!r}; known: {', '.join(MODULES)}")
        with open(os.path.join(ROOT, PACKAGE, module)) as fh:
            sources[module] = fh.read()
    sampled = {m: sample_sites(m, sources[m], SEED, args.per_module) for m in args.modules}
    if args.list:
        for module, sites in sampled.items():
            for site in sites:
                print(f"{module}:{site.line}  {site.function or '<module>'}  {site.operator}")
        return 0

    jobs = os.cpu_count() or 1
    workdir = tempfile.mkdtemp(prefix="mutation-census-")
    started = time.perf_counter()
    try:
        check_workdir(ROOT, workdir)
        copies: Queue = Queue()
        trees = [os.path.join(workdir, f"tree{i}") for i in range(jobs)]
        for copy in trees:
            shutil.copytree(ROOT, copy, ignore=_IGNORE)
            copies.put(copy)
        timeouts = {}
        for module in args.modules:
            verdict, seconds = _pytest(trees[0], MODULES[module], 600.0)
            if verdict != "pass":
                print(f"{module}: targeted tests fail on the unmutated tree ({verdict}); stopping")
                return 1
            timeouts[module] = max(60.0, 5.0 * seconds)
        if _pytest(trees[0], TIER1, TIER1_TIMEOUT_S)[0] != "pass":
            print("tier 1 fails on the unmutated tree; stopping")
            return 1
        lock = threading.Lock()
        results: List[Result] = []

        def run(site: Site) -> None:
            result = _run_mutant(copies, site, sources[site.module], timeouts[site.module])
            with lock:
                results.append(result)
                print(f"  {site.module}:{site.line} {site.operator}: {result.verdict} ({result.stage})", flush=True)

        mutants = [site for sites in sampled.values() for site in sites]
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(run, mutants))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - started

    order = {(s.module, s.line, s.operator, s.edits): i for i, s in enumerate(mutants)}
    results.sort(key=lambda r: order[(r.site.module, r.site.line, r.site.operator, r.site.edits)])
    width = max(len(m) for m in args.modules)
    print(f"\n{'module':<{width}}  sites  sampled  killed  (tier 1)  timeout  survived")
    for module in args.modules:
        mine = [r for r in results if r.site.module == module]
        count = lambda verdict: sum(r.verdict == verdict for r in mine)  # noqa: E731
        late = sum(r.verdict == "killed" and r.stage == "tier 1" for r in mine)
        print(
            f"{module:<{width}}  {len(enumerate_sites(module, sources[module])):>5}  {len(mine):>7}  "
            f"{count('killed'):>6}  {late:>8}  {count('timeout'):>7}  {count('survived'):>8}"
        )
    survivors = [r for r in results if r.verdict == "survived"]
    print(f"\nsurvivors ({len(survivors)}):")
    for r in survivors:
        site = r.site
        print(f"  {site.module}:{site.line}  {site.function or '<module>'}  {site.operator}  "
              f"[{_explain(site, sources[site.module])}]")
    targeted = sum(r.targeted_s for r in results)
    tier1 = sum(r.tier1_s for r in results)
    print(f"\nseed {SEED}, {jobs} worker(s): wall {wall:.0f} s; "
          f"process time in the targeted stage {targeted:.0f} s, in the tier-1 stage {tier1:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
