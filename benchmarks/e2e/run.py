#!/usr/bin/env python3
"""End-to-end benchmark: SQL text to result rows, five workloads.

    python3 benchmarks/e2e/run.py                       # every workload, all metrics
    python3 benchmarks/e2e/run.py --workload scan_cold --seed 11 --out report.json
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1   # the driver's form

One workload is measured per process (so ``peak_rss_mb`` and program
state are per workload); without ``--workload`` each one runs in a fresh
child.  The process re-executes itself once with the hash seed and the
numeric libraries' thread counts pinned.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is
non-zero if any query failed or any answer disagreed with its expected
summary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

_PINNED_MARK = "FEISU_E2E_PINNED"
#: Fixed before the interpreter starts: string hashing (set order) and
#: the numeric libraries' thread pools (the box has two cores).
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="one workload by name (default: all, one child each)")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float,
                    help="accepted for the driver and ignored: a run is a fixed amount of work "
                         "(PASSES in workloads.py), sized to BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end metrics only; 1: per-layer metrics only; default both")
    ap.add_argument("--smoke", action="store_true", help="tenth-size data, two passes")
    ap.add_argument("--out", help="also write the full report (metrics, layers, info) here")
    ap.add_argument("--write-expected", action="store_true",
                    help="write expected/<workload>.seed<seed>.json from the twin cluster")
    return ap.parse_args(argv)


def _print_block(title: str, values: dict) -> None:
    print(f"-- {title}")
    for name, (value, unit) in values.items():
        print(f"{name:42s} {value!r:>24} {unit}")


def _result_line(report: dict, trace) -> str:
    chosen = dict(report["metrics"]) if trace != 1 else {}
    if trace != 0:
        chosen.update(report["layers"])
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()},
    })


def _one(args) -> int:
    import harness
    import verify
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.write_expected:
        answers = WORKLOADS[args.workload].twin(args.seed, False)
        os.makedirs(verify.EXPECTED_DIR, exist_ok=True)
        with open(verify.expected_path(args.workload, args.seed), "w") as fh:
            # One answer per line, so a changed answer is a one-line diff.
            fh.write("{\n" + ",\n".join(
                f"{json.dumps(k)}: {json.dumps(verify.summarize(r), sort_keys=True)}"
                for k, r in sorted(answers.items())
            ) + "\n}\n")
        print(f"wrote {verify.expected_path(args.workload, args.seed)} ({len(answers)} answers)")
        return 0

    contract = _load_contract()
    report = harness.run_workload(
        args.workload, args.seed, args.smoke,
        want_e2e=args.trace != 1, want_layers=args.trace != 0,
    )
    report["info"]["env"] = {k: os.environ.get(k) for k in PINNED_ENV}
    why = next(w["why"] for w in contract["workloads"] if w["name"] == args.workload)
    print(f"== {args.workload} (seed {args.seed}): {why}")
    if report["metrics"]:
        _print_block("end-to-end (tracing off)", report["metrics"])
    if report["layers"]:
        _print_block("per-layer (traced passes)", report["layers"])
    _print_block("info (raw, not gated)", {
        k: (v, "") for k, v in report["info"].items() if not isinstance(v, (list, dict))
    })
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    print(_result_line(report, args.trace))
    return 0 if report["failed"] == 0 else 1


def _all(args) -> int:
    """Each workload in its own child, so memory and state are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    reports = []
    for spec in _load_contract()["workloads"]:
        part = os.path.join(HERE, "out", f"report_{spec['name']}.json")
        os.makedirs(os.path.dirname(part), exist_ok=True)
        child = ["--seed", str(args.seed), "--workload", spec["name"], "--out", part]
        if args.trace is not None:
            child += ["--trace", str(args.trace)]
        if args.smoke:
            child.append("--smoke")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), *child],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1):
            print(lines[-1])
            return proc.returncode
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{spec['name']}/{metric}"] = value
        with open(part) as fh:
            reports.append(json.load(fh))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(reports, fh, indent=1)
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # Never fall back to a ``repro`` installed elsewhere: it would be
        # some other program's numbers.
        sys.exit(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
    if os.environ.get(_PINNED_MARK) != "1":
        env = dict(os.environ, **PINNED_ENV)
        env[_PINNED_MARK] = "1"
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)
    if args.workload is None:
        return _all(args)
    return _one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
