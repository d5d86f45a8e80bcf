#!/usr/bin/env python3
"""Does the benchmark agree with itself?  Two sets of runs, same code.

    python3 benchmarks/e2e/selfcheck.py [--runs 10] [--write-noise]

Repeats what the driver does before it accepts the benchmark: two sets
of ``--runs`` runs per workload, run ``i`` of either set on seed
``FIRST_SEED + i``, the sets alternating which goes first.  For every
(workload, end-to-end metric) it prints both medians, how much worse the
second is than the first, each set's spread — (Q3 - Q1) / median over
the set's runs, which mixes run-to-run noise with seed-to-seed variation
— the largest relative difference between two runs on the same seed
(run-to-run noise alone), and the bound.  Exit status is non-zero if the
second median is worse than the first by more than the bound, a spread
exceeds it, or a metric that is a function of the seed alone differs
between two runs on one seed by more than ``SAME_SEED_TOLERANCE``.
``--write-noise`` commits the table to NOISE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
FIRST_SEED = 101
#: Functions of the seed alone: what two runs on one seed may differ by.
SAME_SEED_TOLERANCE = {
    "sim_latency_p50_s": 0.0,
    "sim_latency_p95_s": 0.0,
    "py_calls_per_query": 0.001,
}


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _run(contract: dict, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [*contract["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(contract["run_seconds"]), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    last = json.loads(proc.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    if not last["correct"]:
        sys.exit(f"{workload} seed {seed}: {last['failed']} of {last['attempted']} failed")
    return {name: m["value"] for name, m in last["metrics"].items()}


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (at least 5)")
    ap.add_argument("--write-noise", action="store_true", help="write the table to NOISE.md")
    args = ap.parse_args(argv)
    if args.runs < 5:
        ap.error("--runs must be at least 5")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)

    lines = [
        "| workload | metric | median A | median B | B worse by | spread A | spread B "
        "| same seed | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    bad = 0
    for spec in contract["workloads"]:
        sets = ([], [])
        for i in range(args.runs):
            for which in ((0, 1) if i % 2 == 0 else (1, 0)):
                sets[which].append(_run(contract, spec["name"], FIRST_SEED + i))
        for metric in contract["end_to_end"]:
            a = [run[metric["name"]] for run in sets[0]]
            b = [run[metric["name"]] for run in sets[1]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
            spreads = (_spread(a), _spread(b))
            same_seed = max(abs(x - y) / min(x, y) for x, y in zip(a, b))
            ok = (
                worse <= metric["bound"]
                and max(spreads) <= metric["bound"]
                and same_seed <= SAME_SEED_TOLERANCE.get(metric["name"], float("inf"))
            )
            bad += not ok
            lines.append(
                f"| {spec['name']} | {metric['name']} | {med_a:.6g} | {med_b:.6g} | "
                f"{worse:+.4f} | {spreads[0]:.4f} | {spreads[1]:.4f} | {same_seed:.5f} | "
                f"{metric['bound']} | {'yes' if ok else 'NO'} |"
            )
            print(lines[-1], flush=True)
    if args.write_noise:
        with open(os.path.join(HERE, "NOISE.md"), "w") as fh:
            fh.write(_NOISE_HEADER.format(runs=args.runs, first=FIRST_SEED,
                                          last=FIRST_SEED + args.runs - 1))
            fh.write("\n".join(lines) + "\n")
    print(f"{bad} pair(s) outside their bound" if bad else "all pairs within their bounds")
    return 1 if bad else 0


_NOISE_HEADER = """\
# NOISE — the benchmark against itself

Written by `python3 benchmarks/e2e/selfcheck.py --runs {runs} --write-noise`
on the seed box (2 shared cores): two sets of {runs} runs per workload on
the same checkout, seeds {first}..{last}, the sets alternating which runs
first.  *B worse by* is the second set's median against the first's,
signed so that positive means worse; *spread* is (Q3 - Q1) / median over
one set's runs, so it contains the seed-to-seed variation of the inputs
as well as the noise of the box; *same seed* is the largest relative
difference between the two runs of one seed, which is the noise of the
box alone.  A row is *ok* when B is worse than A by no more than the
bound, neither spread exceeds it, and — for the simulated latencies
(tolerance 0) and `py_calls_per_query` (0.001), which are functions of
the seed alone — the two runs of every seed agree.

"""

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
