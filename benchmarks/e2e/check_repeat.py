#!/usr/bin/env python3
"""Repeatability evidence: the same code, two sets of runs, compared.

    python3 benchmarks/e2e/check_repeat.py [--runs 10] [--seed 1]

runs every workload ``--runs`` times, each time with another seed, in
two sets that alternate (set A's run of a seed, then set B's run of the
same seed, then the next seed), and prints for every workload and
end-to-end metric both medians, both quartile spreads, the gap between
the medians and the metric's bound from ``BENCHMARK.json``.  A metric a
workload does not measure (``Scenario.measures``) has no row.

The spread is the distance between the first and the third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; the
gap is how much worse set B's median is than set A's, as a share of set
A's.  A benchmark is steady enough when every spread stays inside its bound
(a third of it is the aim) and every gap does too.  Exit code 1 if one
does not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from scenarios import SCENARIOS  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0",
        ],
        capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        sys.exit(f"error: {workload} --seed {seed} exited with {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"error: {workload} --seed {seed} was not correct")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv: list[str]) -> int:
    workloads = [workload["name"] for workload in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    args = parser.parse_args(argv)

    started = time.time()
    sets = {workload: ([], []) for workload in workloads}
    for index in range(args.runs):
        seed = args.seed + index
        for workload in workloads:
            for which in ((0, 1) if index % 2 == 0 else (1, 0)):
                sets[workload][which].append(one_run(workload, seed))
        print(
            f"# seed {seed} done, {time.time() - started:.0f} s so far",
            file=sys.stderr, flush=True,
        )

    status = 0
    print(
        f"{args.runs} runs per set, seeds {args.seed}..{args.seed + args.runs - 1}, "
        f"{time.time() - started:.0f} s in all"
    )
    print(
        "| workload | metric | median A | median B | spread A | spread B "
        "| gap B vs A | bound | verdict |"
    )
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        first, second = sets[workload]
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if name not in SCENARIOS[workload].measures:
                continue
            a = [run[name] for run in first]
            b = [run[name] for run in second]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = (spread(a), spread(b))
            widest = max(spreads)
            if widest > bound or worse > bound:
                verdict = "OUTSIDE"
                status = 1
            elif widest > bound / 3.0:
                verdict = "inside"
            else:
                verdict = "inside a third"
            print(
                f"| {workload} | {name} | {median_a:.6g} | {median_b:.6g} "
                f"| {spreads[0] * 100:.2f} % | {spreads[1] * 100:.2f} % "
                f"| {worse * 100:+.2f} % | {bound * 100:.0f} % | {verdict} |"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
