"""Alternating benchmark runs of two source trees, summarized per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N \\
        --seconds S --seed0 K

PARENT and CHANGE are the roots of two checkouts.  Pair i runs
``python3 bench/run.py --workload W --seed K+i --seconds S`` once in each
tree, the parent first in even pairs and the change first in odd ones, and
reads the JSON object on the last line of each run.  Given one root twice,
it is a control: two runs of one tree differ only by the host's drift, so
a control beside a comparison shows how many pairs that drift alone can
win.

For each end-to-end metric of the parent's ``BENCHMARK.json``, the summary
gives each side's median, the parent's first and third quartiles, the
change of the median in percent, and the pairs in which the change read
better, in the direction that the metric declares; a tie counts for
neither side.  A line is marked "claimable" when the change won at least
9 in 10 pairs and its median is better than the parent's by more than the
parent's quartile spread, and "regression" when its median is worse than
the parent's by more than the metric's ``bound``.  The summary ends with
whether every run of each side was correct and how many operations
failed.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object of one benchmark run in the tree at ``root``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, check=True)
    return parse_result(done.stdout)


def parse_result(stdout: str) -> dict:
    """The JSON object on the last line of a run's standard output."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_pairs(parent: str, change: str, workload: str, pairs: int, seconds: float,
              seed0: int, run=run_once) -> list[tuple[dict, dict]]:
    """(parent result, change result) of each pair, each side first in
    every other pair."""
    results = []
    for i in range(pairs):
        sides = [(0, parent), (1, change)]
        if i % 2:
            sides.reverse()
        got: list = [None, None]
        for side, root in sides:
            got[side] = run(root, workload, seed0 + i, seconds)
        results.append((got[0], got[1]))
    return results


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(results: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """The summary lines of ``results`` for the end-to-end ``metrics`` of
    ``BENCHMARK.json``; a metric that some run lacks is left out."""
    lines = [f"{len(results)} pairs; medians, the parent's [first, third] quartiles, "
             "the change in percent, and the pairs the change won"]
    for metric in metrics:
        name = metric["name"]
        if not all(name in r["metrics"] for pair in results for r in pair):
            continue
        a = [p["metrics"][name]["value"] for p, _ in results]
        b = [c["metrics"][name]["value"] for _, c in results]
        lower = metric["better"] == "lower"
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        gain = ma - mb if lower else mb - ma
        marks = ""
        if 10 * won >= 9 * len(results) and gain > q3 - q1:
            marks += ", claimable"
        if -gain > metric["bound"] * abs(ma):
            marks += ", regression"
        lines.append(f"  {name} ({metric['unit']}, {metric['better']} is better): "
                     f"{ma:.6g} [{q1:.6g}, {q3:.6g}] -> {mb:.6g}, {change}, "
                     f"{won}/{len(results)} pairs better{marks}")
    for side, label in ((0, "parent"), (1, "change")):
        runs = [pair[side] for pair in results]
        lines.append(f"  {label}: correct {all(r['correct'] for r in runs)}, "
                     f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    results = run_pairs(args.parent, args.change, args.workload, args.pairs, args.seconds, args.seed0)
    control = os.path.realpath(args.parent) == os.path.realpath(args.change)
    print(f"workload {args.workload}, seeds {args.seed0}-{args.seed0 + args.pairs - 1}, "
          f"{args.seconds:g} s runs" + (", control" if control else ""))
    print("\n".join(summarize(results, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
