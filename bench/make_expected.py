"""Regenerate bench/expected.json from the current sstkit.

    python3 bench/make_expected.py

Writes the committed answers the benchmark checks against:

- the fixtures' oracle readings and output sets, from the reference
  evaluator;
- for each pool of random machines, the entries' verdicts (valuedness and
  ambiguity) as this version of sstkit gives them, and the amplifications
  that return None;
- the cost strata of each pool: entries sorted by the time their
  operations take here (median of three, corrected for the host's
  slowdown as in ``run.py``), cut into groups of equal size.  A
  seed draws one entry from each stratum; the few entries that cost more
  than two strata's worth run on every seed.

Run it only to define a new baseline; the verdicts it records are the
ones later versions must not contradict.  Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
from itertools import product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as W  # noqa: E402
from run import Probes  # noqa: E402

# pool size and stratum size; a seed draws one entry per stratum
OUTPUT_SCAN_POOL = (1200, 8)
VALUEDNESS_POOL = (3000, 10)
# node_budget caps the exact dumbbell search, whose cost has a tail of a few
# seconds on three of the 3000 pool machines
VALUEDNESS_BUDGET = {"component_length": 2, "oracle_max_len": 5, "candidates": 200,
                     "node_budget": 5000}
# an Infinite verdict whose amplification returns None, at the budget the
# defect was reported with
EXTRA_CASES = [{"index": 193, "budget": {"component_length": 2, "oracle_max_len": 5,
                                         "candidates": 20_000}}]
AMBIGUITY_POOL = (2000, 20)
AMBIGUITY_NODE_BUDGET = 1000
CLI_WORD_LENGTH = 4
REPEATS = 3
COSTS: dict[str, list[float]] = {}  # seconds per pool entry, written beside the output
PROBES = Probes()


class _Everything:
    """Passed as the known defects, so that an amplification returning None
    is recorded as one instead of failing."""

    def __contains__(self, item):
        return True


def _cost(ops) -> tuple:
    """Run ``ops`` REPEATS times.  Returns their cost, as a function that
    gives the median corrected total once the probes after the last
    operation are in, and the last results and recorder.  A failed check
    raises."""
    samples = []
    for _ in range(REPEATS):
        rec = W.Recorder()
        results, timings = [], []
        for op in ops:
            first = len(rec.latencies)
            results.append(op(rec))
            timings.append((sum(rec.latencies[first:]), PROBES.probe()))
        samples.append(timings)

    def cost() -> float:
        return statistics.median(sum(PROBES.corrected(timings)) for timings in samples)
    return cost, results, rec


def _strata(name: str, costs: list, size: int) -> dict:
    """Pool entries sorted by cost and cut into strata of ``size`` entries.

    An entry that costs more than two strata's worth of average entries
    would double its stratum's share of a pass whenever a seed happens to
    draw it, so such entries run on every seed instead."""
    costs = [cost() for cost in costs]
    COSTS[name] = costs
    limit = 2 * size * sum(costs) / len(costs)
    order = sorted(range(len(costs)), key=costs.__getitem__)
    rest = [i for i in order if costs[i] <= limit]
    return {
        "always": sorted(i for i in order if costs[i] > limit),
        "strata": [sorted(rest[k:k + size]) for k in range(0, len(rest), size)],
    }


def fixture_answers() -> dict:
    out = {}
    for s in W.fixture_subjects():
        oracle_len = W.SCAN_FIXTURE_LENGTHS[s.label][0]
        words = ["".join(t) for n in range(5) for t in product(s.spec.alphabet, repeat=n)]
        if s.label == "FIX-AMB":
            words += ["a" * n for n in W.SCAN_AMB_POWERS]
        out[s.label] = {
            "oracles": {f"{kind}@{oracle_len}": list(s.ref(kind, oracle_len))
                        for kind in ("valuedness_oracle", "ambiguity_oracle")},
            "outputs": {w: sorted(s.ref("outputs", w)) for w in words},
        }
    return out


def output_scan_pool() -> dict:
    costs = []
    for index in range(OUTPUT_SCAN_POOL[0]):
        s = W.drawn_subject(index, 3, 2)
        costs.append(_cost(W.scan_draw_ops(s, random.Random(index)))[0])
    return _strata("output_scan", costs, OUTPUT_SCAN_POOL[1])


def _verdict(s, knobs):
    cost, (kind,), rec = _cost([W.verdict_op(s, knobs, "Unknown", _Everything())])
    none = [[s.label, W.budget_key(knobs)]] if rec.known_defects else []
    return cost, kind, none


def valuedness_pool() -> dict:
    costs, kinds, amplify_none = [], [], []
    fixture_kinds = {}
    for s in W.fixture_subjects():
        _, fixture_kinds[s.label], none = _verdict(s, VALUEDNESS_BUDGET)
        amplify_none += none
    extra = []
    for case in EXTRA_CASES:
        _, kind, none = _verdict(W.drawn_subject(case["index"], 3, 2), case["budget"])
        extra.append(dict(case, kind=kind))
        amplify_none += none
    for index in range(VALUEDNESS_POOL[0]):
        cost, kind, none = _verdict(W.drawn_subject(index, 3, 2), VALUEDNESS_BUDGET)
        costs.append(cost)
        kinds.append(kind[0])
        amplify_none += none
    return dict(
        _strata("valuedness", costs, VALUEDNESS_POOL[1]),
        budget=VALUEDNESS_BUDGET,
        kinds="".join(kinds),
        fixture_kinds=fixture_kinds,
        extra_cases=extra,
        amplify_none=amplify_none,
    )


def ambiguity_pool() -> dict:
    workdir = os.path.join(ROOT, ".bench_out", f"expected-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    costs, kinds = [], []
    try:
        for index in range(AMBIGUITY_POOL[0]):
            s = W.drawn_subject(index, 6, 4)
            path = os.path.join(workdir, "doc.sst")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(W.render(s.spec))
            w = W.word(random.Random(index), s.spec.alphabet, CLI_WORD_LENGTH)
            ops = W.cli_ops(s, path, w, AMBIGUITY_NODE_BUDGET, "Unknown")
            cost, results, _ = _cost(ops)
            costs.append(cost)
            kinds.append(results[1][0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return dict(
        _strata("ambiguity", costs, AMBIGUITY_POOL[1]),
        node_budget=AMBIGUITY_NODE_BUDGET,
        word_length=CLI_WORD_LENGTH,
        kinds="".join(kinds),
    )


def main() -> None:
    data = {
        "fixtures": fixture_answers(),
        "output_scan": output_scan_pool(),
        "valuedness": valuedness_pool(),
        "ambiguity": ambiguity_pool(),
    }
    with open(W.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "expected-costs.json"), "w", encoding="utf-8") as handle:
        json.dump(COSTS, handle)


if __name__ == "__main__":
    main()
