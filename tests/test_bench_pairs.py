"""``tools/bench_pairs.py`` on canned benchmark results: the pairs alternate
which tree runs first, and the summary reads each metric's medians,
quartiles, change and won pairs in the metric's own direction.  No
benchmark is started."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def result(ops_per_s, op_p50_ms, correct=True, failed=0):
    """A run's result object, as the last line of ``bench/run.py`` prints it."""
    line = json.dumps({
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                    "op_p50_ms": {"value": op_p50_ms, "unit": "ms"}},
    })
    return bench_pairs.parse_result(f"workload w seed 1: ...\n  ops_per_s {ops_per_s}\n{line}\n")


def test_pairs_alternate_which_tree_runs_first():
    calls = []

    def fake(root, workload, seed, seconds):
        calls.append((root, seed))
        return {"root": root, "seed": seed}

    results = bench_pairs.run_pairs("P", "C", "w", 3, 1.0, 40, run=fake)
    assert calls == [("P", 40), ("C", 40), ("C", 41), ("P", 41), ("P", 42), ("C", 42)]
    assert results == [({"root": "P", "seed": s}, {"root": "C", "seed": s}) for s in (40, 41, 42)]


def test_summary_reads_each_metric_in_its_direction():
    parent = [(100, 2.0), (110, 3.0), (90, 1.0), (105, 2.5)]
    change = [(120, 1.5), (100, 3.0), (95, 0.5), (130, 2.0)]
    results = [(result(*p), result(*c)) for p, c in zip(parent, change)]
    results[3][1]["failed"] = 2
    lines = bench_pairs.summarize(results, METRICS)
    assert lines[0].startswith("4 pairs")
    # ops_per_s: parent median 102.5, quartiles 97.5 and 106.25; change
    # median 110; higher is better, so pairs 0, 2 and 3 are won
    assert lines[1] == ("  ops_per_s (1/s, higher is better): 102.5 [97.5, 106.25] -> 110, "
                        "+7.3%, 3/4 pairs better")
    # op_p50_ms: lower is better; pair 1 is a tie and counts for neither
    assert lines[2] == ("  op_p50_ms (ms, lower is better): 2.25 [1.75, 2.625] -> 1.75, "
                        "-22.2%, 3/4 pairs better")
    # metrics that the runs lack are left out
    assert len(lines) == 5
    assert lines[3:] == ["  parent: correct True, failed 0 of 400",
                         "  change: correct True, failed 2 of 400"]
