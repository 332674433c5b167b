"""sstkit benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload output-scan --seed 1 --seconds 12 --trace 0

Runs from the root of a source checkout and imports sstkit from ``src/``.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``.  One
caller drives sstkit in a closed loop (the next operation starts when the
previous one returns), with no extra threads or processes.  The command
re-executes itself once, to run with a hash seed taken from ``--seed``
(see ``_pin_hash_seed``).

Timing.  An operation is one query with its checks (``workloads.py``); its
latency is the calling thread's CPU time in its calls into sstkit (one
call, or two when an Infinite verdict is amplified).  On a shared host
that time still varies by up to a factor of two from one second to the
next, because other tenants slow the core this thread runs on without
taking it away.  So a fixed
pure-Python probe (``probe_work``, which shares no code with sstkit) runs
after every operation, and each latency is divided by the host's slowdown
around it: the mean time of the ``PROBE_WINDOW`` probes on either side of
the operation, over ``PROBE_REFERENCE_S``.  Every reported time is thus CPU
time at the speed at which a probe takes ``PROBE_REFERENCE_S``.  A fixed
reference, rather than the fastest probe of the run, keeps the scale from
moving with the run: the fastest probe differs by up to 18% between runs
on one host, while the probe-to-sstkit ratio holds to about 5%.  A change
to sstkit moves the latencies and not the probes.

Untraced (``--trace 0``): the workload is set up three times, then one
warm-up pass computes the reference answers, and the benchmark's own
objects are frozen out of the collector (``settle_heap``).  Then a fixed
number of timed passes run: ``--seconds`` divided by the workload's
nominal pass time (``pass_seconds``, set at the commit that added the
benchmark), so that a faster sstkit gets the same number of samples.  One
more set-up follows each timed pass.  ``setup_s`` is the median set-up time.  An operation's
latency is its median over the timed passes; ``op_p50_ms`` and
``op_p90_ms`` are taken over those medians; ``ops_per_s`` is the median
over the timed passes of the pass's operations divided by their summed
latency.  Every answer of every pass is checked, outside the clock.

Traced (``--trace 1``): after the warm-up pass, untraced and traced passes
alternate, ``TRACE_PAIRS`` of each (see ``tracing.py``).  The traced passes
must give identical work counts.  Per-layer metrics come from the last
traced pass, its self times divided by the pass's mean slowdown, and its
spans are written to ``.bench_out/``.  The tracing overhead compares the
median operation latencies of the two kinds of pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
MIN_PASSES = 3
TRACE_PAIRS = 3
PROBE_WINDOW = 25
# The probe's fastest time on the host the baseline was measured on
# (2 shared vCPUs of a 2.1 GHz Xeon, Python 3.11.7).
PROBE_REFERENCE_S = 60e-6


def _import_sstkit():
    """Import sstkit from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sstkit", "__init__.py")):
        raise SystemExit(f"error: no sstkit sources under {SRC}")
    sys.path.insert(0, SRC)
    import sstkit

    if os.path.dirname(os.path.dirname(os.path.abspath(sstkit.__file__))) != SRC:
        raise SystemExit(f"error: sstkit was imported from {sstkit.__file__}, not from {SRC}")


def _run_seconds() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)["run_seconds"]


def _pin_hash_seed(seed: int) -> None:
    """Re-execute this command with PYTHONHASHSEED taken from ``--seed``.

    String hashing decides the layout of sstkit's dicts and sets; with a
    random hash seed per process the same inputs run up to 10% faster or
    slower from one process to the next (work counts stay the same).  The
    seed fixes the layout along with the inputs, and ten seeds average over
    ten layouts."""
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def probe_work() -> int:
    """A fixed mix of the interpreter work sstkit does: tuples, dict and
    set updates, and string building (about 0.1 ms)."""
    seen: dict[str, int] = {}
    found = set()
    for i in range(150):
        key = (i % 7, i % 11, "x" * (i % 5))
        text = key[2] + str(key[0])
        seen[text] = seen.get(text, 0) + 1
        found.add(key)
    return len(found) + len("".join(sorted(seen)))


class Probes:
    """The probe times of one run, in the order they were taken."""

    def __init__(self):
        self.times: list[float] = []

    def probe(self) -> int:
        """Run one probe; return its index."""
        start = time.thread_time()
        probe_work()
        self.times.append(time.thread_time() - start)
        return len(self.times) - 1

    def slowdown(self, first: int, last: int) -> float:
        """Mean probe time over indices first..last, over the reference."""
        window = self.times[max(0, first):last + 1]
        return statistics.fmean(window) / PROBE_REFERENCE_S

    def corrected(self, timings) -> list[float]:
        """(latency, probe index) pairs to latencies divided by the slowdown
        around that probe."""
        return [lat / self.slowdown(mark - PROBE_WINDOW, mark + PROBE_WINDOW)
                for lat, mark in timings]


def run_pass(ops, rec, probes, tracer=None) -> list[tuple[float, int]]:
    """One pass over the operations.  A failed check and an unexpected raise
    both count as a failed operation.  Returns, for every operation, its
    latency and the index of the probe taken after it."""
    timings = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        first = len(rec.latencies)
        rec.attempted += 1
        try:
            op(rec)
        except Exception as err:
            rec.fail(op.label, err)
        timings.append((sum(rec.latencies[first:]), probes.probe()))
    return timings


def settle_heap() -> None:
    """Move the benchmark's own long-lived objects (workloads, reference
    answers) out of the collector's reach, so that a full collection
    during a timed call scans only what sstkit allocated."""
    gc.collect()
    gc.freeze()


def per_op_medians(passes) -> list[float]:
    return [statistics.median(ops) for ops in zip(*passes)]


def untraced(args, workload_cls, workdir):
    from workloads import Recorder, expected

    expected()  # loaded once per process, so not part of any set-up
    probes = Probes()
    setups = []  # (CPU seconds, first probe index, last probe index)

    def set_up():
        gc.collect()  # every set-up starts from the same collector state
        first = [probes.probe() for _ in range(PROBE_WINDOW)][0]
        start = time.thread_time()
        built = workload_cls(args.seed, workdir)
        spent = time.thread_time() - start
        last = [probes.probe() for _ in range(PROBE_WINDOW)][-1]
        setups.append((spent, first, last))
        return built

    workload = set_up()
    for _ in range(SETUP_REPEATS - 1):
        set_up()
    warm = Recorder()  # also computes the reference answers
    run_pass(workload.ops, warm, probes)
    settle_heap()
    count = max(MIN_PASSES, round(args.seconds / workload_cls.pass_seconds))
    recs, timings = [], []
    start = time.perf_counter()
    for _ in range(count):
        recs.append(Recorder())
        timings.append(run_pass(workload.ops, recs[-1], probes))
        set_up()  # spread over the run like the passes; the copy is discarded
    wall = time.perf_counter() - start
    passes = [probes.corrected(t) for t in timings]
    lat = per_op_medians(passes)
    setup_s = [spent / probes.slowdown(first, last) for spent, first, last in setups]
    rec = recs[-1]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (statistics.median(len(p) / sum(p) for p in passes), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(lat, n=10)[8], "ms"),
        "decided_share": (rec.decided / rec.verdicts, "share"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    recs.insert(0, warm)
    failed = sum(r.failed for r in recs)
    attempted = sum(r.attempted for r in recs)
    raw = statistics.median(sum(r.latencies) for r in recs[1:])
    corrected = statistics.median(sum(p) for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(lat)} operations per pass, "
          f"median of {count} timed passes ({wall:.2f} s wall); a pass takes {raw:.3f} s of CPU, "
          f"{corrected:.3f} s corrected for a host slowdown of {raw / corrected:.2f}")
    print(f"  failed_share {failed / attempted:.6f} ({failed} of {attempted}), "
          f"known defects {rec.known_defects} per pass, "
          f"verdict operations {rec.verdicts} per pass")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    failures = [f for r in recs for f in r.failures]
    return failed == 0, attempted, failed, metrics, failures


def traced(args, workload_cls, workdir):
    from tracing import Tracer
    from workloads import Recorder

    workload = workload_cls(args.seed, workdir)
    probes = Probes()
    recs = [Recorder()]  # warm-up; also computes the reference answers
    run_pass(workload.ops, recs[0], probes)
    settle_heap()
    plain, traced_passes = [], []
    for _ in range(TRACE_PAIRS):
        rec = Recorder()
        recs.append(rec)
        plain.append((rec, run_pass(workload.ops, rec, probes)))
        tracer = Tracer()
        rec = Recorder(tracer)
        recs.append(rec)
        with tracer.installed():
            timings = run_pass(workload.ops, rec, probes, tracer)
        traced_passes.append((tracer, rec, timings))
    counts = [dict(t.work_counts(), **_work_notes(r)) for t, r, _ in traced_passes]
    same = all(c == counts[0] for c in counts)
    differing = sorted(k for c in counts[1:] for k in set(counts[0]) | set(c)
                       if counts[0].get(k) != c.get(k))
    plain_s = sum(per_op_medians(probes.corrected(t) for _, t in plain))
    traced_s = sum(per_op_medians(probes.corrected(t) for _, _, t in traced_passes))
    overhead = (traced_s - plain_s) / plain_s

    tracer, rec, timings = traced_passes[-1]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}")
    tracer.write_spans(stem + ".spans.jsonl")
    summary = tracer.summary()
    summary["work_counts"] = counts[-1]
    with open(stem + ".summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)

    slowdown = probes.slowdown(timings[0][1], timings[-1][1])
    metrics = layer_metrics(tracer, summary, rec, slowdown)
    metrics["trace.overhead_share"] = (overhead, "share")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    failed = sum(r.failed for r in recs)
    attempted = sum(r.attempted for r in recs)
    print(f"workload {args.workload} seed {args.seed} traced: operations take {plain_s:.3f} s per pass "
          f"untraced and {traced_s:.3f} s traced (median of {TRACE_PAIRS} alternating passes each), "
          f"{len(tracer.spans)} spans")
    if overhead < 0:
        print(f"  tracing overhead unresolved: traced operations measured {-overhead:.1%} faster")
    else:
        print(f"  tracing overhead {overhead:.1%} of the untraced call time")
    print(f"  work counts of the {TRACE_PAIRS} traced passes {'identical' if same else 'DIFFER'}"
          + ("" if same else f": {differing[:10]}"))
    print(f"  spans and per-name summary written to {os.path.relpath(stem, ROOT)}.*")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    failures = [f for r in recs for f in r.failures]
    return failed == 0 and same, attempted, failed, metrics, failures


def _work_notes(rec) -> dict:
    return {f"note.{k}": v for k, v in rec.notes.items()}


def layer_metrics(tracer, summary, rec, slowdown: float) -> dict:
    """Per-layer metrics of one traced pass; times are divided by the
    pass's mean host slowdown."""
    calls, counts = summary["calls"], summary["counts"]
    self_s = {k: v / slowdown for k, v in summary["self_s"].items()}
    notes = rec.notes

    def self_of(name):
        return (self_s.get(name, 0.0), "s")

    def calls_of(name):
        return (calls.get(name, counts.get(name + ".calls", 0)), "count")

    m = {}
    from tracing import LAYERS

    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        m[f"{layer}.self_s"] = (total, "s")
    m["sstformat.parse_sst.self_s"] = self_of("sstformat.parse_sst")
    m["sstformat.parse_sst.calls"] = calls_of("sstformat.parse_sst")
    m["model.Sst.self_s"] = self_of("model.Sst")
    m["model.enumerate_runs.self_s"] = self_of("model.enumerate_runs")
    m["model.enumerate_runs.calls"] = calls_of("model.enumerate_runs")
    m["model.enumerate_runs.nodes"] = (notes.get("model.enumerate_runs.nodes", 0), "count")
    m["model.enumerate_runs.runs"] = (counts.get("model.enumerate_runs.runs", 0), "count")
    m["model.outputs.self_s"] = self_of("model.outputs")
    distinct = counts.get("model.outputs.distinct", 0)
    m["model.outputs.distinct"] = (distinct, "count")
    runs_under_outputs = counts.get("model.outputs.runs", 0)
    m["model.outputs.outputs_per_run"] = (
        distinct / runs_under_outputs if runs_under_outputs else 0.0, "ratio")
    for name in ("model.valuedness_oracle", "model.ambiguity_oracle"):
        m[name + ".self_s"] = self_of(name)
        m[name + ".total_s"] = (summary["total_s"].get(name, 0.0) / slowdown, "s")
    m["model.compose_updates.calls"] = calls_of("model.compose_updates")
    m["skeletons.skeleton_monoid.self_s"] = self_of("skeletons.skeleton_monoid")
    m["skeletons.skeleton_monoid.size"] = (counts.get("skeletons.skeleton_monoid.size", 0), "count")
    m["skeletons.compose_skeletons.calls"] = calls_of("skeletons.compose_skeletons")
    m["skeletons.is_idempotent.calls"] = calls_of("skeletons.is_idempotent")
    m["analysis.find_dumbbell.self_s"] = self_of("analysis.find_dumbbell")
    m["analysis.find_dumbbell.calls"] = calls_of("analysis.find_dumbbell")
    m["analysis.find_dumbbell.budget_stops"] = (
        counts.get("analysis.find_dumbbell.raised.BudgetExceededError", 0), "count")
    m["analysis.analyze_valuedness.self_s"] = self_of("analysis.analyze_valuedness")
    used = notes.get("analysis.search.candidates_used", 0)
    m["analysis.search.candidates_used"] = (used, "count")
    m["analysis.search.exhausted"] = (notes.get("analysis.search.exhausted", 0), "count")
    total_ns, phases_ns = tracer.children_ns(
        "analysis.analyze_valuedness",
        ("analysis.find_dumbbell", "model.valuedness_oracle", "skeletons.skeleton_monoid"))
    m["analysis.search.s_per_candidate"] = (
        (total_ns - phases_ns) / 1e9 / slowdown / used if used else 0.0, "s")
    m["analysis.WPattern.verify.calls"] = calls_of("analysis.WPattern.verify")
    m["analysis.build_wrun.calls"] = calls_of("analysis.build_wrun")
    m["analysis.build_wrun.self_s"] = self_of("analysis.build_wrun")
    m["analysis.amplify_valuedness.self_s"] = self_of("analysis.amplify_valuedness")
    m["analysis.amplify_valuedness.calls"] = calls_of("analysis.amplify_valuedness")
    m["analysis.amplify_valuedness.none"] = (counts.get("analysis.amplify_valuedness.none", 0), "count")
    for name in ("decompose.check_equivalence_bounded", "decompose.ranked_outputs",
                 "decompose.semantic_cover", "delay.delay", "wordcomb.cuts", "cli.main"):
        m[name + ".self_s"] = self_of(name)
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None:
        _pin_hash_seed(args.seed)
    if args.seconds is None:
        args.seconds = _run_seconds()
    _import_sstkit()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = os.path.join(OUT_DIR, f"docs-{os.getpid()}")
    try:
        body = traced if args.trace else untraced
        correct, attempted, failed, metrics, failures = body(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
