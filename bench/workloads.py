"""The three benchmark workloads.

A workload is built from a seed into a list of operations.  An operation
prepares its inputs outside the clock (a freshly built ``Sst``, so no cache
on a machine object survives from one operation to the next), makes one or
two timed calls into sstkit through ``Recorder.call``, and then checks every
answer against the reference evaluator in ``reference`` or against the
committed answers in ``expected.json``.  Reference answers are computed on
first use and kept, so only the first pass pays for them.

Random machines come from a fixed pool of draws (``random_spec`` of
``Random(i)`` for i below the pool size).  ``expected.json`` sorts each
pool by the cost of the entry's operations at the commit that made the
file and cuts it into strata of a few entries each; a seed draws one entry
from every stratum, and the rare entries that cost more than two strata's
worth run on every seed.  The words a pool entry is queried on come from
its own index, so its cost is the one its stratum was chosen by.  Seeds thus change the machines but hardly the cost
profile of a pass: the pools have heavy tails (a few entries cost a
hundred times the median), and a plain random draw would make the timings
of different seeds differ by more than any change worth measuring.

sstkit is always reached through module attributes looked up at call time
(``S.outputs``, ``S.cli.main``), so the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from functools import cached_property, lru_cache

import sstkit as S
import sstkit.cli  # noqa: F401  (loads the submodule that S.cli names)
from sstkit import fixtures

import reference as R
from corpus import Spec, build, check_roundtrip, random_spec, render, spec_of

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
NODE_LIMIT = 10_000_000

# What the README says of each fixture.  Finite is only right for a finitely
# ambiguous machine, Infinite only for one that is not finite-valued.
KNOWN_VALUEDNESS = {
    "FIX-ID": {"Finite"},
    "FIX-AMB": {"Infinite", "Unknown"},
    "FIX-TSC": {"Unknown"},
    "FIX-TSC1": {"Infinite", "Unknown"},
    "FIX-R2": {"Unknown"},
}
KNOWN_AMBIGUITY = {"FIX-ID": "Finite", "FIX-AMB": "Infinite", "FIX-TSC": "Infinite",
                   "FIX-TSC1": "Infinite", "FIX-R2": "Infinite"}
KNOWN_MAX_OUTPUTS = {"FIX-ID": 1, "FIX-TSC": 2, "FIX-R2": 4}
# expected.json stores the verdicts of a pool as one letter per entry
KIND_OF_LETTER = {"F": "Finite", "I": "Infinite", "U": "Unknown"}

# output-scan query sizes
SCAN_FIXTURE_LENGTHS = {"FIX-ID": (8, 8), "FIX-AMB": (7, 6), "FIX-TSC": (5, 4),
                        "FIX-TSC1": (5, 4), "FIX-R2": (7, 6)}  # oracle, equivalence
SCAN_AMB_POWERS = (9, 10, 11)
SCAN_FIXTURE_WORDS = {"ranked": (6, 9), "cover": (8, 4)}  # words per fixture, length
SCAN_DRAW_LENGTHS = {"oracle": 5, "equiv": 4, "ranked": 8, "outputs": 8, "cover": 4}
SCAN_COVER_CD = (2, 2)  # C and D of semantic_cover


@lru_cache(maxsize=None)
def expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class CheckFailed(Exception):
    """An answer disagrees with the reference or the committed answers."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Recorder:
    """Latencies and outcomes of the operations of one pass.

    A latency is the CPU time of the calling thread during one call into
    sstkit: the benchmark is single-threaded and sstkit does no blocking
    I/O beyond reading a small document, so this equals the wall-clock
    latency minus the time the process was not scheduled.  ``run.py``
    counts the operations (``attempted``) and corrects the latencies for
    the host's slowdown."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.verdicts = 0
        self.decided = 0
        self.known_defects = 0
        self.notes: dict[str, int] = {}

    def call(self, fn, *args):
        if self.tracer is not None:
            self.tracer.active = True
        start = time.thread_time()
        try:
            return fn(*args)
        finally:
            self.latencies.append(time.thread_time() - start)
            if self.tracer is not None:
                self.tracer.active = False

    def verdict(self, decided: bool) -> None:
        self.verdicts += 1
        self.decided += decided

    def note(self, key: str, amount: int) -> None:
        self.notes[key] = self.notes.get(key, 0) + amount

    def fail(self, label: str, err: BaseException) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {type(err).__name__}: {err}")


class Subject:
    """One machine: its draw, its reference tables, and the reference
    answers computed so far.  ``committed`` holds answers from
    expected.json that the reference evaluator must reproduce."""

    def __init__(self, label: str, spec: Spec, committed: dict | None = None):
        self.label = label
        self.spec = spec
        self.committed = committed or {}
        self._memo: dict = {}

    @cached_property
    def machine(self) -> R.Machine:
        return R.Machine(build(self.spec))

    def fresh(self):
        return build(self.spec)

    def ref(self, kind: str, *args):
        key = (kind,) + args
        if key not in self._memo:
            answer = getattr(R, kind)(self.machine, *args)
            if key in self.committed:
                expect(self.committed[key] == answer,
                       f"reference {kind}{args} on {self.label} differs from expected.json")
            self._memo[key] = answer
        return self._memo[key]


def fixture_subjects() -> list[Subject]:
    subjects = []
    for name in fixtures.names():
        spec = spec_of(S.parse_sst(fixtures.source(name)))
        check_roundtrip(spec, build(spec))
        answers = expected()["fixtures"][name]
        committed = {("outputs", w): set(outs) for w, outs in answers["outputs"].items()}
        for key, answer in answers["oracles"].items():
            kind, max_len = key.split("@")
            committed[(kind, int(max_len))] = tuple(answer)
        subjects.append(Subject(name, spec, committed))
    return subjects


def drawn_subject(index: int, max_states: int, max_vars: int) -> Subject:
    """Pool entry ``index``: the machine ``random_sst(Random(index), ...)``
    of the test helpers."""
    spec = random_spec(random.Random(index), max_states, max_vars)
    check_roundtrip(spec, build(spec))
    return Subject(f"draw{index}", spec)


def stratified_sample(rng: random.Random, pool: dict) -> list[int]:
    return pool["always"] + [rng.choice(stratum) for stratum in pool["strata"]]


def pool_kind(pool: dict, index: int) -> str:
    """The committed verdict of pool entry ``index``, spelled out."""
    return KIND_OF_LETTER[pool["kinds"][index]]


def word(rng: random.Random, alphabet, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


# -- output-scan ----------------------------------------------------------------


def _budgeted(rec: Recorder, fn, *args):
    """One timed query under a fresh node budget; None on a budget stop."""
    budget = S.Budget(NODE_LIMIT)
    try:
        result = rec.call(fn, *args, budget)
    except S.BudgetExceededError:
        rec.verdict(False)
        return None
    finally:
        rec.note("model.enumerate_runs.nodes", budget.used)
    rec.verdict(True)
    return result


def oracle_op(s: Subject, kind: str, max_len: int):
    def op(rec: Recorder):
        got = _budgeted(rec, getattr(S, kind), s.fresh(), max_len)
        if got is not None:
            expect(got == s.ref(kind, max_len), f"{kind}({s.label}, {max_len}) = {got}")
            if kind == "valuedness_oracle" and s.label in KNOWN_MAX_OUTPUTS:
                expect(got[0] <= KNOWN_MAX_OUTPUTS[s.label], f"{s.label} exceeds its known valuedness")
    op.label = f"{kind}({s.label}, {max_len})"
    return op


def equiv_op(s: Subject, max_len: int):
    text = render(s.spec)

    def op(rec: Recorder):
        got = _budgeted(rec, S.check_equivalence_bounded, s.fresh(), S.parse_sst(text), max_len)
        # both sides are the same machine: any counterexample is wrong
        expect(got is None, f"{s.label} differs from its own rendering on {got!r}")
    op.label = f"check_equivalence_bounded({s.label}, {max_len})"
    return op


def ranked_op(s: Subject, w: str):
    def op(rec: Recorder):
        got = _budgeted(rec, S.ranked_outputs, s.fresh(), w)
        if got is not None:
            expect(got == s.ref("ranked_outputs", w), f"ranked_outputs({s.label}, {w!r})")
    op.label = f"ranked_outputs({s.label}, {w!r})"
    return op


def outputs_op(s: Subject, w: str):
    def op(rec: Recorder):
        got = _budgeted(rec, S.outputs, s.fresh(), w)
        if got is not None:
            expect(got == s.ref("outputs", w), f"outputs({s.label}, {w!r})")
    op.label = f"outputs({s.label}, {w!r})"
    return op


def cover_op(s: Subject, w: str):
    C, D = SCAN_COVER_CD
    verified: list = []

    def op(rec: Recorder):
        cover = _budgeted(rec, S.semantic_cover, s.fresh(), w, C, D)
        if cover is None:
            return
        shape = [(r.start, r.steps) for r in cover]
        if verified:
            expect(shape == verified[0], f"semantic_cover({s.label}, {w!r}) changed between passes")
            return
        expect(len(set(shape)) == len(shape), "semantic_cover repeats a run")
        expect(len(shape) <= s.ref("run_count", w), "semantic_cover has more runs than exist")
        for r in cover:
            expect(r.output == R.run_output(s.machine, r.start, r.steps),
                   f"semantic_cover({s.label}, {w!r}): output of a run")
        expect({r.output for r in cover} == s.ref("outputs", w),
               f"semantic_cover({s.label}, {w!r}) loses or invents outputs")
        verified.append(shape)
    op.label = f"semantic_cover({s.label}, {w!r})"
    return op


def scan_queries(s: Subject, rng: random.Random, oracle_len: int, equiv_len: int,
                 ranked: tuple[int, int], cover: tuple[int, int]) -> list:
    ops = [oracle_op(s, "valuedness_oracle", oracle_len),
           oracle_op(s, "ambiguity_oracle", oracle_len),
           equiv_op(s, equiv_len)]
    ops += [ranked_op(s, word(rng, s.spec.alphabet, ranked[1])) for _ in range(ranked[0])]
    ops += [cover_op(s, word(rng, s.spec.alphabet, cover[1])) for _ in range(cover[0])]
    return ops


def scan_draw_ops(s: Subject, rng: random.Random) -> list:
    L = SCAN_DRAW_LENGTHS
    ops = scan_queries(s, rng, L["oracle"], L["equiv"], (2, L["ranked"]), (1, L["cover"]))
    return ops + [outputs_op(s, word(rng, s.spec.alphabet, L["outputs"]))]


class OutputScan:
    """Output-level queries on machines with many more runs than outputs."""

    pass_seconds = 1.4  # corrected CPU seconds of one pass when the benchmark was added

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.ops = []
        for s in fixture_subjects():
            oracle_len, equiv_len = SCAN_FIXTURE_LENGTHS[s.label]
            self.ops += scan_queries(s, rng, oracle_len, equiv_len,
                                     SCAN_FIXTURE_WORDS["ranked"], SCAN_FIXTURE_WORDS["cover"])
            if s.label == "FIX-AMB":
                self.ops += [outputs_op(s, "a" * n) for n in SCAN_AMB_POWERS]
        for index in stratified_sample(rng, expected()["output_scan"]):
            self.ops += scan_draw_ops(drawn_subject(index, 3, 2), random.Random(index))
        rng.shuffle(self.ops)


# -- valuedness-corpus ------------------------------------------------------------


def budget_key(knobs: dict) -> str:
    return json.dumps(knobs, sort_keys=True)


def verdict_op(s: Subject, knobs: dict, committed_kind: str, known_none):
    """analyze_valuedness, then amplify_valuedness(m=3) on Infinite.  An
    amplification that returns None counts as a known defect when
    (label, budget key) is in ``known_none`` and fails otherwise."""
    known = (s.label, budget_key(knobs)) in known_none

    def op(rec: Recorder):
        sst = s.fresh()
        verdict = rec.call(S.analyze_valuedness, sst, S.SearchBudget(**knobs))
        kind = verdict.kind
        rec.verdict(kind in ("Finite", "Infinite"))
        search = verdict.to_json()["evidence"].get("search")
        if search is not None:
            rec.note("analysis.search.candidates_used", search["candidates_used"])
            rec.note("analysis.search.exhausted", int(search["exhausted"]))
        expect(kind in ("Finite", "Infinite", "Unknown"), f"verdict kind {kind!r}")
        if s.label in KNOWN_VALUEDNESS:
            expect(kind in KNOWN_VALUEDNESS[s.label], f"{s.label} judged {kind}")
        expect({kind, committed_kind} != {"Finite", "Infinite"},
               f"{s.label} judged {kind}, committed verdict is {committed_kind}")
        if kind == "Unknown" and verdict.oracle_reading is not None:
            reading = verdict.oracle_reading
            expect([reading["max_outputs"], reading["witness"]]
                   == list(s.ref("valuedness_oracle", reading["max_len"])),
                   f"oracle reading of {s.label}")
        if kind != "Infinite":
            return kind
        w = verdict.witness
        expect(w.output_mark_mid != w.output_mark_late, f"{s.label}: witness outputs coincide")
        expect({w.output_mark_mid, w.output_mark_late} <= s.ref("outputs", w.input),
               f"{s.label}: witness outputs are not produced on {w.input!r}")
        amplified = rec.call(S.amplify_valuedness, sst, w, 3, S.Budget(NODE_LIMIT))
        if amplified is None:
            expect(known, f"{s.label}: amplify_valuedness returned None")
            rec.known_defects += 1
            return kind
        got_word, outs = amplified
        expect(len(set(outs)) == 3, f"{s.label}: amplified outputs are not pairwise distinct")
        expect(set(outs) <= s.ref("outputs", got_word),
               f"{s.label}: amplified outputs are not produced on {got_word!r}")
        return kind
    op.label = f"analyze_valuedness({s.label}, {budget_key(knobs)})"
    return op


class ValuednessCorpus:
    """analyze_valuedness over the fixtures, the seed-193 case at its own
    budget, and a seeded draw from the pool."""

    pass_seconds = 2.5  # corrected CPU seconds of one pass when the benchmark was added

    def __init__(self, seed: int, workdir: str):
        committed = expected()["valuedness"]
        knobs = committed["budget"]
        known_none = {tuple(x) for x in committed["amplify_none"]}
        rng = random.Random(seed)
        subjects = fixture_subjects()
        self.ops = [verdict_op(s, knobs, committed["fixture_kinds"][s.label], known_none)
                    for s in subjects]
        for case in committed["extra_cases"]:
            s = drawn_subject(case["index"], 3, 2)
            self.ops.append(verdict_op(s, case["budget"], case["kind"], known_none))
        for index in stratified_sample(rng, committed):
            s = drawn_subject(index, 3, 2)
            self.ops.append(verdict_op(s, knobs, pool_kind(committed, index), known_none))
        rng.shuffle(self.ops)


# -- cli-batch ----------------------------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = S.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli(rec: Recorder, argv, codes=(0,)):
    code, out, err = rec.call(run_cli, argv)
    expect(code in codes, f"{' '.join(argv)} exited {code}: {err.strip()}")
    return code, (json.loads(out) if out else None), err


def cli_ops(s: Subject, path: str, w: str, node_budget: int, committed_kind: str) -> list:
    """validate, ambiguity, eval and runs on one document."""
    spec = s.spec
    summary = {"alphabet": list(spec.alphabet), "variables": list(spec.variables),
               "states": len(spec.states), "initials": list(spec.initials),
               "finals": list(spec.finals), "transitions": len(spec.transitions)}

    def validate(rec: Recorder):
        _, report, _ = _cli(rec, ["validate", path, "--json"])
        expect(report["result"] == summary, f"validate {s.label}: {report['result']}")

    def ambiguity(rec: Recorder):
        argv = ["ambiguity", path, "--json", "--budget", str(node_budget)]
        code, report, err = _cli(rec, argv, codes=(0, 1, 2))
        if code == 2:
            expect("budget" in err, f"ambiguity {s.label} failed: {err.strip()}")
            rec.verdict(False)
            return "Unknown"
        rec.verdict(True)
        kind = report["kind"]
        expect(kind == ("Finite" if code == 0 else "Infinite"), f"ambiguity {s.label}: {kind}")
        expect({kind, committed_kind} != {"Finite", "Infinite"},
               f"ambiguity {s.label} judged {kind}, committed verdict is {committed_kind}")
        if kind == "Infinite":
            R.check_dumbbell(s.machine, report["evidence"]["dumbbell"])
        return kind

    def evaluate(rec: Recorder):
        _, report, _ = _cli(rec, ["eval", path, "--json", "--input", w])
        expect(report["result"]["outputs"] == sorted(s.ref("outputs", w)),
               f"eval {s.label} on {w!r}")

    def runs(rec: Recorder):
        _, report, _ = _cli(rec, ["runs", path, "--json", "--input", w])
        listed = report["result"]["runs"]
        expect(len(listed) == s.ref("run_count", w), f"runs {s.label} on {w!r}: count")
        keys = [R.rank_key(s.machine, r["start"], r["steps"]) for r in listed]
        expect(keys == sorted(keys) and len(set(keys)) == len(keys),
               f"runs {s.label} on {w!r}: not in strict run order")
        for r in listed:
            expect(r["output"] == R.run_output(s.machine, r["start"], r["steps"]),
                   f"runs {s.label} on {w!r}: output of run {r['index']}")

    ops = [validate, ambiguity, evaluate, runs]
    for op in ops:
        op.label = f"{op.__name__} {s.label}"
    return ops


class CliBatch:
    """Whole CLI commands on rendered documents; each command re-parses."""

    pass_seconds = 1.9  # corrected CPU seconds of one pass when the benchmark was added

    def __init__(self, seed: int, workdir: str):
        committed = expected()["ambiguity"]
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        docs = [(s, fixtures.source(s.label), KNOWN_AMBIGUITY[s.label], rng)
                for s in fixture_subjects()]
        for index in stratified_sample(rng, committed):
            s = drawn_subject(index, 6, 4)
            docs.append((s, render(s.spec), pool_kind(committed, index), random.Random(index)))
        self.ops = []
        for i, (s, text, kind, word_rng) in enumerate(docs):
            path = os.path.join(workdir, f"doc{i:04d}.sst")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            w = word(word_rng, s.spec.alphabet, committed["word_length"])
            self.ops += cli_ops(s, path, w, committed["node_budget"], kind)
        rng.shuffle(self.ops)


WORKLOADS = {
    "output-scan": OutputScan,
    "valuedness-corpus": ValuednessCorpus,
    "cli-batch": CliBatch,
}
