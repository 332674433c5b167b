"""The pieces that re-check and amplify an Infinite witness agree with the
code they replaced, kept here (or in ``tests/pattern_sweep.py``) as their
references:

- ``Run.end``, read off the last step, is ``Run.states[-1]``;
- ``is_idempotent(s)``, which compares the images of s with those of s∘s,
  is ``compose_skeletons(s, s) == s``;
- ``_UpdatePool.outputs``, which builds the contents before each mark and
  the image after it once per sequence, gives each mark's output as
  ``reference_output`` does, one block applied after another;
- ``_least_tagged_runs``, which steps a frontier of tagged
  configurations, gives the least run of each distinct
  ``Run.annotated_output`` of ``enumerate_runs``, in order, at
  ``enumerate_runs``'s units, and ``_shared_annotations``, which tags each
  step prefix that a run shares with the run before it once, gives each
  run's ``Run.annotated_output``;
- ``build_wrun``, which joins its segments' steps into one ``Run``, gives
  the run that ``concat_runs`` builds over its segments.

The patterns are the Infinite witnesses of the golden file's ``analyses``
section, whose entries and loops are all empty, and, so that loop counts
matter, the first divergent candidate with a non-empty loop of each of the
pattern evaluator's cases that has one (the golden file's
``looping_witnesses`` pin three such witnesses as well)."""

import dataclasses
from itertools import product

import pytest

from sstkit import (
    Budget,
    RunError,
    SearchBudget,
    analyze_valuedness,
    build_wrun,
    compose_skeletons,
    concat_runs,
    enumerate_runs,
    is_idempotent,
    skeleton_monoid,
    words_over,
)
from sstkit.analysis import _Analysis, _build_pattern
from sstkit.model import _least_tagged_runs, _shared_annotations

from helpers import FIXTURES, draws
from pattern_sweep import reference_output
from regen_golden import VALUEDNESS_BUDGET, machines
from test_pattern_evaluator import CASES as EVALUATOR_CASES, distinct_candidates

CASES = FIXTURES + draws(range(40))
MAX_LEN = 4


def accepting_runs(sst):
    return [run for word in words_over(sst.alphabet, 0, MAX_LEN) for run in enumerate_runs(sst, word)]


def patterns():
    """(label, make, machine, pool, signature, pattern, longest count
    vector): the golden witnesses, then the looping candidates."""
    out, makes = [], dict(CASES)
    for label, sst in machines():
        verdict = analyze_valuedness(sst, SearchBudget(**VALUEDNESS_BUDGET))
        if verdict.kind == "Infinite":
            w = verdict.witness
            out.append((label, makes[label], sst, w._pool, w._signature, w.pattern, 6))
    for label, make in EVALUATOR_CASES:
        sst = make()
        pool, candidates = distinct_candidates(sst)
        for signature, *shape in candidates:
            if any(shape[4]) and pool.first_divergent_tuple(signature) is not None:
                pattern = _build_pattern(_Analysis(sst), *shape)
                pattern.verify(sst)
                out.append((f"looping {label}", make, sst, pool, signature, pattern, 5))
                break
    return out


PATTERNS = patterns()
IDS = [p[0] for p in PATTERNS]


def test_the_corpus_has_patterns():
    assert len(IDS) == 14 + 17


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_run_end_is_the_last_state(label, make):
    sst = make()
    runs = accepting_runs(sst) + [sst.empty_run(q) for q in sst.states]
    assert any(run.steps for run in runs)
    for run in runs:
        assert run.end == run.states[-1], run


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_is_idempotent_matches_the_square(label, make):
    for s in skeleton_monoid(make()):
        assert is_idempotent(s) == (compose_skeletons(s, s) == s), s


@pytest.mark.parametrize("label, make, sst, pool, signature, pattern, longest", PATTERNS, ids=IDS)
def test_outputs_match_the_per_mark_reference(label, make, sst, pool, signature, pattern, longest):
    """Every count vector of length 1..6 (1..5 for a looping candidate)
    with counts 1..4."""
    for n in range(1, longest + 1):
        for values in product(range(1, 5), repeat=n):
            want = [reference_output(pool, signature, values, mark) for mark in range(n)]
            assert pool.outputs(signature, values) == want, values


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_shared_annotations_match_each_run(label, make):
    """On every input of length 0 to 4: ``_shared_annotations`` gives every
    run of ``enumerate_runs`` its ``Run.annotated_output``, and
    ``_least_tagged_runs`` the same distinct tagged outputs, each with its
    least run, in order and at ``enumerate_runs``'s units."""
    sst = make()
    for word in words_over(sst.alphabet, 0, MAX_LEN):
        units = Budget()
        runs = enumerate_runs(sst, word, units)
        tagged = [run.annotated_output for run in runs]
        assert list(_shared_annotations(sst, runs)) == tagged, word
        least: dict = {}
        for run, out in zip(runs, tagged):
            least.setdefault(out, run)
        budget = Budget()
        got = _least_tagged_runs(sst, word, budget)
        assert [(out, r.start, r.steps) for out, r in got.items()] == [
            (out, r.start, r.steps) for out, r in least.items()], word
        assert budget.used == units.used, word


def reference_wrun(sst, pattern, values, mark):
    """``build_wrun`` as ``concat_runs`` over the list of its segments."""
    segments = [pattern.rho0]
    for idx, x in enumerate(values):
        leg = 0 if idx < mark else (1 if idx == mark else 2)
        segments.append(pattern.entries[leg])
        segments.extend([pattern.loops[leg]] * x)
        segments.append(pattern.exits[leg])
    segments.append(pattern.rho4)
    return concat_runs(sst, segments)


@pytest.mark.parametrize("label, make, sst, pool, signature, pattern, longest", PATTERNS, ids=IDS)
def test_build_wrun_matches_concat_runs(label, make, sst, pool, signature, pattern, longest):
    for n in range(1, 5):
        for values in product(range(1, 4), repeat=n):
            for mark in range(n):
                got, want = build_wrun(sst, pattern, values, mark), reference_wrun(sst, pattern, values, mark)
                assert (got.start, got.steps) == (want.start, want.steps), (values, mark)


# the runs of a pattern that build_wrun joins, as (field, index)
SEGMENTS = [("rho0", None), ("entries", 0), ("entries", 1), ("entries", 2), ("loops", 0),
            ("loops", 1), ("loops", 2), ("exits", 0), ("exits", 1), ("exits", 2), ("rho4", None)]


def replaced(pattern, name, k, run):
    """``pattern`` with the segment (name, k) replaced by ``run``."""
    if k is None:
        return dataclasses.replace(pattern, **{name: run})
    group = list(getattr(pattern, name))
    group[k] = run
    return dataclasses.replace(pattern, **{name: tuple(group)})


def segment(pattern, name, k):
    return getattr(pattern, name) if k is None else getattr(pattern, name)[k]


@pytest.mark.parametrize("label, make, sst, pool, signature, pattern, longest", PATTERNS, ids=IDS)
def test_build_wrun_refuses_a_segment_of_another_instance(label, make, sst, pool, signature, pattern,
                                                          longest):
    """Marked at 1 of 3 blocks, every leg is used."""
    other = make()
    for name, k in SEGMENTS:
        run = segment(pattern, name, k)
        foreign = replaced(pattern, name, k, other.run(run.start, run.steps))
        for build in (build_wrun, reference_wrun):
            with pytest.raises(RunError, match="different transducer instance"):
                build(sst, foreign, (1, 1, 1), 1)


def test_build_wrun_refuses_segments_that_do_not_chain():
    """A segment after rho0 replaced by one step from a state other than
    its start: the segments before it end at that start, so the chain
    breaks there."""
    tested = 0
    for _, _, sst, _, _, pattern, _ in PATTERNS:
        for name, k in SEGMENTS[1:]:
            start = segment(pattern, name, k).start
            for i, t in enumerate(sst.transitions):
                if t.source == start:
                    continue
                broken = replaced(pattern, name, k, sst.run(t.source, (i,)))
                for build in (build_wrun, reference_wrun):
                    with pytest.raises(RunError):
                        build(sst, broken, (1, 1, 1), 1)
                tested += 1
    assert tested > 100
