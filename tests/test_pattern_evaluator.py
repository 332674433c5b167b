"""The W-pattern evaluator, which works from a candidate's signature only,
agrees with marked runs built and evaluated through ``Run``: on the
divergence tuple, including for candidates that do not diverge, and on
the outputs of marked sequences of several lengths."""

import random
from itertools import product

import pytest

import sstkit
from sstkit import BudgetExceededError, build_wrun
from sstkit.analysis import _PatternEvaluator, _UpdatePool, _pattern_candidates
from sstkit.model import Budget

from helpers import random_sst

CASES = [(name, lambda name=name: sstkit.fixtures.load(name)) for name in sstkit.fixtures.names()]
# Draws 95 and 196 each have a candidate whose first divergent tuple
# differs between marks 2 and 3, so a walk that marks the wrong position
# fails on them; no draw below 40 has one.
CASES += [(f"random_sst({s})", lambda s=s: random_sst(random.Random(s)))
          for s in [*range(40), 95, 196]]

SIGNATURES = 10
SEQUENCES = [(2,), (1, 2, 1), (2, 1, 1, 2)]


def distinct_candidates(sst):
    """The first candidates with distinct signatures, at component length 2."""
    pool = _UpdatePool(sst)
    seen = {}
    try:
        for raw in _pattern_candidates(pool, 2, Budget(5000)):
            seen.setdefault(raw.signature, raw)
            if len(seen) == SIGNATURES:
                break
    except BudgetExceededError:
        pass
    return pool, list(seen.values())


def reference_tuple(sst, pattern):
    for tup in product((1, 2), repeat=5):
        if build_wrun(sst, pattern, tup, 1).output != build_wrun(sst, pattern, tup, 3).output:
            return tup
    return None


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_evaluator_matches_runs(label, make):
    sst = make()
    pool, candidates = distinct_candidates(sst)
    for raw in candidates:
        pattern = raw.build_pattern(sst)
        pattern.verify(sst)
        ev = _PatternEvaluator(pool, raw.signature)
        assert ev.first_divergent_tuple() == reference_tuple(sst, pattern), raw
        for values in SEQUENCES:
            for mark in range(len(values)):
                assert ev.output(values, mark) == build_wrun(sst, pattern, values, mark).output


def test_corpus_has_both_kinds_of_candidate():
    """The cases above include candidates that diverge and ones that do not."""
    kinds = set()
    for _, make in CASES:
        sst = make()
        pool, candidates = distinct_candidates(sst)
        kinds.update(
            _PatternEvaluator(pool, raw.signature).first_divergent_tuple() is None
            for raw in candidates
        )
    assert kinds == {True, False}
