"""The W-pattern search scans only the (q1, q2) pairs that have a dumbbell.
At any other pair, a candidate's three composite runs, over one input, go
q1 -> q1, q1 -> q2 and q2 -> q2 and are all equal, so all its legs are
equal and no mark diverges: the skip loses no candidate.  Here the pairs
that ``_dumbbell_paths`` gives are checked against those at which the
independent skeleton-track search ``helpers.reference_bfs`` finds a
dumbbell, and at every other pair the pattern sweep's reference generator,
with no skip and every idempotency check passed, must yield nothing: every
entry, loop and exit triple there gives legs that are all equal.  The
search called directly, which tests every pair, must give the witness
and the units that ``analyze_valuedness`` gives, which tells it the pairs
``find_dumbbell`` has already tested."""

from itertools import product

import pytest

from sstkit import SearchBudget, analyze_valuedness
from sstkit.analysis import _Analysis, _dumbbell_paths, _search_divergent_pattern
from sstkit.model import DEFAULT_NODE_BUDGET, Budget, coreachable_states, reachable_states

from helpers import draws, reference_dumbbell_pairs
from pattern_sweep import ReferencePool, reference_candidates
from regen_golden import DEEP_BUDGET, VALUEDNESS_BUDGET, machines

CASES = list(machines()) + [(label, make()) for label, make in draws(range(40, 100))]

# the component length of the reference at the skipped pairs: 2, but 1 on
# the two dense fixtures, whose skipped pairs take 40,693,380 units at 2
LENGTHS = {"FIX-TSC": 1, "FIX-TSC1": 1}
# above the units any case below needs
REFERENCE_UNITS = 10_000_000


class EveryLeg(ReferencePool):
    """The reference pool with every leg and loop taken as idempotent, so
    that its generator yields every shape whose legs are not all equal.
    The pool binds ``idempotent`` on the instance, so the override is
    bound there too, after it."""

    def __init__(self, sst):
        super().__init__(sst)
        self.idempotent = lambda leg: True


@pytest.mark.parametrize("label, sst", CASES, ids=[c[0] for c in CASES])
def test_skipped_pairs_hold_no_candidate(label, sst):
    with_dumbbell = reference_dumbbell_pairs(sst, Budget(DEFAULT_NODE_BUDGET))
    context = _Analysis(sst)
    tested = _dumbbell_paths(context, Budget(DEFAULT_NODE_BUDGET))
    assert [(q1, q2) for q1, q2, _ in tested] == with_dumbbell
    for n, pair in enumerate(with_dumbbell):  # as analyze_valuedness hands on a pair
        later = _dumbbell_paths(context, Budget(DEFAULT_NODE_BUDGET), pair)
        assert [(q1, q2) for q1, q2, _ in later] == with_dumbbell[n + 1:]
    skipped = [pair for pair in product(reachable_states(sst), coreachable_states(sst))
               if pair not in with_dumbbell]
    budget = Budget(REFERENCE_UNITS)
    assert list(reference_candidates(EveryLeg(sst), LENGTHS.get(label, 2), budget, skipped)) == []
    assert budget.used < budget.limit


@pytest.mark.parametrize("knobs", [VALUEDNESS_BUDGET, DEEP_BUDGET], ids=["golden", "deep"])
@pytest.mark.parametrize("label, sst", CASES, ids=[c[0] for c in CASES])
def test_direct_search_matches_analyze_valuedness(label, sst, knobs):
    sb = SearchBudget(**knobs)
    verdict = analyze_valuedness(sst, sb)
    witness, report = _search_divergent_pattern(sst, sb)
    if verdict.kind == "Finite":  # no pair has a dumbbell, so none is scanned
        assert witness is None and report["candidates_used"] == 0 and not report["exhausted"]
        return
    assert report == verdict.details["search"]
    assert (None if witness is None else witness.describe()) == (
        None if verdict.witness is None else verdict.witness.describe())
