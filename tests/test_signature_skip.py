"""Yielding each signature once leaves the W-pattern search's result and
budget count exactly as testing every candidate, repeats included, does:
the reference is the pattern sweep's per-path generator, at the (q1, q2)
pairs where the independent reference search finds a dumbbell."""

import pytest

import sstkit
from sstkit import BudgetExceededError, SearchBudget
from sstkit.analysis import _UpdatePool, _search_divergent_pattern
from sstkit.model import Budget

from helpers import FIXTURES, draws
from pattern_sweep import ReferencePool, searched_candidates, skipped_reference
from regen_golden import machines

CASES = FIXTURES + draws(range(40))

# Each machine has a non-divergent candidate followed, at a later state
# pair, by a divergent one with the same legs; the two signatures differ
# only in the named part.  A loop at A or P prepends and one at B or C
# appends, so the marked outputs differ exactly when the content from
# before the pattern holds a b and survives to the output.
TWINS = {
    # rho0 reaches P with a b in X, and A with X empty
    "rho0": """
alphabet: a b
vars: X
states: A P B
initial: A
final B -> X
trans A a A { X := a X }
trans A a B { X := X a }
trans A b P { X := X b }
trans P a P { X := a X }
trans P a B { X := X a }
trans B a B { X := X a }
""",
    # rho4 from B erases X, from C keeps it; both end in F
    "rho4": """
alphabet: a b c
vars: X
states: A B C F
initial: A
init X = b
final F -> X
trans A a A { X := a X }
trans A a B { X := X a }
trans A a C { X := X a }
trans B a B { X := X a }
trans C a C { X := X a }
trans B c F { X := }
trans C c F { X := X }
""",
    # rho4 is empty at both B and C; the final output at B is empty
    "end state": """
alphabet: a b
vars: X
states: A B C
initial: A
init X = b
final B ->
final C -> X
trans A a A { X := a X }
trans A a B { X := X a }
trans A a C { X := X a }
trans B a B { X := X a }
trans C a C { X := X a }
""",
}


def reference_search(sst, sb):
    """Test every candidate of the reference generator in order, repeated
    signatures included, and stop at the first divergent one: (candidate,
    tuple, budget used, exhausted)."""
    budget = Budget(sb.candidates)
    pool = ReferencePool(sst)
    try:
        for raw in skipped_reference(sst)(pool, sb.component_length, budget):
            tup = pool.first_divergent_tuple(raw[0])
            if tup is not None:
                return raw, tup, budget.used, False
    except BudgetExceededError:
        return None, None, budget.used, True
    return None, None, budget.used, False


def shape(pattern):
    return (
        pattern.q1, pattern.q2, (pattern.r1, pattern.r2, pattern.r3),
        tuple(r.steps for r in pattern.entries),
        tuple(r.steps for r in pattern.loops),
        tuple(r.steps for r in pattern.exits),
    )


def check_against_reference(sst, sb):
    raw, tup, used, exhausted = reference_search(sst, sb)
    witness, report = _search_divergent_pattern(sst, sb)
    assert report["candidates_used"] == used
    assert report["exhausted"] == exhausted
    if raw is None:
        assert witness is None
        return
    assert witness is not None
    assert witness.values == tup
    assert shape(witness.pattern) == tuple(raw[1:])


@pytest.mark.parametrize("component_length", [2, 3])
@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_skip_matches_testing_every_candidate(label, make, component_length):
    check_against_reference(make(), SearchBudget(component_length=component_length, candidates=2000))


@pytest.mark.parametrize("component_length", [2, 3])
@pytest.mark.parametrize("part", sorted(TWINS))
def test_signature_keeps_every_part(part, component_length):
    sst = sstkit.parse_sst(TWINS[part])
    sb = SearchBudget(component_length=component_length, candidates=100_000)
    witness, _ = _search_divergent_pattern(sst, sb)
    assert witness is not None
    check_against_reference(sst, sb)


@pytest.mark.parametrize("component_length", [2, 3])
def test_no_signature_is_yielded_twice(component_length):
    """On the golden machines, the generator yields each signature once,
    up to the end of its candidates or a budget stop."""
    repeated = []
    for label, sst in machines():
        pool, seen = _UpdatePool(sst), set()
        try:
            for signature, *_ in searched_candidates(pool, component_length, Budget(5000)):
                if signature in seen:
                    repeated.append(label)
                    break
                seen.add(signature)
        except BudgetExceededError:
            pass
    assert repeated == []
