"""The numbered skeleton monoid: its multiplication table and idempotency
flags against brute force, its cap rule, a W-pattern search whose results
do not depend on the order in which elements were numbered, and a
dumbbell search that numbers none."""

import gc
import random
import weakref

import pytest

import sstkit
from sstkit import (
    BudgetExceededError,
    SearchBudget,
    Skeleton,
    analyze_valuedness,
    compose_skeletons,
    find_dumbbell,
    is_idempotent,
    skeleton_monoid,
)
from sstkit.analysis import _search_divergent_pattern
from sstkit.skeletons import _monoid_table, _MonoidTable, transition_skeletons

from helpers import random_sst

CASES = [(name, lambda name=name: sstkit.fixtures.load(name)) for name in sstkit.fixtures.names()]
CASES += [(f"random_sst({s})", lambda s=s: random_sst(random.Random(s))) for s in range(40)]
# six states and four variables give monoids of hundreds of elements
CASES += [(f"random_sst({s}, 6, 4)",
           lambda s=s: random_sst(random.Random(s), max_states=6, max_vars=4))
          for s in range(40)]


def brute_monoid(sst) -> set:
    """The identity and the generators, closed under multiplication by a
    generator on either side."""
    generators = set(transition_skeletons(sst))
    closure = {Skeleton.identity(sst.variables)} | generators
    frontier = list(closure)
    while frontier:
        s = frontier.pop()
        for g in generators:
            for prod in (compose_skeletons(g, s), compose_skeletons(s, g)):
                if prod not in closure:
                    closure.add(prod)
                    frontier.append(prod)
    return closure


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_table_matches_compose_skeletons(label, make):
    sst = make()
    members = skeleton_monoid(sst)  # closes the table
    table = _monoid_table(sst)
    elements = [table.skeleton(k) for k in range(len(table))]
    ids = {s: k for k, s in enumerate(elements)}
    assert len(ids) == len(elements)
    assert elements[0] == Skeleton.identity(sst.variables)
    assert set(elements) == members == brute_monoid(sst)
    generators = transition_skeletons(sst)
    for q in sst.states:
        for k, s in enumerate(elements):
            moves = table.moves[table.track(q, k)]
            indices = [[i for i, _ in letter] for letter in moves]
            assert indices == [[i for i, _ in letter] for letter in sst._moves[q]]
            for letter, sst_letter in zip(moves, sst._moves[q]):
                for (i, v), (_, target) in zip(letter, sst_letter):
                    assert table.track_states[v] == target
                    assert table.track_skeletons[v] == ids[compose_skeletons(generators[i], s)]
    assert len(table) == len(elements)
    assert table.idempotent == [is_idempotent(s) for s in elements]
    sample = range(min(len(elements), 25))
    for a in sample:
        for b in sample:
            assert table.product(a, b) == ids[compose_skeletons(elements[a], elements[b])]


CAP_CASES = [(name, lambda name=name: sstkit.fixtures.load(name)) for name in sstkit.fixtures.names()]
CAP_CASES += [(f"random_sst({s}, 6, 4)",
               lambda s=s: random_sst(random.Random(s), max_states=6, max_vars=4))
              for s in (0, 3, 7)]


def monoid_or_raise(sst, cap):
    try:
        return skeleton_monoid(sst, cap)
    except BudgetExceededError:
        return None


@pytest.mark.parametrize("label, make", CAP_CASES, ids=[c[0] for c in CAP_CASES])
@pytest.mark.parametrize("small_first", [True, False])
def test_cap_check_is_the_same_on_every_call(label, make, small_first):
    size = len(skeleton_monoid(make()))
    for cap in sorted({0, size - 1, size}):
        sst = make()
        if small_first:
            first = monoid_or_raise(sst, cap)
            full = skeleton_monoid(sst)
        else:
            full = skeleton_monoid(sst)
            first = monoid_or_raise(sst, cap)
        again = monoid_or_raise(sst, cap)
        if cap < size:
            assert first is None and again is None, cap
        else:
            assert first is full and again is full, cap
        assert skeleton_monoid(sst) is full


def dumbbell_or_stop(sst):
    try:
        found = find_dumbbell(sst, node_budget=1000)
    except BudgetExceededError as err:
        return ("stopped", str(err))
    return None if found is None else found.describe()


def pattern_search(sst):
    witness, report = _search_divergent_pattern(
        sst, SearchBudget(component_length=2, candidates=2000))
    return (None if witness is None else witness.describe()), report


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_searches_do_not_depend_on_element_ids(label, make):
    # a fresh transducer numbers elements in the order the search reaches
    # them; one closed by skeleton_monoid first numbers them in closure order
    fresh, closed = make(), make()
    skeleton_monoid(closed)
    assert pattern_search(fresh) == pattern_search(closed)


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_search_numbers_only_what_it_multiplies(label, make):
    # the dumbbell search runs on plain states and powers its witness with
    # compose_skeletons: it multiplies nothing in the table, so it numbers
    # nothing and leaves the transducer without one
    fresh = make()
    dumbbell_or_stop(fresh)
    assert getattr(fresh, "_skeleton_table", None) is None


@pytest.mark.parametrize("label, make", CAP_CASES, ids=[c[0] for c in CAP_CASES])
def test_search_cap_counts_the_elements_it_numbered(label, make):
    # the dumbbell search numbers no element, so no cap stops it, not even
    # one that the table's identity alone exceeds
    expected = dumbbell_or_stop(make())
    capped = make()
    capped._skeleton_table = _MonoidTable(capped, cap=0)
    assert dumbbell_or_stop(capped) == expected


@pytest.mark.parametrize("make, cap", [
    (lambda: random_sst(random.Random(7), max_states=6, max_vars=4), 7),
    (lambda: sstkit.fixtures.load("FIX-ID"), 0),
], ids=["random_sst(7,6,4)-cap7", "FIX-ID-cap0"])
def test_finite_verdict_ignores_the_monoid_cap(make, cap):
    """A Finite verdict uses no element of the skeleton monoid, so a table
    whose cap is below the monoid's size cannot turn it into an error or
    an Unknown.  The monoids here have 8 elements and 1."""
    capped = make()
    capped._skeleton_table = _MonoidTable(capped, cap=cap)
    assert analyze_valuedness(capped).kind == "Finite"
    fresh = make()
    assert find_dumbbell(fresh) is None
    assert getattr(fresh, "_skeleton_table", None) is None


@pytest.mark.parametrize("label, make", CAP_CASES, ids=[c[0] for c in CAP_CASES])
def test_pattern_search_cap_counts_the_elements_it_numbered(label, make):
    sst = make()
    expected = pattern_search(sst)
    numbered = len(_monoid_table(sst))
    capped = make()
    capped._skeleton_table = _MonoidTable(capped, cap=numbered - 1)
    witness, report = pattern_search(capped)
    assert witness is None and report["exhausted"] is True
    enough = make()
    enough._skeleton_table = _MonoidTable(enough, cap=numbered)
    assert pattern_search(enough) == expected


def test_table_is_freed_with_its_transducer():
    """The table and its move map form no reference cycle: dropping the
    transducer frees the table at once, with the cyclic collector off."""
    sst = sstkit.fixtures.load("FIX-TSC")
    pattern_search(sst)
    table = weakref.ref(_monoid_table(sst))
    assert len(table().moves) > 0
    gc.disable()
    try:
        del sst
        assert table() is None
    finally:
        gc.enable()
