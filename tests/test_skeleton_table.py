"""The numbered skeleton table of the W-pattern search: its products and
idempotency flags against ``compose_skeletons``, the skeleton ids its
update pool numbers, its cap rule, a search whose results do not depend
on the order in which elements were numbered, and a dumbbell search that
builds no table.  ``skeleton_monoid``, the public closure, is checked
against brute force and keeps its own cap."""

import gc
import random
import weakref

import pytest

import sstkit
from sstkit import (
    BudgetExceededError,
    Run,
    SearchBudget,
    Skeleton,
    analysis,
    analyze_valuedness,
    compose_skeletons,
    find_dumbbell,
    is_idempotent,
    skeleton_monoid,
    skeleton_of,
    skeletons,
)
from sstkit.analysis import _search_divergent_pattern
from sstkit.skeletons import _MonoidTable, transition_skeletons

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
    """Number the whole monoid through ``generator`` and ``product`` and
    follow every id with the skeleton that ``compose_skeletons`` gives."""
    sst = make()
    table = _MonoidTable(sst)
    generators = transition_skeletons(sst)
    elements = {0: Skeleton.identity(sst.variables)}
    for i, g in enumerate(generators):
        assert elements.setdefault(table.generator(i), g) == g
    order = list(elements)
    for k in order:
        for i, g in enumerate(generators):
            prod = compose_skeletons(g, elements[k])
            j = table.product(table.generator(i), k)
            if j not in elements:
                elements[j] = prod
                order.append(j)
            assert elements[j] == prod
    assert sorted(elements) == list(range(len(table)))
    assert len(set(elements.values())) == len(elements)  # one id per element
    assert set(elements.values()) == skeleton_monoid(sst) == brute_monoid(sst)
    assert table.idempotent == [is_idempotent(elements[k]) for k in range(len(table))]
    sample = range(min(len(table), 25))
    for a in sample:
        for b in sample:
            assert elements[table.product(a, b)] == compose_skeletons(elements[a], elements[b])


def recorded_search(sst, monkeypatch, table_class=_MonoidTable):
    """(witness description, report, pool) of a small W-pattern search,
    with the search's tables built from ``table_class``."""
    pools = []

    class Recorded(analysis._UpdatePool):
        def __init__(self, *args):
            super().__init__(*args)
            pools.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_UpdatePool", Recorded)
        patch.setattr(analysis, "_MonoidTable", table_class)
        witness, report = _search_divergent_pattern(
            sst, SearchBudget(component_length=2, candidates=2000))
    # the pool, or None when the cap stopped the search before it built one;
    # popped, so that the recording class keeps no reference to it
    pool = pools.pop() if pools else None
    assert not pools
    return (None if witness is None else witness.describe()), report, pool


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_pool_numbers_the_skeleton_of_every_update(label, make, monkeypatch):
    """Two updates interned by a search share a skeleton id exactly when
    their induced updates have equal skeletons, and the id's flag says
    whether that skeleton is idempotent."""
    sst = make()
    *_, pool = recorded_search(sst, monkeypatch)
    ids_of, skeletons_of = {}, {}
    for path, k in pool._path_ids.items():
        start = sst.transitions[path[0]].source if path else sst.states[0]
        skeleton = skeleton_of(Run(sst, start, path).induced_update)
        u = pool.skeletons[k]
        ids_of.setdefault(skeleton, set()).add(u)
        skeletons_of.setdefault(u, set()).add(skeleton)
        assert pool.table.idempotent[u] == is_idempotent(skeleton)
    assert len(pool.skeletons) == len(pool.programs)
    assert all(len(ids) == 1 for ids in ids_of.values())
    assert all(len(s) == 1 for s in skeletons_of.values())


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


class ClosedFirst(_MonoidTable):
    """A table that numbers the whole monoid before the search starts,
    generators in reverse declaration order."""

    def __init__(self, sst):
        super().__init__(sst)
        k = 0
        while k < len(self):
            for i in reversed(range(len(sst.transitions))):
                self.product(self.generator(i), k)
            k += 1


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_searches_do_not_depend_on_element_ids(label, make, monkeypatch):
    # a plain table numbers elements in the order the search reaches them;
    # a closed one numbers them all first, in closure order
    fresh = recorded_search(make(), monkeypatch)
    closed = recorded_search(make(), monkeypatch, ClosedFirst)
    assert fresh[:2] == closed[:2]


def no_table(sst):
    raise AssertionError("the dumbbell search built a skeleton table")


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_search_numbers_only_what_it_multiplies(label, make, monkeypatch):
    # the dumbbell search runs on plain states and powers its witness with
    # compose_skeletons: it multiplies nothing in a table, so it builds none
    monkeypatch.setattr(analysis, "_MonoidTable", no_table)
    dumbbell_or_stop(make())


@pytest.mark.parametrize("label, make", CAP_CASES, ids=[c[0] for c in CAP_CASES])
def test_search_cap_counts_the_elements_it_numbered(label, make, monkeypatch):
    # the dumbbell search numbers no element, so no cap stops it, not even
    # one that the table's identity alone exceeds
    expected = dumbbell_or_stop(make())
    monkeypatch.setattr(skeletons, "SKELETON_MONOID_CAP", 0)
    assert dumbbell_or_stop(make()) == expected


@pytest.mark.parametrize("make, cap", [
    (lambda: random_sst(random.Random(7), max_states=6, max_vars=4), 7),
    (lambda: sstkit.fixtures.load("FIX-ID"), 0),
], ids=["random_sst(7,6,4)-cap7", "FIX-ID-cap0"])
def test_finite_verdict_ignores_the_monoid_cap(make, cap, monkeypatch):
    """A Finite verdict uses no element of the skeleton monoid, so a cap
    below the monoid's size cannot turn it into an error or an Unknown.
    The monoids here have 8 elements and 1."""
    assert len(skeleton_monoid(make())) > cap
    monkeypatch.setattr(skeletons, "SKELETON_MONOID_CAP", cap)
    assert analyze_valuedness(make()).kind == "Finite"
    monkeypatch.setattr(analysis, "_MonoidTable", no_table)
    assert find_dumbbell(make()) is None


@pytest.mark.parametrize("label, make", CAP_CASES, ids=[c[0] for c in CAP_CASES])
def test_pattern_search_cap_counts_the_elements_it_numbered(label, make, monkeypatch):
    *expected, pool = recorded_search(make(), monkeypatch)
    numbered = len(pool.table)
    monkeypatch.setattr(skeletons, "SKELETON_MONOID_CAP", numbered - 1)
    witness, report, _ = recorded_search(make(), monkeypatch)
    assert witness is None and report["exhausted"] is True
    monkeypatch.setattr(skeletons, "SKELETON_MONOID_CAP", numbered)
    assert list(recorded_search(make(), monkeypatch)[:2]) == expected


def test_search_frees_its_table_without_the_cycle_collector(monkeypatch):
    """A search's table and update pool live only as long as the search:
    with the cyclic collector off, both are freed once it returns."""
    sst = sstkit.fixtures.load("FIX-TSC")
    enabled = gc.isenabled()
    gc.disable()
    try:
        *_, pool = recorded_search(sst, monkeypatch)
        table = weakref.ref(pool.table)
        pool = weakref.ref(pool)
        assert pool() is None and table() is None
    finally:
        if enabled:
            gc.enable()
