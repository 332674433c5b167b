"""The numbered skeleton monoid: its multiplication table and idempotency
flags against brute force, and its cap rule."""

import random

import pytest

import sstkit
from sstkit import BudgetExceededError, Skeleton, compose_skeletons, is_idempotent, skeleton_monoid
from sstkit.skeletons import _monoid_table, transition_skeletons

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
    table = _monoid_table(sst)
    elements = table.elements
    ids = {s: k for k, s in enumerate(elements)}
    assert len(ids) == len(elements)
    assert elements[0] == Skeleton.identity(sst.variables)
    assert set(elements) == table.members == skeleton_monoid(sst) == brute_monoid(sst)
    for t, g in enumerate(transition_skeletons(sst)):
        assert len(table.times[t]) == len(elements)
        for k, s in enumerate(elements):
            assert table.times[t][k] == ids[compose_skeletons(g, s)]
    assert table.idempotent == tuple(is_idempotent(s) for s in elements)
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
