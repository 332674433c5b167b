"""Skeleton idempotency in the W-pattern search, read off the update
templates its pool interns: every answer against ``compose_skeletons``,
the skeleton template of every update, a search whose results do not
depend on the order in which updates were numbered, and analyses that
never call ``skeleton_monoid``.  That public closure is checked against
brute force and against its own cap."""

import gc
import random
import weakref

import pytest

import sstkit
from sstkit import (
    BudgetExceededError,
    SearchBudget,
    Skeleton,
    Update,
    analysis,
    analyze_valuedness,
    compose_skeletons,
    compose_updates,
    find_dumbbell,
    is_idempotent,
    parse_sst,
    skeleton_monoid,
    skeleton_of,
    skeletons,
)
from sstkit.analysis import _search_divergent_pattern
from sstkit.model import _compile_update
from sstkit.skeletons import transition_skeletons

from helpers import FIXTURES, draws, random_sst

# Letters that are digits: erasing them from a template as characters
# would also erase the indices of its replacement fields, and read the
# swap of X and Y as the identity.  The two swaps on 0 make a dumbbell at
# (p, p), so the W-pattern search scans that pair.
SWAP_01 = """\
alphabet: 0 1
vars: X Y
states: p
initial: p
final p -> X Y
trans p 0 p { X := Y 0 ; Y := X }
trans p 0 p { X := Y ; Y := X 0 }
trans p 1 p { X := X 1 ; Y := Y }
"""

# six states and four variables give monoids of hundreds of elements
CASES = FIXTURES + [("swap-01", lambda: parse_sst(SWAP_01))] + draws(range(40)) + draws(range(40), 6, 4)


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
def test_skeleton_monoid_matches_brute_force(label, make):
    sst = make()
    assert skeleton_monoid(sst) == brute_monoid(sst)


def recorded_search(sst, monkeypatch, pool_class=None):
    """(witness description, report, pool) of a small W-pattern search,
    with the search's pool built from ``pool_class``."""
    pools = []

    class Recorded(pool_class or analysis._UpdatePool):
        def __init__(self, *args):
            super().__init__(*args)
            pools.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_UpdatePool", Recorded)
        witness, report = _search_divergent_pattern(
            sst, SearchBudget(component_length=2, candidates=2000))
    # popped, so that the recording class keeps no reference to the pool
    pool = pools.pop()
    assert not pools
    return (None if witness is None else witness.describe()), report, pool


def pool_updates(sst, pool) -> dict:
    """Each update id of ``pool`` with its update, rebuilt from the pool's
    step memo through ``compose_updates``: the entry (k, i) -> j says that
    update j is update k followed by transition i.  An entry is memoized
    only once update k has an id, so in memo order each k is 0 or an
    earlier entry's j."""
    updates = {0: Update.identity(sst.variables)}
    for (k, i), j in pool._steps.items():
        update = compose_updates(sst.transitions[i].update, updates[k])
        assert updates.setdefault(j, update) == update, (k, i, j)
    assert len(updates) == len(pool.programs)
    return updates


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_table_matches_compose_skeletons(label, make, monkeypatch):
    """Every idempotency answer that a search's pool memoized, per leg
    (entry, loop, exit) of update ids, is that of the composed updates'
    skeleton."""
    sst = make()
    *_, pool = recorded_search(sst, monkeypatch)
    updates = pool_updates(sst, pool)
    for (e, l, x), answer in pool._idempotent.items():
        composite = compose_updates(updates[x], compose_updates(updates[l], updates[e]))
        assert answer == is_idempotent(skeleton_of(composite)), (e, l, x)
    if label == "swap-01":
        assert False in pool._idempotent.values()


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_pool_numbers_the_skeleton_of_every_update(label, make, monkeypatch):
    """The template of every update a search interned, with its letters
    erased, is the template of the update's skeleton."""
    sst = make()
    *_, pool = recorded_search(sst, monkeypatch)
    for k, update in pool_updates(sst, pool).items():
        erased = "".join(pool._skeleton_parts(pool.programs[k]))
        assert erased == _compile_update(sst, skeleton_of(update).images), k


CAP_CASES = FIXTURES + draws((0, 3, 7), 6, 4)


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
            assert first == full and again == full, cap
        assert skeleton_monoid(sst) == full


def dumbbell_or_stop(sst):
    try:
        found = find_dumbbell(sst, node_budget=1000)
    except BudgetExceededError as err:
        return ("stopped", str(err))
    return None if found is None else found.describe()


class ReversedFirst(analysis._UpdatePool):
    """A pool that numbers the update of every transition before the
    search starts, in reverse declaration order."""

    def __init__(self, sst):
        super().__init__(sst)
        for i in reversed(range(len(sst.transitions))):
            self.path_id((i,))


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_searches_do_not_depend_on_element_ids(label, make, monkeypatch):
    # a plain pool numbers updates in the order the search meets them; the
    # other numbers the transitions' updates first, in reverse order
    fresh = recorded_search(make(), monkeypatch)
    reversed_first = recorded_search(make(), monkeypatch, ReversedFirst)
    assert fresh[:2] == reversed_first[:2]


def no_pool(sst):
    raise AssertionError("the dumbbell search built an update pool")


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_search_numbers_only_what_it_multiplies(label, make, monkeypatch):
    # the dumbbell search runs on plain states and powers its witness with
    # compose_skeletons: it composes no templates, so it builds no pool
    monkeypatch.setattr(analysis, "_UpdatePool", no_pool)
    dumbbell_or_stop(make())


def small_verdict(sst):
    return analyze_valuedness(sst, SearchBudget(component_length=2, candidates=2000)).to_json()


def no_monoid(sst, cap=None):
    raise AssertionError("an analysis called skeleton_monoid")


def same_without_the_monoid(answers, monkeypatch):
    """Return ``answers()`` after checking that it is the same when
    ``skeleton_monoid`` raises, reached through the package, its module
    or a module that imported it."""
    expected = answers()
    for module in (sstkit, skeletons, analysis):
        monkeypatch.setattr(module, "skeleton_monoid", no_monoid, raising=False)
    assert answers() == expected
    return expected


@pytest.mark.parametrize("label, make", CAP_CASES, ids=[c[0] for c in CAP_CASES])
def test_search_cap_counts_the_elements_it_numbered(label, make, monkeypatch):
    """The dumbbell search and the valuedness verdict never call
    ``skeleton_monoid``.  FIX-ID and random_sst(7, 6, 4) are Finite."""
    expected = same_without_the_monoid(
        lambda: (dumbbell_or_stop(make()), small_verdict(make())), monkeypatch)
    if label in ("FIX-ID", "random_sst(7, 6, 4)"):
        assert expected[1]["kind"] == "Finite"


@pytest.mark.parametrize("make", [
    lambda: random_sst(random.Random(7), max_states=6, max_vars=4),
    lambda: sstkit.fixtures.load("FIX-ID"),
], ids=["random_sst(7,6,4)-cap7", "FIX-ID-cap0"])
def test_finite_verdict_ignores_the_monoid_cap(make, monkeypatch):
    """A Finite verdict at the default budget, and the dumbbell search
    without an update pool, never call ``skeleton_monoid``.  The monoids
    here have 8 elements and 1."""

    def answers():
        with monkeypatch.context() as m:
            m.setattr(analysis, "_UpdatePool", no_pool)
            return analyze_valuedness(make()).kind, find_dumbbell(make())

    assert same_without_the_monoid(answers, monkeypatch) == ("Finite", None)


@pytest.mark.parametrize("label, make", CAP_CASES, ids=[c[0] for c in CAP_CASES])
def test_pattern_search_cap_counts_the_elements_it_numbered(label, make, monkeypatch):
    # the W-pattern search reads idempotency off its pool's templates and
    # never calls skeleton_monoid
    same_without_the_monoid(lambda: recorded_search(make(), monkeypatch)[:2], monkeypatch)


def test_search_frees_its_pool_without_the_cycle_collector(monkeypatch):
    """A search's update pool lives only as long as the search: with the
    cyclic collector off, it is freed once the search returns."""
    sst = sstkit.fixtures.load("FIX-TSC")
    enabled = gc.isenabled()
    gc.disable()
    try:
        *_, pool = recorded_search(sst, monkeypatch)
        pool = weakref.ref(pool)
        assert pool() is None
    finally:
        if enabled:
            gc.enable()
