"""One valuedness analysis derives each fact about its machine once:
``find_dumbbell`` makes the analysis context, its dumbbell carries it into
the W-pattern search, and the search's witness carries the update pool
that the search built, and its signature, into ``amplify_valuedness``.
The carried state changes no answer: amplification reads the same word,
outputs and ``budget.used`` off the carried pool as off a fresh one, a
witness passed with another ``Sst`` of the same document raises
``ParameterError`` before any unit is charged or any pool is built, and
equality, hashes, reprs and descriptions ignore the carried state.  Only
an Infinite witness keeps a pool, and no table of an analysis refers back
to its owner, so the analysis leaves no garbage for the cycle collector."""

import dataclasses
import gc
import weakref

import pytest

from sstkit import (
    Budget,
    SearchBudget,
    SstKitError,
    amplify_valuedness,
    analyze_valuedness,
    find_dumbbell,
)
from sstkit import analysis, model

from helpers import FIXTURES, draws
from regen_golden import VALUEDNESS_BUDGET

CASES = FIXTURES + draws(range(40)) + draws(range(300, 400))


def verdict(sst):
    return analyze_valuedness(sst, SearchBudget(**VALUEDNESS_BUDGET))


def amplified(sst, witness, m=3):
    """The answer of ``amplify_valuedness`` (or the error it raised) and
    the units it used."""
    budget = Budget(200_000)
    try:
        answer = amplify_valuedness(sst, witness, m, budget)
    except SstKitError as err:
        answer = (type(err).__name__, str(err))
    return answer, budget.used


def bare(witness):
    """A copy of ``witness`` that carries no pool."""
    return dataclasses.replace(witness, _pool=None, _signature=None)


def no_pool(sst):
    raise AssertionError("amplification built an update pool")


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_carried_pool_changes_no_amplification(label, make, monkeypatch):
    sst = make()
    v = verdict(sst)
    if v.kind != "Infinite":
        return
    w = v.witness
    assert w._pool.sst is sst
    assert w._signature == w._pool.signature(w.pattern)
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_UpdatePool", no_pool)
        carried = [amplified(sst, w, m) for m in (2, 3, 4)]
    assert carried == [amplified(sst, bare(w), m) for m in (2, 3, 4)]

    # another instance of the same document: the witness's runs belong to
    # ``sst``, so it is refused before the scan, with or without its pool
    other = make()
    refused = (("ParameterError", "the witness must come from an analysis of this Sst instance"), 0)
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_UpdatePool", no_pool)
        assert [amplified(other, x, m) for x in (w, bare(w)) for m in (2, 3)] == [refused] * 4


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_carried_state_is_ignored_by_eq_hash_repr_describe(label, make):
    sst = make()
    v = verdict(sst)
    pairs = []
    if v.dumbbell is not None:
        assert v.dumbbell._context is not None
        pairs.append((v.dumbbell, dataclasses.replace(v.dumbbell, _context=None)))
    if v.witness is not None:
        pairs.append((v.witness, bare(v.witness)))
    for carried, plain in pairs:
        assert carried == plain and hash(carried) == hash(plain)
        assert repr(carried) == repr(plain)
        assert carried.describe() == plain.describe()


def test_find_dumbbell_describes_the_analysis_dumbbell():
    for _, make in CASES:
        sst = make()
        found, v = find_dumbbell(sst), verdict(sst)
        assert (found is None) == (v.dumbbell is None)
        if found is not None:
            assert found.describe() == v.dumbbell.describe()


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_each_fact_is_derived_once(label, make, monkeypatch):
    """On an Infinite verdict and its amplification: one BFS from the
    initial states, one exit BFS per state, one update pool."""
    sst = make()
    bfs, exits, pools = [], [], []
    real_bfs, real_exit, real_pool = analysis._bfs, analysis.shortest_exit_run, analysis._UpdatePool

    def counted_bfs(adjacency, sources):
        bfs.append((adjacency is sst._moves, tuple(sources)))
        return real_bfs(adjacency, sources)

    def counted_exit(sst_, q):
        exits.append(q)
        return real_exit(sst_, q)

    class Counted(real_pool):
        def __init__(self, *args):
            super().__init__(*args)
            pools.append(self)

    monkeypatch.setattr(analysis, "_bfs", counted_bfs)
    monkeypatch.setattr(analysis, "shortest_exit_run", counted_exit)
    monkeypatch.setattr(analysis, "_UpdatePool", Counted)
    v = verdict(sst)
    if v.kind != "Infinite":
        return
    amplify_valuedness(sst, v.witness, 3, Budget(200_000))
    assert bfs.count((True, tuple(sst.initials))) == 1
    assert sorted(exits) == sorted(set(exits))
    assert len(pools) == 1
    # the pattern's access run is the one the dumbbell's context keeps
    pattern = v.witness.pattern
    assert pattern.rho0 is v.dumbbell._context.access_run(pattern.q1)
    assert model.shortest_access_run(sst, pattern.q1) == pattern.rho0


def test_only_an_infinite_witness_keeps_an_update_pool(monkeypatch):
    """With the collector off, so that only references keep a pool alive:
    each fixture's search builds one pool, an Infinite witness carries that
    very pool, and the pool of an Unknown verdict is freed once the
    analysis returns."""
    pools = []

    class Recorded(analysis._UpdatePool):
        def __init__(self, *args):
            super().__init__(*args)
            pools.append(weakref.ref(self))

    monkeypatch.setattr(analysis, "_UpdatePool", Recorded)
    kinds, enabled = {}, gc.isenabled()
    gc.disable()
    try:
        for label, make in FIXTURES:
            pools.clear()
            v = verdict(make())
            kinds[label] = v.kind
            assert len(pools) == (v.dumbbell is not None), label
            if v.kind == "Infinite":
                assert v.witness._pool is pools[0](), label
            elif pools:
                assert pools[0]() is None, label
    finally:
        if enabled:
            gc.enable()
    assert kinds["FIX-TSC"] == kinds["FIX-R2"] == "Unknown"


def test_analysis_leaves_no_cyclic_garbage():
    """With the collector off, analysing the fixtures and 40 draws and
    amplifying each Infinite verdict at m = 3 leaves no sstkit object for
    the collector to free: no memo holds a bound method of its owner.
    Garbage that the test harness itself makes is not sstkit's and is
    ignored."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.collect()
    kept = len(gc.garbage)
    gc.disable()
    try:
        for _, make in FIXTURES + draws(range(40)):
            sst = make()
            v = verdict(sst)
            if v.kind == "Infinite":
                amplify_valuedness(sst, v.witness, 3, Budget(200_000))
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = {type(o).__qualname__ for o in gc.garbage[kept:]
                  if type(o).__module__.startswith("sstkit")}
        assert leaked == set()
    finally:
        gc.set_debug(debug)
        del gc.garbage[kept:]
        if enabled:
            gc.enable()
