"""The dumbbell search runs on the product of plain states, never queues
a node whose tracks can no longer reach (q1, q2, q2), and powers the
triple it finds into a dumbbell.  It must find a dumbbell at the same
(q1, q2) pair as the full skeleton-track search, or none when that search
finds none; its dumbbell must pass ``Dumbbell.verify``; and it must pop
no more nodes.  The full search is kept here as the reference: the
untrimmed breadth-first search of the three-track product whose tracks
are (state, ``Skeleton``) pairs, which checks loop idempotency on the
fly."""

import random
from collections import deque
from functools import cache

import pytest

import sstkit
from sstkit import analysis, find_dumbbell
from sstkit.analysis import Dumbbell
from sstkit.model import (
    Budget,
    Run,
    coreachable_states,
    reachable_states,
    shortest_access_run,
    shortest_exit_run,
)
from sstkit.skeletons import (
    Skeleton,
    compose_skeletons,
    is_idempotent,
    transition_skeletons,
)

from helpers import random_sst

# above the most nodes any case below needs, trimmed or not
BUDGET = 20_000

FIXTURES = [(name, lambda name=name: sstkit.fixtures.load(name)) for name in sstkit.fixtures.names()]
WIDE = [(f"random_sst({s}, 6, 4)", lambda s=s: random_sst(random.Random(s), max_states=6, max_vars=4))
        for s in range(40)]
DEFAULT = [(f"random_sst({s})", lambda s=s: random_sst(random.Random(s))) for s in range(200)]


def reference_bfs(sst, moves, q1, q2, budget):
    """The untrimmed skeleton-track search: every child of a popped node
    is queued, and the goal is a node at (q1, q2, q2) whose tracks differ
    and whose loop tracks have idempotent skeletons.  ``moves(track)``
    lists the track's moves per letter, as ``Sst._moves`` does."""
    identity = Skeleton.identity(sst.variables)
    start = ((q1, identity), (q1, identity), (q2, identity), False)
    parents: dict = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        budget.charge()
        u1, u2, u3, diff = node
        if (diff and (u1[0], u2[0], u3[0]) == (q1, q2, q2)
                and is_idempotent(u1[1]) and is_idempotent(u3[1])):
            return analysis._rebuild_triple(parents, node)
        for letter1, letter2, letter3 in zip(moves(u1), moves(u2), moves(u3)):
            for i1, v1 in letter1:
                for i2, v2 in letter2:
                    for i3, v3 in letter3:
                        child = (v1, v2, v3, diff or not (i1 == i2 == i3))
                        if child not in parents:
                            parents[child] = (node, (i1, i2, i3))
                            queue.append(child)
    return None


def reference_find(sst):
    """(dumbbell or None, nodes popped) of the untrimmed search."""
    generators = transition_skeletons(sst)

    @cache
    def moves(track):
        """A track's moves: to each transition's target, with the skeleton
        of the transition after the track's."""
        q, s = track
        return tuple([(i, (target, compose_skeletons(generators[i], s))) for i, target in letter]
                     for letter in sst._moves[q])

    budget = Budget(BUDGET)
    coreach = set(coreachable_states(sst))
    for q1 in reachable_states(sst):
        for q2 in (q for q in sst.states if q in coreach):
            found = reference_bfs(sst, moves, q1, q2, budget)
            if found is None:
                continue
            path1, path2, path3 = found
            dumbbell = Dumbbell(q1, q2, shortest_access_run(sst, q1), Run(sst, q1, path1),
                                Run(sst, q1, path2), Run(sst, q2, path3),
                                shortest_exit_run(sst, q2))
            dumbbell.verify(sst)
            return dumbbell, budget.used
    return None, budget.used


def trimmed_find(sst, monkeypatch):
    """(dumbbell or None, nodes popped) of ``find_dumbbell``."""
    budgets = []

    class Recorded(Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "Budget", Recorded)
        dumbbell = find_dumbbell(sst, node_budget=BUDGET)
    (budget,) = budgets
    return dumbbell, budget.used


CASES = FIXTURES + WIDE + DEFAULT


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_trimmed_search_matches_reference(label, make, monkeypatch):
    sst = make()
    want, reference_pops = reference_find(sst)
    got, pops = trimmed_find(sst, monkeypatch)
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.q1, got.q2) == (want.q1, want.q2)
        got.verify(sst)
    assert 1 <= pops <= reference_pops


def test_trimmed_search_pops_fewer_on_wide_draws(monkeypatch):
    """On the 6-state, 4-variable draws the trimming pays: the searches pop
    fewer nodes in total."""
    reference = trimmed = 0
    for _, make in WIDE:
        sst = make()
        reference += reference_find(sst)[1]
        trimmed += trimmed_find(sst, monkeypatch)[1]
    assert trimmed < reference
