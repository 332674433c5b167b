"""The dumbbell search runs on the product of plain states, never queues
a node whose tracks can no longer reach (q1, q2, q2), and powers the
triple it finds into a dumbbell.  It must find a dumbbell at the same
(q1, q2) pair as the full skeleton-track search, or none when that search
finds none; its dumbbell must pass ``Dumbbell.verify``; and it must pop
no more nodes.  The full search is kept here as the reference: the
untrimmed breadth-first search of the three-track product whose tracks
are (state, ``Skeleton``) pairs, which checks loop idempotency on the
fly, ``reference_bfs`` in ``tests/helpers.py``."""

import pytest

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

from helpers import FIXTURES, draws, reference_bfs, skeleton_track_moves

# above the most nodes any case below needs, trimmed or not
BUDGET = 20_000

WIDE = draws(range(40), 6, 4)


def reference_find(sst):
    """(dumbbell or None, nodes popped) of the untrimmed search."""
    moves = skeleton_track_moves(sst)
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


CASES = FIXTURES + WIDE + draws(range(200))


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
