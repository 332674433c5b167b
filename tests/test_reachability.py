"""Reachability and shortest access/exit runs against a brute-force
closure."""

import random

import pytest

from sstkit.model import (
    coreachable_states,
    reachable_states,
    shortest_access_run,
    shortest_exit_run,
)

from helpers import FIXTURES, draws, random_sst

CASES = FIXTURES + draws(range(40))
# eight states give access and exit runs of several steps
CASES += [(f"random_sst({s}, 8 states)", lambda s=s: random_sst(random.Random(s), max_states=8))
          for s in range(40)]


def brute_distances(sst, sources, forward: bool) -> dict:
    """Fewest transitions from ``sources`` to each state (to each state from
    ``sources`` when not ``forward``), relaxed over all transitions until
    nothing changes."""
    dist = {q: 0 for q in sources}
    changed = True
    while changed:
        changed = False
        for t in sst.transitions:
            a, b = (t.source, t.target) if forward else (t.target, t.source)
            if a in dist and dist[a] + 1 < dist.get(b, len(sst.states) + 1):
                dist[b] = dist[a] + 1
                changed = True
    return dist


def assert_chains(sst, run, start_ok, end_ok, length):
    assert run.start in start_ok and run.end in end_ok
    assert len(run) == length
    for state, i in zip(run.states, run.steps):
        assert sst.transitions[i].source == state


@pytest.mark.parametrize("label, make", CASES, ids=[label for label, _ in CASES])
def test_reachability_matches_brute_force(label, make):
    sst = make()
    to = brute_distances(sst, sst.initials, forward=True)
    exit_len = brute_distances(sst, sst.finals, forward=False)
    assert reachable_states(sst) == tuple(q for q in sst.states if q in to)
    assert coreachable_states(sst) == tuple(q for q in sst.states if q in exit_len)
    for q in sst.states:
        access = shortest_access_run(sst, q)
        if q in to:
            assert_chains(sst, access, sst.initials, (q,), to[q])
        else:
            assert access is None
        leave = shortest_exit_run(sst, q)
        if q in exit_len:
            assert_chains(sst, leave, (q,), sst.finals, exit_len[q])
        else:
            assert leave is None
