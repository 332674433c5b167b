"""The update ids that the W-pattern search carries on its triple levels:
every level entry names, for each of its three paths, the update that the
path induces, and every signature that the candidate generator yields
names the updates of its rho0 run, of its three legs' entry, loop and exit
paths, and of its rho4 run.  Each is checked against ``Run``'s
``induced_update``, compiled, on the golden machines at component lengths
2 and 3.  Levels are built exactly when some (q1, q2) pair has a dumbbell,
by the independent reference search, since the search scans no other
pair."""

import pytest

from sstkit import Run, SearchBudget, analysis
from sstkit.analysis import _search_divergent_pattern
from sstkit.model import (
    DEFAULT_NODE_BUDGET,
    Budget,
    _compile_update,
    shortest_access_run,
    shortest_exit_run,
)

from helpers import reference_dumbbell_pairs
from regen_golden import machines

CASES = list(machines())


def recorded_levels(sst, component_length, monkeypatch):
    """(pool, triple levels, yielded candidates) of a W-pattern search of
    2,000 candidates."""
    levels, yielded, pools = [], [], []

    class Recorded(analysis._TripleLevels):
        def __init__(self, *args):
            super().__init__(*args)
            levels.append(self)

    candidates = analysis._pattern_candidates

    def recorded_candidates(context, pool, *args):
        pools.append(pool)
        for candidate in candidates(context, pool, *args):
            yielded.append(candidate)
            yield candidate

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_TripleLevels", Recorded)
        patch.setattr(analysis, "_pattern_candidates", recorded_candidates)
        _search_divergent_pattern(
            sst, SearchBudget(component_length=component_length, candidates=2000))
    (pool,) = pools
    return pool, levels, yielded


@pytest.mark.parametrize("component_length", [2, 3])
@pytest.mark.parametrize("label, sst", CASES, ids=[c[0] for c in CASES])
def test_level_entries_and_signatures_name_induced_updates(label, sst, component_length,
                                                          monkeypatch):
    pool, levels, yielded = recorded_levels(sst, component_length, monkeypatch)

    def named(k, start, path):
        return pool.programs[k] == _compile_update(sst, Run(sst, start, path).induced_update.images)

    assert bool(levels) == bool(reference_dumbbell_pairs(sst, Budget(DEFAULT_NODE_BUDGET)))
    for triple_levels in levels:
        (_, _, starts), = triple_levels.levels[0]
        for depth, level in enumerate(triple_levels.levels):
            for paths, ids, ends in level:
                assert all(map(named, ids, starts, paths)), (starts, paths, ids)
                assert tuple(Run(sst, *run).end for run in zip(starts, paths)) == ends
                assert {len(path) for path in paths} == {depth}
    for (alpha, legs, omega, end), q1, q2, stations, *groups in yielded:
        access, rho4 = shortest_access_run(sst, q1), shortest_exit_run(sst, q2)
        assert named(alpha, access.start, access.steps)
        assert named(omega, q2, rho4.steps) and end == rho4.end
        starts = (q1, q1, q2), stations, stations  # of the entry, loop and exit triples
        for part, paths in enumerate(groups):
            ids = [leg[part] for leg in legs]  # legs[t]: track t's (entry, loop, exit) ids
            assert all(map(named, ids, starts[part], paths)), (part, paths)
