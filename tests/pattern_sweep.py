"""A seeded differential sweep of the W-pattern candidate generator.

``_pattern_candidates`` reads the update ids of each entry, loop and exit
triple off its triple levels, where each id is stepped from the id of the
path's parent, and it finds an exit run the first time a candidate ends
at its state.  The reference here is the generator that keeps paths only
on its levels, ``reference_candidates`` over ``ReferenceLevels``, and
interns each path's update through a memo of every path prefix of its
own, ``ReferencePool``.  ``check(sst)`` runs both on a grid of component
lengths and candidate budgets, and requires the same candidate shapes in
the same order, the same programs named by each signature, the same
``budget.used`` at each candidate, and the same stop: the budget, or the
end of the candidates.

``run(n)`` checks the fixtures, the ``no_variables`` and
``format_letters`` machines and, for s < n, the draws ``random_sst(s)``
and ``random_sst(s, 4, 3)``, all from ``tests/helpers.py``.
``tests/test_pattern_sweep.py`` runs a slice of it; run the full sweep
with

    PYTHONPATH=src python3 tests/pattern_sweep.py 2000

which prints the count of each outcome and, through the shared ``sweep``
driver, exits non-zero on the first mismatch, after printing the label of
its machine.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from itertools import chain

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sstkit import Budget, BudgetExceededError, Sst  # noqa: E402
from sstkit.analysis import _pattern_candidates, _UpdatePool  # noqa: E402
from sstkit.model import (  # noqa: E402
    coreachable_states,
    reachable_states,
    shortest_access_run,
    shortest_exit_run,
)

from helpers import FIXTURES, draws, format_letters, main, no_variables, sweep  # noqa: E402

LENGTHS = (1, 2, 3)  # component lengths
LIMITS = (30, 400, 3000)  # candidate budgets


class ReferencePool(_UpdatePool):
    """The update pool, with a path's id found through a memo of every
    path prefix it has interned, and the programs composed here."""

    def __init__(self, sst: Sst):
        super().__init__(sst)
        self._path_ids: dict[tuple, int] = {(): 0}

    def path_id(self, path: tuple) -> int:
        ids = self._path_ids
        if path not in ids:
            steps, sep, n = self.sst._templates, self.sep, len(path) - 1
            programs = self.programs
            while path[:n] not in ids:
                n -= 1
            for n in range(n + 1, len(path) + 1):
                prefix, step = ids[path[:n - 1]], path[n - 1]
                program = steps[step].format(*programs[prefix].split(sep))
                if program not in self._ids:
                    self._ids[program] = len(programs)
                    programs.append(program)
                ids[path[:n]] = self._ids[program]
        return ids[path]

    def ids(self, paths) -> tuple:
        return tuple([self.path_id(path) for path in paths])


class ReferenceLevels:
    """Synchronized run triples from a start triple of states, level by
    level, as (paths, end states): no update ids."""

    def __init__(self, sst: Sst, starts: tuple, budget: Budget):
        self.moves, self.budget = sst._moves, budget
        budget.charge()
        self.levels: list[list[tuple]] = [[(((), (), ()), starts)]]

    def level(self, depth: int) -> list[tuple]:
        charge, moves = self.budget.charge, self.moves
        while len(self.levels) <= depth:
            fresh: list[tuple] = []
            for (p1, p2, p3), (s1, s2, s3) in self.levels[-1]:
                for letter1, letter2, letter3 in zip(moves[s1], moves[s2], moves[s3]):
                    for i1, v1 in letter1:
                        for i2, v2 in letter2:
                            for i3, v3 in letter3:
                                charge()
                                fresh.append(((p1 + (i1,), p2 + (i2,), p3 + (i3,)), (v1, v2, v3)))
            self.levels.append(fresh)
        return self.levels[depth]

    def upto(self, max_len: int):
        return chain.from_iterable(map(self.level, range(max_len + 1)))


def reference_candidates(pool: ReferencePool, max_len: int, budget: Budget):
    """Candidates in the order of ``_pattern_candidates``, each path's
    update id interned as the candidate is tested, every exit run found
    before the first candidate."""
    sst, idempotent = pool.sst, pool.idempotent
    exit_runs = {q: shortest_exit_run(sst, q) for q in coreachable_states(sst)}
    levels_memo: dict = {}

    def levels(starts) -> ReferenceLevels:
        if starts not in levels_memo:
            levels_memo[starts] = ReferenceLevels(sst, starts, budget)
        return levels_memo[starts]

    for q1 in reachable_states(sst):
        alpha = pool.path_id(shortest_access_run(sst, q1).steps)
        for q2, rho4 in exit_runs.items():
            omega = pool.path_id(rho4.steps)
            goal = (q1, q2, q2)
            for e_paths, stations in levels((q1, q1, q2)).upto(max_len):
                e_ids = pool.ids(e_paths)
                station_levels = levels(stations)
                for l_paths, ends in station_levels.upto(max_len):
                    if ends != stations:
                        continue
                    l_ids = pool.ids(l_paths)
                    if not all(idempotent((0, k, 0)) for k in l_ids):
                        continue
                    for x_paths, ends in station_levels.upto(max_len):
                        budget.charge()
                        if ends != goal:
                            continue
                        legs = tuple(zip(e_ids, l_ids, pool.ids(x_paths)))
                        if not all(map(idempotent, legs)):
                            continue
                        if legs[0] == legs[1] == legs[2]:
                            continue
                        yield ((alpha, legs, omega, rho4.end), q1, q2, stations,
                               e_paths, l_paths, x_paths)


def events(generate, pool_class, sst: Sst, max_len: int, limit: int) -> list:
    """Each candidate as (shape, programs named by its signature,
    budget.used), then ("stop" or "end", budget.used)."""
    pool, budget = pool_class(sst), Budget(limit)
    programs = pool.programs
    out = []
    try:
        for (alpha, legs, omega, end), *shape in generate(pool, max_len, budget):
            named = (programs[alpha], [[programs[k] for k in leg] for leg in legs],
                     programs[omega], end)
            out.append((shape, named, budget.used))
    except BudgetExceededError:
        return out + [("stop", budget.used)]
    return out + [("end", budget.used)]


def check(sst: Sst) -> Counter:
    """The generator and its reference on the grid; raises AssertionError
    on the first mismatch."""
    outcomes: Counter = Counter()
    for max_len in LENGTHS:
        for limit in LIMITS:
            got = events(_pattern_candidates, _UpdatePool, sst, max_len, limit)
            want = events(reference_candidates, ReferencePool, sst, max_len, limit)
            if got != want:
                at = next((n for n, (g, w) in enumerate(zip(got, want)) if g != w),
                          min(len(got), len(want)))
                raise AssertionError(
                    f"component length {max_len}, budget {limit}, event {at}: got "
                    f"{got[at:at + 1]}, the reference gives {want[at:at + 1]}")
            outcomes["candidates"] += len(got) - 1
            outcomes[got[-1][0]] += 1
    return outcomes


def run(n: int) -> Counter:
    """The outcome counts of ``check`` on the fixtures, the two hand-built
    machines and two seeded draws per seed below ``n``."""
    hand_built = [("no-variables", no_variables), ("format-letters", format_letters)]
    return sweep(FIXTURES + hand_built + draws(range(n)) + draws(range(n), 4, 3), check)


if __name__ == "__main__":
    main(run, 2000)
