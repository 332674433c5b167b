"""A seeded differential sweep of the W-pattern candidate generator.

``_pattern_candidates`` reads the update ids of each entry, loop and exit
triple off its triple levels, where each id is stepped from the id of the
path's parent, it finds an exit run the first time an exit triple ends
at its state, and it yields each signature once.  The reference here is
the generator that keeps paths only on its levels, ``reference_candidates``
over ``ReferenceLevels``, interns each path's update through a memo of
every path prefix of its own, ``ReferencePool``, and yields every
candidate, repeated signatures included.  The generator scans the (q1, q2)
pairs of ``_dumbbell_paths``, those with a dumbbell, as the search does,
and the reference the pairs at which the independent skeleton-track
search ``helpers.reference_bfs`` finds one.  Each candidate's first divergent
tuple is read off its pool: ``_UpdatePool.first_divergent_tuple``, which
decides most non-divergent signatures off their last block and compares
the others' outputs as one string per mark, against ``ReferencePool``'s
walk over all 32 leaves.  ``check(sst)`` runs both on a grid of component
lengths and candidate budgets, keeps the reference's first occurrence of
each signature, keyed by the programs it names, and requires the same
candidate shapes in the same order, the same programs named by each
signature, the same first divergent tuple, the same ``budget.used`` at
each candidate, and the same stop: the budget, or the end of the
candidates.  At each candidate with a divergent tuple it also requires
``_UpdatePool.outputs``, which builds the contents before each mark and
the image after it once for all marks, to equal ``reference_output``,
which applies every block of each marked run in turn, on that tuple and
on two longer count vectors (the ``divergent`` count).

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
from itertools import chain, product

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sstkit import Budget, BudgetExceededError, Sst  # noqa: E402
from sstkit.analysis import _Analysis, _dumbbell_paths, _pattern_candidates, _UpdatePool  # noqa: E402
from sstkit.model import (  # noqa: E402
    DEFAULT_NODE_BUDGET,
    coreachable_states,
    reachable_states,
    shortest_access_run,
    shortest_exit_run,
)

from helpers import (  # noqa: E402
    FIXTURES,
    draws,
    format_letters,
    main,
    no_variables,
    reference_dumbbell_pairs,
    sweep,
)

LENGTHS = (1, 2, 3)  # component lengths
LIMITS = (30, 400, 3000)  # candidate budgets

# Each tuple in {1,2}^5, lexicographic, at index i, with the ranks of its
# parts: the prefix (n1, n2) and suffix (n3, n4, n5) of the run marked at
# position 2, and the prefix (n1, n2, n3) and suffix (n4, n5) of the one
# marked at 4.  A part's rank among the tuples of its length is its bits of i.
LEAVES = tuple(
    (t, i >> 3, i & 7, i >> 2, i & 3) for i, t in enumerate(product((1, 2), repeat=5))
)


class ReferencePool(_UpdatePool):
    """The update pool, with a path's id found through a memo of every
    path prefix it has interned, and the programs composed here, and the
    divergence test as a walk over all 32 leaves, memoized per
    signature."""

    def __init__(self, sst: Sst):
        super().__init__(sst)
        self._path_ids: dict[tuple, int] = {(): 0}
        self._tuples: dict[tuple, tuple | None] = {}

    def first_divergent_tuple(self, signature: tuple) -> tuple | None:
        """The first divergent tuple of ``signature``, every leaf walked."""
        if signature not in self._tuples:
            alpha, (leg0, leg1, leg2), omega, end_state = signature
            mid_prefixes = self.prefix(alpha, (leg0, leg1))
            mid_suffixes = self.suffix((leg2, leg2, leg2), omega, end_state)
            late_prefixes = self.prefix(alpha, (leg0, leg0, leg0))
            late_suffixes = self.suffix((leg1, leg2), omega, end_state)
            self._tuples[signature] = next(
                (tup for tup, mid_p, mid_s, late_p, late_s in LEAVES
                 if (mid_suffixes[mid_s].format(*mid_prefixes[mid_p])
                     != late_suffixes[late_s].format(*late_prefixes[late_p]))), None)
        return self._tuples[signature]

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


def reference_output(pool: _UpdatePool, signature: tuple, values, mark: int) -> str:
    """The output of the run of ``signature`` marked at ``mark`` (0-based)
    on the loop counts ``values``, each block applied in turn to the
    contents after rho0, then the output read off the rho4 update and the
    final output."""
    alpha, legs, omega, end_state = signature
    contents = pool.prefix(alpha, ())[0]
    for idx, x in enumerate(values):
        leg = 0 if idx < mark else (1 if idx == mark else 2)
        contents = pool.block(legs[leg], x).format(*contents).split(pool.sep)
    return pool.suffix((), omega, end_state)[0].format(*contents)


def check_outputs(pool: _UpdatePool, signature: tuple, tup: tuple) -> None:
    """``pool.outputs`` against ``reference_output`` at every mark, on the
    divergent tuple ``tup`` and on two longer count vectors."""
    for values in (tup, tup + (2,), tup + (3, 1)):
        want = [reference_output(pool, signature, values, mark) for mark in range(len(values))]
        if pool.outputs(signature, values) != want:
            raise AssertionError(f"outputs of {signature} on {values}: the reference gives {want}")


def reference_candidates(pool: ReferencePool, max_len: int, budget: Budget, pairs):
    """Every candidate in the order of ``_pattern_candidates``, repeated
    signatures included, each path's update id interned as the candidate
    is tested, every exit run found before the first candidate; only at
    the (q1, q2) of ``pairs``."""
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
            if (q1, q2) not in pairs:
                continue
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


def searched_candidates(pool: _UpdatePool, max_len: int, budget: Budget):
    """``_pattern_candidates`` over the pairs that the search scans, with
    the update pool ``pool``."""
    context = _Analysis(pool.sst)
    tested = _dumbbell_paths(context, Budget(DEFAULT_NODE_BUDGET))
    return _pattern_candidates(context, pool, max_len, budget, ((q1, q2) for q1, q2, _ in tested))


def skipped_reference(sst: Sst):
    """``reference_candidates`` at the pairs with a dumbbell, found by the
    independent reference search."""
    pairs = reference_dumbbell_pairs(sst, Budget(DEFAULT_NODE_BUDGET))
    return lambda pool, max_len, budget: reference_candidates(pool, max_len, budget, pairs)


def events(generate, pool_class, sst: Sst, max_len: int, limit: int, outputs: bool = False) -> list:
    """Each candidate as (shape, programs named by its signature, its first
    divergent tuple, budget.used), then ("stop" or "end", budget.used).
    With ``outputs``, each candidate with a divergent tuple goes through
    ``check_outputs``."""
    pool, budget = pool_class(sst), Budget(limit)
    programs = pool.programs
    out = []
    try:
        for signature, *shape in generate(pool, max_len, budget):
            alpha, legs, omega, end = signature
            named = (programs[alpha], tuple(tuple(programs[k] for k in leg) for leg in legs),
                     programs[omega], end)
            tup = pool.first_divergent_tuple(signature)
            if outputs and tup is not None:
                check_outputs(pool, signature, tup)
            out.append((shape, named, tup, budget.used))
    except BudgetExceededError:
        return out + [("stop", budget.used)]
    return out + [("end", budget.used)]


def first_occurrences(events_: list) -> list:
    """The events less each candidate whose named programs an earlier
    candidate named."""
    seen: set = set()
    out = []
    for event in events_:
        if len(event) == 4:
            if event[1] in seen:
                continue
            seen.add(event[1])
        out.append(event)
    return out


def check(sst: Sst) -> Counter:
    """The generator and the first occurrences of its reference on the
    grid; raises AssertionError on the first mismatch."""
    outcomes: Counter = Counter()
    reference = skipped_reference(sst)
    for max_len in LENGTHS:
        for limit in LIMITS:
            got = events(searched_candidates, _UpdatePool, sst, max_len, limit, outputs=True)
            want = first_occurrences(events(reference, ReferencePool, sst, max_len, limit))
            if got != want:
                at = next((n for n, (g, w) in enumerate(zip(got, want)) if g != w),
                          min(len(got), len(want)))
                raise AssertionError(
                    f"component length {max_len}, budget {limit}, event {at}: got "
                    f"{got[at:at + 1]}, the reference gives {want[at:at + 1]}")
            outcomes["candidates"] += len(got) - 1
            outcomes["divergent"] += sum(event[2] is not None for event in got[:-1])
            outcomes[got[-1][0]] += 1
    return outcomes


def run(n: int) -> Counter:
    """The outcome counts of ``check`` on the fixtures, the two hand-built
    machines and two seeded draws per seed below ``n``."""
    hand_built = [("no-variables", no_variables), ("format-letters", format_letters)]
    return sweep(FIXTURES + hand_built + draws(range(n)) + draws(range(n), 4, 3), check)


if __name__ == "__main__":
    main(run, 2000)
