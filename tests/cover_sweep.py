"""A seeded differential sweep of the semantic cover.

``semantic_cover`` builds each output's cuts and each run's weight table
once, and tags the variable contents a run shares with the run before it
once.  The reference here, ``reference_cover``, is the loop it replaced,
kept verbatim: each run is compared with every earlier run of the same
output, dropped or not, through the public ``delay``, which builds the
cuts and both weight tables again, and each run is grouped by
``run.output``, which tags the run from step 0.  ``check(sst)`` runs both
on every input of length 0 to 4, for each C in ``CS`` and D in ``DS`` and
at a grid of node budgets, and requires the same survivors, as (start,
steps) pairs in the same order, the same ``budget.used``, and the same
stop: the same exception class, at ``budget.used == limit + 1``.

``run(n)`` checks the fixtures and, for s < n, the draws ``random_sst(s)``
and ``random_sst(s, 4, 3)`` of ``tests/helpers.py``.
``tests/test_cover_sweep.py`` runs a slice of it; run the full sweep with

    PYTHONPATH=src python3 tests/cover_sweep.py 1000

which prints the count of each outcome and, through the shared ``sweep``
driver, exits non-zero on the first mismatch, after printing the label of
its machine.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sstkit import (  # noqa: E402
    Budget,
    BudgetExceededError,
    ParameterError,
    Run,
    Sst,
    delay,
    enumerate_runs,
    semantic_cover,
    words_over,
)

from helpers import FIXTURES, draws, main, sweep  # noqa: E402

MAX_LEN = 4
CS = (1, 2, 3)
DS = (-1, 0, 1, 2, 10)
LIMITS = (3, None)  # None: the default budget


def reference_cover(sst: Sst, word: str, C: int, D: int, budget: Budget) -> list[Run]:
    """The semantic cover as one ``delay`` call per pair of runs with equal
    output."""
    if C < 1:
        raise ParameterError("C must be at least 1")
    survivors: list[Run] = []
    # the runs so far of each output, in lexicographic order
    earlier: dict[str, list[Run]] = {}
    for run in enumerate_runs(sst, word, budget):  # found in lexicographic order
        same_output = earlier.setdefault(run.output, [])
        if not any(delay(e, run, C).delay <= D for e in same_output):
            survivors.append(run)
        same_output.append(run)
    return survivors


def outcome(cover, sst: Sst, word: str, C: int, D: int, limit: int | None):
    """(the survivors as (start, steps) pairs, or the class of the exception
    that stopped the cover; budget.used)."""
    budget = Budget() if limit is None else Budget(limit)
    try:
        result = [(run.start, run.steps) for run in cover(sst, word, C, D, budget)]
    except BudgetExceededError as err:
        if budget.used != budget.limit + 1:
            raise AssertionError(f"stopped at {budget.used} units of {budget.limit}") from None
        result = type(err)
    return result, budget.used


def check(sst: Sst) -> Counter:
    """``semantic_cover`` against the reference on every input, C, D and
    budget of the grid; raises AssertionError on the first mismatch.  A
    cover that is not stopped counts as "pruned" when it drops a run and
    as "whole" when it keeps them all."""
    outcomes: Counter = Counter()
    for word in words_over(sst.alphabet, 0, MAX_LEN):
        runs = len(enumerate_runs(sst, word))
        for C in CS:
            for D in DS:
                for limit in LIMITS:
                    got = outcome(semantic_cover, sst, word, C, D, limit)
                    want = outcome(reference_cover, sst, word, C, D, limit)
                    if got != want:
                        raise AssertionError(
                            f"word={word!r} C={C} D={D} budget={limit}: "
                            f"got {got}, the reference gives {want}")
                    if isinstance(got[0], type):
                        outcomes["stop"] += 1
                    else:
                        outcomes["pruned" if len(got[0]) < runs else "whole"] += 1
    return outcomes


def run(n: int) -> Counter:
    """The outcome counts of ``check`` on the fixtures, then two draws per
    seed below ``n``."""
    return sweep(FIXTURES + draws(range(n)) + draws(range(n), 4, 3), check)


if __name__ == "__main__":
    main(run, 1000)
