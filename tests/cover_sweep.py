"""A seeded differential sweep of the semantic cover.

``semantic_cover`` compares only the least run of each distinct tagged
output, reads these runs off a frontier of tagged configurations, charges
per letter the partial runs one letter longer in one charge, builds each
output's cuts and each compared run's weight table once, and builds a
``Run`` only for a survivor, storing in it the tagged output it read.  The
reference here, ``reference_cover``, is the loop it replaced, kept
verbatim: each run of ``enumerate_runs`` is compared with every earlier
run of the same output, dropped or not, through the public ``delay``,
which builds the cuts and both weight tables again, and each run is
grouped by ``run.output``, which tags the run from step 0.  ``check(sst)``
runs both on every input of length 0 to 4, for each C in ``CS`` and D in
``DS`` and at a grid of node budgets, and requires the same survivors, as
(start, steps) pairs in the same order, each with the tagged output and
output of the reference's run, which tags it from step 0, the same
``budget.used``, and the same stop: the same exception class, at
``budget.used == limit + 1``.
``check_long(sst)`` asks the same on a few longer words, where more runs
repeat an earlier run's tagged output, and on one of them at every limit
up to the units of the whole cover, so that stops fall inside the
charges of several units as well as at their ends.

``run(n)`` checks the fixtures and, for s < n, the draws ``random_sst(s)``
and ``random_sst(s, 4, 3)`` of ``tests/helpers.py``, then runs
``check_long`` on the fixtures.  ``tests/test_cover_sweep.py`` runs a
slice of it; run the full sweep with

    PYTHONPATH=src python3 tests/cover_sweep.py 1000

which prints the count of each outcome and, through the shared ``sweep``
driver, exits non-zero on the first mismatch, after printing the label of
its machine.
"""

from __future__ import annotations

import os
import random
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
LONG_LENGTHS = range(5, 9)
# below D = 0 every run survives, the cover is ``enumerate_runs``'s list,
# and the reference compares every pair of runs with equal output
LONG_DS = tuple(D for D in DS if D >= 0)
GRID_CD = (1, 0)


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


def outcome(cover, sst: Sst, word: str, C: int, D: int, limit: int | Budget | None):
    """(the survivors as (start, steps, tagged output, output) tuples, or
    the class of the exception that stopped the cover; budget.used), under
    ``limit`` or a fresh budget of that limit."""
    budget = limit if isinstance(limit, Budget) else Budget() if limit is None else Budget(limit)
    try:
        result = [(run.start, run.steps, run.annotated_output, run.output)
                  for run in cover(sst, word, C, D, budget)]
    except BudgetExceededError as err:
        if budget.used != budget.limit + 1:
            raise AssertionError(f"stopped at {budget.used} units of {budget.limit}") from None
        result = type(err)
    return result, budget.used


def compare(sst: Sst, word: str, C: int, D: int, limit: int | Budget | None):
    """``semantic_cover``'s outcome, which must be the reference's; the
    reference runs under a plain budget of the same limit."""
    got = outcome(semantic_cover, sst, word, C, D, limit)
    if isinstance(limit, Budget):
        limit = limit.limit
    want = outcome(reference_cover, sst, word, C, D, limit)
    if got != want:
        raise AssertionError(
            f"word={word!r} C={C} D={D} budget={limit}: "
            f"got {got}, the reference gives {want}")
    return got


def check(sst: Sst, words=None, ds=DS, kind: str = "") -> Counter:
    """``semantic_cover`` against the reference on every input of length
    0 to ``MAX_LEN`` (or on ``words``), every C, every D of ``ds`` and
    every budget of the grid; raises AssertionError on the first mismatch.
    A cover that is not stopped counts as "pruned" when it drops a run and
    as "whole" when it keeps them all, each name prefixed by ``kind``."""
    outcomes: Counter = Counter()
    for word in words_over(sst.alphabet, 0, MAX_LEN) if words is None else words:
        runs = len(enumerate_runs(sst, word))
        for C in CS:
            for D in ds:
                for limit in LIMITS:
                    got = compare(sst, word, C, D, limit)
                    if isinstance(got[0], type):
                        outcomes[kind + "stop"] += 1
                    else:
                        outcomes[kind + ("pruned" if len(got[0]) < runs else "whole")] += 1
    return outcomes


class _Recording(Budget):
    """A budget that notes the amount of the charge that stopped it."""

    stopped_by = 0

    def charge(self, amount: int = 1) -> None:
        try:
            super().charge(amount)
        except BudgetExceededError:
            self.stopped_by = amount
            raise


def check_long(sst: Sst) -> Counter:
    """``check`` at ``LONG_DS`` on one word of each length in
    ``LONG_LENGTHS``, drawn by a Random seeded with the machine's summary,
    where more runs repeat an earlier run's tagged output; its outcomes
    are counted as "long pruned", "long whole" and "long stop".  Then the
    shortest of these words at ``GRID_CD`` and at every limit from 0 to
    the units of the whole cover: a stopped limit counts as "bulk-charge
    stop" when the charge that stopped it was of several units, as a
    letter's charge mostly is, else as "limit stop"."""
    rng = random.Random(repr(sst.describe()))
    words = ["".join(rng.choice(sst.alphabet) for _ in range(n)) for n in LONG_LENGTHS]
    outcomes = check(sst, words, LONG_DS, "long ")
    units = Budget()
    enumerate_runs(sst, words[0], units)
    for limit in range(units.used + 1):
        budget = _Recording(limit)
        got = compare(sst, words[0], *GRID_CD, budget)
        if isinstance(got[0], type):
            outcomes["bulk-charge stop" if budget.stopped_by > 1 else "limit stop"] += 1
    return outcomes


def run(n: int) -> Counter:
    """The outcome counts of ``check`` on the fixtures, then two draws per
    seed below ``n``, and of ``check_long`` on the fixtures."""
    return (sweep(FIXTURES + draws(range(n)) + draws(range(n), 4, 3), check)
            + sweep(FIXTURES, check_long))


if __name__ == "__main__":
    main(run, 1000)
