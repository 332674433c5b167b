"""A seeded differential sweep of run enumeration.

``enumerate_runs`` walks the runs of an input depth-first, from the
initial states in state order and along each state's moves in rank order,
and returns them in the order it finds them, which is the canonical order
without a sort.  The reference here, ``reference_runs``, shares nothing
with that walk: it extends every chain of transitions over the input by
brute force, scanning the whole transition list at each position, keeps
the accepting ones and sorts them explicitly by ``Sst.run_sort_key``.  It
charges the budget one unit per start and one per partial run of each
length, as ``enumerate_runs`` documents.  ``check(sst)`` runs both on every
input of length 0 to 5 at a grid of node budgets, and requires the same
runs in the same order, the same ``budget.used``, and the same stop: the
same exception class, at ``budget.used == limit + 1``.  It also requires
``run.end``, read off the last step, to equal ``run.states[-1]`` on every
run it compares; the reference reads only ``states``.

``run(n)`` checks the fixtures and, for s < n, the draws
``random_sst(s)`` and ``random_sst(s, 4, 3)`` of ``tests/helpers.py``,
each also rewritten with its initial states declared in reverse state
order and its first transition declared again at the end (labelled
``reordered random_sst(s)`` and so on).  ``tests/test_run_sweep.py`` runs
a slice of it; run the full sweep with

    PYTHONPATH=src python3 tests/run_sweep.py 2000

which prints the count of each outcome and, through the shared ``sweep``
driver, exits non-zero on the first mismatch, after printing the label of
its machine.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sstkit import Budget, BudgetExceededError, Sst, enumerate_runs, words_over  # noqa: E402

from helpers import FIXTURES, draws, main, sweep  # noqa: E402

MAX_LEN = 5
LIMITS = (1, 2, 5, 20, 200, None)  # None: the default budget


def reference_runs(sst: Sst, word: str, budget: Budget) -> list:
    """The accepting runs on ``word`` by brute force, sorted by
    ``sst.run_sort_key``; charges one unit per start and one per partial
    run of each length."""
    partial = []
    for start in sst.initials:
        budget.charge()
        partial.append(sst.empty_run(start))
    for letter in word:
        longer = []
        for run in partial:
            for i, t in enumerate(sst.transitions):
                if t.source == run.states[-1] and t.letter == letter:
                    budget.charge()
                    longer.append(sst.run(run.start, run.steps + (i,)))
        partial = longer
    return sorted((run for run in partial if run.states[-1] in sst.finals), key=sst.run_sort_key)


def outcome(enumerator, sst: Sst, word: str, limit: int | None):
    """(the runs as (start, steps) pairs, or the class of the exception
    that stopped the enumeration; budget.used)."""
    budget = Budget() if limit is None else Budget(limit)
    try:
        runs = enumerator(sst, word, budget)
        ends = [run.end for run in runs]
        if ends != [run.states[-1] for run in runs]:
            raise AssertionError(f"run ends {ends} differ from their last states")
        result = [(run.start, run.steps) for run in runs]
    except BudgetExceededError as err:
        if budget.used != budget.limit + 1:
            raise AssertionError(f"stopped at {budget.used} units of {budget.limit}") from None
        result = type(err)
    return result, budget.used


def check(sst: Sst) -> Counter:
    """``enumerate_runs`` against the reference on every input and budget of
    the grid; raises AssertionError on the first mismatch."""
    outcomes: Counter = Counter()
    for word in words_over(sst.alphabet, 0, MAX_LEN):
        for limit in LIMITS:
            got = outcome(enumerate_runs, sst, word, limit)
            want = outcome(reference_runs, sst, word, limit)
            if got != want:
                raise AssertionError(
                    f"word={word!r} budget={limit}: got {got}, the reference gives {want}")
            outcomes["stop" if isinstance(got[0], type) else "runs"] += 1
    return outcomes


def reordered(sst: Sst) -> Sst:
    """``sst`` with its initial states declared in reverse state order and
    its first transition, if any, declared again at the end."""
    initials = sorted(sst.initials, key=sst.states.index, reverse=True)
    return Sst(
        sst.alphabet, sst.variables, sst.states, initials, sst.finals,
        sst.final_output, sst.transitions + sst.transitions[:1], sst.initial_assignment,
    )


def run(n: int) -> Counter:
    """The outcome counts of ``check`` on the fixtures, then two draws per
    seed below ``n``, each as drawn and reordered."""
    drawn = draws(range(n)) + draws(range(n), 4, 3)
    rewritten = [(f"reordered {label}", lambda make=make: reordered(make())) for label, make in drawn]
    return sweep(FIXTURES + drawn + rewritten, check)


if __name__ == "__main__":
    main(run, 2000)
