"""A seeded differential sweep of the exhaustive scans.

The scans (``valuedness_oracle``, ``ambiguity_oracle`` and
``check_equivalence_bounded``) measure an input of the longest length from
the frontier of its longest proper prefix, without building the input's own
frontier.  The reference here is the walk that builds every frontier,
``reference_scan`` over ``reference_step``, kept as it stood before the
leaf read.  ``check(sst)`` runs each scan and its reference on a grid of
length ranges and node budgets, and requires the same result, the same
budget stop or none, and the same ``budget.used``.

``run(n)`` checks the fixtures, the ``no_variables`` and
``format_letters`` machines and the draws ``random_sst(s, 4, 3)`` for
s < n, all from ``tests/helpers.py``; each is compared for equivalence
with itself less its last transition.  ``tests/test_scan_sweep.py`` runs
a slice of it; run the full sweep with

    PYTHONPATH=src python3 tests/scan_sweep.py 2000

which prints the count of each outcome and, through the shared ``sweep``
driver, exits non-zero on the first mismatch, after printing the label of
its machine.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from typing import Callable

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sstkit import (  # noqa: E402
    Budget,
    BudgetExceededError,
    Sst,
    SstKitError,
    ambiguity_oracle,
    check_equivalence_bounded,
    valuedness_oracle,
)
from sstkit.model import _final_outputs, _start  # noqa: E402

from helpers import (  # noqa: E402
    FIXTURES,
    draws,
    format_letters,
    main,
    no_variables,
    sweep,
    without_last_transition,
)

LENGTHS = ((0, 0), (0, 3), (1, 4), (2, 2), (3, 5), (1, 6), (4, 3))  # (min_len, max_len)
LIMITS = (5, 40, 300, None)  # None: the default budget


def reference_step(sst: Sst, frontier: dict, letter: str, budget: Budget) -> dict:
    """The frontier one letter further; charges one unit per configuration."""
    budget.charge(len(frontier))
    moves, templates, sep = sst._moves, sst._templates, sst._sep
    a = sst._letter_index[letter]
    return dict.fromkeys([
        (target, tuple(templates[i].format(*values).split(sep)))
        for state, values in frontier
        for i, target in moves[state][a]
    ])


def reference_scan(alphabet, min_len: int, max_len: int, root, step: Callable,
                   measure: Callable, top: int | None = None) -> tuple[int, str | None]:
    """Max of ``measure`` over the frontiers of the inputs u with min_len <=
    |u| <= max_len, plus the first such u reaching it in length-lexicographic
    order, building the frontier of every input."""
    if min_len < 0:
        raise SstKitError(f"min_len must not be negative: {min_len}")
    best, witness = -1, None
    if min_len > max_len:
        return 0, None

    def offer(n: int, word: str) -> None:
        nonlocal best, witness
        if n > best or (n == best and len(word) < len(witness)):
            best, witness = n, word

    def settled(depth: int) -> bool:
        return depth >= max_len or (best == top and depth + 1 >= len(witness))

    path = [("", root, iter(alphabet))]
    if min_len == 0:
        offer(measure(root) if root else 0, "")
    while path:
        word, frontier, letters = path[-1]
        letter = next(letters, None)
        if letter is None or not frontier or settled(len(word)):
            if not frontier and alphabet and len(word) < min_len:
                offer(0, word + alphabet[0] * (min_len - len(word)))
            path.pop()
            continue
        word += letter
        frontier = step(frontier, letter)
        if len(word) >= min_len:
            offer(measure(frontier) if frontier else 0, word)
        path.append((word, frontier, iter(alphabet)))
    return (0, None) if best < 0 else (best, witness)


def reference_valuedness(sst: Sst, max_len: int, b: Budget, min_len: int):
    return reference_scan(
        sst.alphabet, min_len, max_len, _start(sst),
        lambda frontier, letter: reference_step(sst, frontier, letter, b),
        lambda frontier: len(_final_outputs(sst, frontier)),
    )


def reference_ambiguity(sst: Sst, max_len: int, b: Budget, min_len: int):
    moves, finals = sst._moves, sst.finals

    def step(counts, letter):
        b.charge(len(counts))
        a = sst._letter_index[letter]
        fresh: dict[str, int] = {}
        for state, n in counts.items():
            for _, target in moves[state][a]:
                fresh[target] = fresh.get(target, 0) + n
        return fresh

    return reference_scan(
        sst.alphabet, min_len, max_len, dict.fromkeys(sst.initials, 1), step,
        lambda counts: sum(n for state, n in counts.items() if state in finals),
    )


def reference_equivalence(a: Sst, b: Sst, max_len: int, shared: Budget, min_len: int):
    def step(pair, letter):
        fa = reference_step(a, pair[0], letter, shared)
        fb = reference_step(b, pair[1], letter, shared)
        return (fa, fb) if fa or fb else ()

    def differs(pair) -> int:
        return int(_final_outputs(a, pair[0]).keys() != _final_outputs(b, pair[1]).keys())

    found, witness = reference_scan(
        a.alphabet, min_len, max_len, (_start(a), _start(b)), step, differs, top=1)
    return witness if found else None


def outcome(scan: Callable, args: tuple, limit: int | None, min_len: int, max_len: int):
    """(result or "stop", budget.used) of one scan."""
    budget = Budget() if limit is None else Budget(limit)
    try:
        result = scan(*args, max_len, budget, min_len=min_len)
    except BudgetExceededError:
        result = "stop"
    return result, budget.used


def check(sst: Sst) -> Counter:
    """Every scan of ``sst`` on the grid against its reference; raises
    AssertionError on the first mismatch."""
    other = without_last_transition(sst)
    pairs = (
        (valuedness_oracle, reference_valuedness, (sst,)),
        (ambiguity_oracle, reference_ambiguity, (sst,)),
        (check_equivalence_bounded, reference_equivalence, (sst, other)),
    )
    outcomes: Counter = Counter()
    for scan, reference, args in pairs:
        for min_len, max_len in LENGTHS:
            for limit in LIMITS:
                got = outcome(scan, args, limit, min_len, max_len)
                want = outcome(reference, args, limit, min_len, max_len)
                if got != want:
                    raise AssertionError(
                        f"{scan.__name__} min_len={min_len} max_len={max_len} budget={limit}: "
                        f"got {got}, the reference gives {want}")
                outcomes["stop" if got[0] == "stop" else "result"] += 1
    return outcomes


def run(n: int) -> Counter:
    """The outcome counts of ``check`` on the fixtures, the two hand-built
    machines and ``n`` seeded draws."""
    hand_built = [("no-variables", no_variables), ("format-letters", format_letters)]
    return sweep(FIXTURES + hand_built + draws(range(n), 4, 3), check)


if __name__ == "__main__":
    main(run, 2000)
