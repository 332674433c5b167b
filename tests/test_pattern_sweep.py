"""A slice of the W-pattern candidate generator's differential sweep
(``tests/pattern_sweep.py``): the generator that reads update ids off its
triple levels agrees with the one that interns each path through a
path-prefix memo, on every candidate shape, the programs its signature
names, each candidate's first divergent tuple, ``budget.used`` at each
candidate and the stop; and the update pool's marked outputs agree with
the per-mark reference at each candidate with a divergent tuple."""

import sys

import pytest

from sstkit import Budget, BudgetExceededError
from sstkit.analysis import _UpdatePool

from helpers import FIXTURES, draws
from pattern_sweep import (
    ReferencePool,
    events,
    first_occurrences,
    run,
    searched_candidates,
    skipped_reference,
)


def test_candidates_match_the_reference_that_interns_paths():
    outcomes = run(40)
    # the slice yields candidates, divergent ones among them, and reaches
    # both stops
    assert set(outcomes) == {"candidates", "divergent", "end", "stop"}


# At component length 3, each budget runs out strictly inside one bulk
# charge, after candidates were yielded: FIX-R2's at 682 after 4
# candidates, inside a stretch of exit triples that end elsewhere than the
# goal and are charged unread, and at 20,000 after its 12 candidates,
# inside the exits of a station, entry and loop class met before at the
# same (q1, q2), charged unread; the 3-state draw's after 1,576, inside a
# level charged before it is generated.
BULK_STOPS = [
    ("FIX-R2", dict(FIXTURES)["FIX-R2"], 682, "_pattern_candidates"),
    ("FIX-R2-repeated-class", dict(FIXTURES)["FIX-R2"], 20_000, "_pattern_candidates"),
    (*draws([19])[0], 20_000, "level"),
]


@pytest.mark.parametrize("label, make, limit, place", BULK_STOPS,
                         ids=[case[0] for case in BULK_STOPS])
def test_bulk_charges_stop_where_single_charges_do(label, make, limit, place, monkeypatch):
    """A bulk charge that crosses the limit leaves ``budget.used`` at
    limit + 1, as the reference's single charges do, after the same
    candidates at the same ``budget.used``."""
    crossings = []
    charge = Budget.charge

    def recording(budget, amount=1):
        room = budget.limit - budget.used
        try:
            charge(budget, amount)
        except BudgetExceededError:
            crossings.append((sys._getframe(1).f_code.co_name, amount > room + 1))
            raise

    sst = make()
    with monkeypatch.context() as patch:
        patch.setattr(Budget, "charge", recording)
        got = events(searched_candidates, _UpdatePool, sst, 3, limit)
    assert crossings == [(place, True)]
    assert got[-1] == ("stop", limit + 1) and len(got) > 1
    assert got == first_occurrences(events(skipped_reference(sst), ReferencePool, sst, 3, limit))
