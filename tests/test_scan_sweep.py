"""A slice of the scans' differential sweep (``tests/scan_sweep.py``): each
scan agrees with the walk that builds every frontier it walks, under the
same skip rule, on its result, on whether the budget stops it, and on
``budget.used``; every stop leaves ``budget.used`` at limit + 1; and
wherever the walk that skips nothing returns, the scan returns the same
result at no more units."""

from scan_sweep import run


def test_scans_match_the_reference_that_builds_every_frontier():
    outcomes = run(60)
    # the slice reaches every outcome, a stop that the skip turns into a
    # result included
    assert all(outcomes[k] for k in ("result", "stop", "stop turned result"))
