"""A slice of the scans' differential sweep (``tests/scan_sweep.py``): each
scan agrees with the walk that builds every frontier on its result, on
whether the budget stops it, and on ``budget.used``."""

from scan_sweep import sweep


def test_scans_match_the_reference_that_builds_every_frontier():
    outcomes = sweep(60)
    # the slice reaches both outcomes
    assert set(outcomes) == {"result", "stop"}
