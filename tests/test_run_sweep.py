"""A slice of run enumeration's differential sweep (``tests/run_sweep.py``):
``enumerate_runs`` agrees with the brute-force reference that sorts its
runs explicitly, on the runs and their order, on ``budget.used`` and on
the budget stop."""

from run_sweep import sweep


def test_runs_match_the_reference_that_sorts_them():
    outcomes = sweep(40)
    # the slice reaches both outcomes
    assert set(outcomes) == {"runs", "stop"}
