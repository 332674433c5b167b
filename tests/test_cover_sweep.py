"""A slice of the semantic cover's differential sweep
(``tests/cover_sweep.py``): ``semantic_cover`` agrees with the loop that
calls ``delay`` on every pair of runs with equal output, on the survivors
and their order, on ``budget.used`` and on the budget stop, also where the
stop falls inside the one-step charge for a repeated tagged prefix."""

from cover_sweep import run


def test_cover_matches_the_reference_that_compares_every_pair_by_delay():
    outcomes = run(10)
    # the slice reaches every outcome
    assert set(outcomes) == {"pruned", "stop", "whole", "long pruned", "long stop", "long whole",
                             "limit stop", "skipped-subtree stop"}
