"""A slice of the W-pattern candidate generator's differential sweep
(``tests/pattern_sweep.py``): the generator that reads update ids off its
triple levels agrees with the one that interns each path through a
path-prefix memo, on every candidate shape, the programs its signature
names, ``budget.used`` at each candidate and the stop."""

from pattern_sweep import sweep


def test_candidates_match_the_reference_that_interns_paths():
    outcomes = sweep(40)
    # the slice yields candidates and reaches both stops
    assert set(outcomes) == {"candidates", "end", "stop"}
