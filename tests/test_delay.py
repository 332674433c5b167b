import random

import pytest

from sstkit import (
    InputMismatchError,
    OutputMismatchError,
    RunProfile,
    SstKitError,
    delay,
    enumerate_runs,
    weight,
    weight_table,
    words_over,
)
from helpers import random_word

# Two runs over a 2-letter input assembling the output "abcccbb" in
# different orders: the first produces abc__bb after one step, the second
# ___c_bb.  Both have produced everything after step two.
LEFTISH = RunProfile(
    (("a", 1), ("b", 1), ("c", 1), ("c", 2), ("c", 2), ("b", 1), ("b", 1)), 2
)
RIGHTISH = RunProfile(
    (("a", 2), ("b", 2), ("c", 2), ("c", 1), ("c", 2), ("b", 1), ("b", 1)), 2
)


def test_weight_worked_example():
    assert weight(LEFTISH, 1, 2) == 2
    assert weight(LEFTISH, 1, 5) == 3
    assert weight(LEFTISH, 1, 7) == 5
    assert weight(RIGHTISH, 1, 2) == 0
    assert weight(RIGHTISH, 1, 5) == 1
    assert weight(RIGHTISH, 1, 7) == 3


def test_weight_extremes(fix_tsc1):
    for run in enumerate_runs(fix_tsc1, "00"):
        total = len(run.annotated_output)
        for j in range(1, total + 1):
            assert weight(run, len(run), j) == j
        init_letters = sum(1 for _, s in run.annotated_output if s == 0)
        assert weight(run, 0, total) == init_letters == 1


def test_weight_and_weight_table_agree(all_fixtures):
    """On every fixture run up to length 5, each entry of the table at every
    output position is ``weight``'s, which counts the letters it names; an
    empty output has no positions and a table of empty rows."""
    empty = 0
    for sst in all_fixtures.values():
        for word in words_over(sst.alphabet, 0, 5):
            for run in enumerate_runs(sst, word):
                annotated, n = run.annotated_output, len(run)
                positions = range(1, len(annotated) + 1)
                table = weight_table(run, positions)
                assert len(table) == n + 1
                empty += not positions
                for t, row in enumerate(table):
                    assert row == tuple(weight(run, t, j) for j in positions)
                    assert row == tuple(sum(step <= t for _, step in annotated[:j]) for j in positions)
    assert empty


def test_weight_range_errors():
    with pytest.raises(ValueError):
        weight(LEFTISH, 3, 1)
    with pytest.raises(ValueError):
        weight(LEFTISH, 1, 0)
    with pytest.raises(ValueError):
        weight(LEFTISH, 1, 8)
    with pytest.raises(SstKitError):
        weight(LEFTISH, 3, 1)


def test_delay_worked_example():
    report = delay(LEFTISH, RIGHTISH, 2)
    assert report.cuts == (2, 5, 7)
    assert report.delay == 2
    assert report.weights1[1] == (2, 3, 5)
    assert report.weights2[1] == (0, 1, 3)
    assert report.weights1[0] == (0, 0, 0)
    assert report.weights1[2] == (2, 5, 7)


def test_delay_reflexive():
    assert delay(LEFTISH, LEFTISH, 2).delay == 0
    assert delay(RIGHTISH, RIGHTISH, 1).delay == 0


def test_delay_tsc_prepend_vs_append(fix_tsc):
    prepend = fix_tsc.run("qA", (0, 0))
    append = fix_tsc.run("qA", (1, 1))
    assert prepend.output == append.output == "00"
    report = delay(prepend, append, 1)
    assert report.cuts == (2,)
    assert report.delay == 0


def test_delay_mismatch_errors(fix_tsc):
    short = fix_tsc.run("qA", (1,))
    long = fix_tsc.run("qA", (1, 1))
    with pytest.raises(InputMismatchError):
        delay(short, long, 1)
    zero = fix_tsc.run("qA", (1, 3))  # outputs 01
    one = fix_tsc.run("qB", (5, 7))   # outputs 10
    assert zero.input == one.input
    with pytest.raises(OutputMismatchError):
        delay(zero, one, 1)


def test_delay_symmetry_and_weight_bounds(fix_tsc, fix_tsc1, fix_amb):
    rng = random.Random(59)
    checked = 0
    for sst in (fix_tsc, fix_tsc1, fix_amb):
        for _ in range(10):
            word = random_word(rng, sst.alphabet, 4)
            runs = enumerate_runs(sst, word)
            by_out = {}
            for r in runs:
                by_out.setdefault(r.output, []).append(r)
            for group in by_out.values():
                if len(group) < 2:
                    continue
                r1, r2 = rng.sample(group, 2)
                C = rng.randint(1, 3)
                rep12 = delay(r1, r2, C)
                rep21 = delay(r2, r1, C)
                assert rep12.delay == rep21.delay
                checked += 1
                total = len(r1.annotated_output)
                prev_row = None
                for t in range(len(r1) + 1):
                    row = [weight(r1, t, j) for j in range(1, total + 1)]
                    assert all(0 <= row[j - 1] <= j for j in range(1, total + 1))
                    assert row == sorted(row)  # monotone in j
                    if prev_row is not None:
                        assert all(a <= b for a, b in zip(prev_row, row))
                    prev_row = row
    assert checked >= 10
