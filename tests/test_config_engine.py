"""The configuration frontiers against brute force over enumerated runs.

``outputs``, ``ranked_outputs``, both oracles and ``check_equivalence_bounded``
answer from frontiers of distinct configurations; the brute-force versions
here derive the same answers from ``enumerate_runs`` word by word.
"""

from __future__ import annotations

import gc
import random
import weakref
from functools import lru_cache

import pytest

from sstkit import (
    Budget,
    BudgetExceededError,
    ParameterError,
    SearchBudget,
    Sst,
    SstKitError,
    Transition,
    Update,
    ambiguity_oracle,
    amplify_valuedness,
    analyze_valuedness,
    check_equivalence_bounded,
    enumerate_runs,
    fixtures,
    outputs,
    parse_sst,
    ranked_outputs,
    valuedness_oracle,
    words_over,
)
from sstkit import decompose, model
from sstkit.cli import main

from helpers import format_letters, no_variables, random_sst, without_last_transition
from regen_golden import VALUEDNESS_BUDGET

MAX_LEN = 6
SEEDS = range(40)


@lru_cache(maxsize=None)
def brute(sst: Sst, word: str) -> tuple[list[str], int]:
    """Distinct outputs in the order of their least runs, and the run count."""
    runs = enumerate_runs(sst, word)
    return list(dict.fromkeys(run.output for run in runs)), len(runs)


def brute_outputs(sst: Sst, word: str) -> set[str]:
    return set(brute(sst, word)[0])


def brute_ranked(sst: Sst, word: str) -> list[str]:
    return brute(sst, word)[0]


def brute_extremal(sst: Sst, measure, max_len: int, min_len: int):
    best, witness = -1, None
    for u in words_over(sst.alphabet, min_len, max_len):
        n = measure(sst, u)
        if n > best:
            best, witness = n, u
    return (0, None) if best < 0 else (best, witness)


def brute_equivalence(a: Sst, b: Sst, max_len: int, min_len: int):
    for u in words_over(a.alphabet, min_len, max_len):
        if brute_outputs(a, u) != brute_outputs(b, u):
            return u
    return None


def two_initials() -> Sst:
    """Initial states declared against state order, each with its own output
    on the empty input: the empty runs are ordered by start-state index."""
    ident = Update.identity(("X",))
    return Sst(
        alphabet=("a",), variables=("X",), states=("p", "q"),
        initials=("q", "p"), finals=("p", "q"),
        final_output={"p": ("a", "X"), "q": ("X",)},
        transitions=(Transition("q", "a", ident, "q"),
                     Transition("p", "a", Update.make(("X",), {"X": ("X", "a")}), "p")),
    )


MACHINES = {name: fixtures.load(name) for name in fixtures.names()}
MACHINES["two-initials"] = two_initials()
MACHINES["no-variables"] = no_variables()
MACHINES["format-letters"] = format_letters()
MACHINES.update({f"random{s}": random_sst(random.Random(s)) for s in SEEDS})
TRIMMED = {name: without_last_transition(sst) for name, sst in MACHINES.items()}


@pytest.mark.parametrize("name", list(MACHINES))
def test_outputs_and_ranking_match_runs(name):
    sst = MACHINES[name]
    for u in words_over(sst.alphabet, 0, MAX_LEN):
        assert outputs(sst, u) == brute_outputs(sst, u), u
        assert ranked_outputs(sst, u) == brute_ranked(sst, u), u


@pytest.mark.parametrize("name", list(MACHINES))
def test_oracles_match_runs(name):
    sst = MACHINES[name]
    for min_len in (0, 1, 3):
        assert valuedness_oracle(sst, MAX_LEN, min_len=min_len) == brute_extremal(
            sst, lambda m, u: len(brute_outputs(m, u)), MAX_LEN, min_len)
        assert ambiguity_oracle(sst, MAX_LEN, min_len=min_len) == brute_extremal(
            sst, lambda m, u: brute(m, u)[1], MAX_LEN, min_len)


def equivalence_pairs():
    pairs = [("FIX-TSC", "FIX-TSC1"), ("FIX-TSC", "FIX-R2"), ("FIX-ID", "FIX-AMB"),
             ("FIX-TSC", "FIX-TSC")]
    for name in ("no-variables", "format-letters"):
        pairs += [(name, name), (name, "minus-last")]
    for s in SEEDS:
        pairs += [(f"random{s}", f"random{s}"), (f"random{s}", f"random{(s + 1) % len(SEEDS)}"),
                  (f"random{s}", "minus-last")]
    return pairs


@pytest.mark.parametrize("left, right", equivalence_pairs())
def test_equivalence_matches_runs(left, right):
    a = MACHINES[left]
    b = TRIMMED[left] if right == "minus-last" else MACHINES[right]
    for min_len in (0, 1):
        assert check_equivalence_bounded(a, b, MAX_LEN, min_len=min_len) == brute_equivalence(
            a, b, MAX_LEN, min_len)


def test_empty_input_ranked_by_start_state():
    sst = two_initials()
    assert ranked_outputs(sst, "") == ["a", ""]
    assert brute_ranked(sst, "") == ["a", ""]


def test_scan_past_the_recursion_limit():
    # the scans keep their prefix path on an explicit stack
    sst = two_initials()
    assert valuedness_oracle(sst, 2_000) == (2, "a")
    assert ambiguity_oracle(sst, 2_000) == (2, "a")


def test_enumerate_runs_past_the_recursion_limit(tmp_path, capsys):
    # run enumeration keeps its partial run on an explicit stack as well
    word = "a" * 5000
    runs = enumerate_runs(fixtures.load("FIX-ID"), word)
    assert len(runs) == 1 and runs[0].output == word
    doc = tmp_path / "fix_id.sst"
    doc.write_text(fixtures.source("FIX-ID"))
    assert main(["runs", str(doc), "--input", word]) == 0
    assert "accepting runs: 1" in capsys.readouterr().out


def test_enumerate_runs_charges_one_unit_per_partial_run():
    # FIX-AMB has two runs on every word: a^n has 2^k partial runs of length k
    sst = fixtures.load("FIX-AMB")
    for n in range(11):
        budget = Budget()
        enumerate_runs(sst, "a" * n, budget)
        assert budget.used == 2 ** (n + 1) - 1, n


def test_empty_length_range():
    no_initials = Sst(("a",), ("X",), ("p",), (), (), {}, ())
    for sst in (no_initials, two_initials()):
        assert valuedness_oracle(sst, 2, min_len=3) == (0, None)
        assert ambiguity_oracle(sst, 2, min_len=3) == (0, None)
        assert check_equivalence_bounded(sst, no_initials, 2, min_len=3) is None
    assert valuedness_oracle(no_initials, 2, min_len=1) == (0, "a")
    assert check_equivalence_bounded(two_initials(), no_initials, 2, min_len=1) == "a"


def test_negative_min_len_is_an_error():
    """A negative ``min_len`` is refused, not read as 0 less the empty
    input: with ``min_len=0`` the empty input is FIX-TSC's most ambiguous."""
    sst = fixtures.load("FIX-TSC")
    assert ambiguity_oracle(sst, 0, min_len=0) == (2, "")
    for scan in (lambda: ambiguity_oracle(sst, 0, min_len=-1),
                 lambda: valuedness_oracle(sst, 1, min_len=-1),
                 lambda: check_equivalence_bounded(sst, sst, 1, min_len=-1),
                 lambda: list(words_over(sst.alphabet, -1, 1))):
        with pytest.raises(SstKitError, match="min_len must not be negative: -1"):
            scan()


def test_negative_min_len_is_a_parameter_error():
    """A negative ``min_len`` is a bad argument, as a bad ``Budget`` limit is."""
    sst = fixtures.load("FIX-TSC")
    for scan in (lambda: ambiguity_oracle(sst, 0, min_len=-1),
                 lambda: valuedness_oracle(sst, 1, min_len=-1),
                 lambda: check_equivalence_bounded(sst, sst, 1, min_len=-1),
                 lambda: list(words_over(sst.alphabet, -1, 1))):
        with pytest.raises(ParameterError, match="min_len must not be negative: -1"):
            scan()


def test_unknown_input_letter():
    sst = fixtures.load("FIX-TSC")
    with pytest.raises(ParameterError):
        outputs(sst, "012")
    with pytest.raises(ParameterError):
        ranked_outputs(sst, "0x")


@pytest.mark.parametrize("query", [outputs, ranked_outputs])
@pytest.mark.parametrize("word", ["x", "0x", "00x", "x00", "0x0"])
def test_unknown_input_letter_raises_before_any_charge(query, word):
    # the last letter is read off the composed final templates: a foreign
    # one, or one anywhere else, is still refused before the budget moves
    budget = Budget(0)
    with pytest.raises(ParameterError, match="input letter 'x' is not in the alphabet"):
        query(fixtures.load("FIX-TSC"), word, budget)
    assert budget.used == 0


# budget.used of outputs and ranked_outputs on the word that cycles through
# the alphabet, at lengths 0, 1, 3 and 6
OUTPUT_QUERY_CHARGES = {
    "FIX-ID": (0, 1, 3, 6),
    "FIX-AMB": (0, 1, 6, 21),
    "FIX-TSC": (0, 2, 6, 12),
    "FIX-TSC1": (0, 2, 10, 30),
    "FIX-R2": (0, 1, 5, 13),
}


@pytest.mark.parametrize("query", [outputs, ranked_outputs])
@pytest.mark.parametrize("name", sorted(OUTPUT_QUERY_CHARGES))
def test_output_queries_charge_one_unit_per_configuration_and_letter(query, name):
    sst = fixtures.load(name)
    used = []
    for n in (0, 1, 3, 6):
        budget = Budget()
        query(sst, "".join(sst.alphabet[i % len(sst.alphabet)] for i in range(n)), budget)
        used.append(budget.used)
    assert tuple(used) == OUTPUT_QUERY_CHARGES[name]


# budget.used of valuedness_oracle, ambiguity_oracle and
# check_equivalence_bounded (each fixture against itself) at max_len 1, 3, 5,
# as tests/scan_sweep.py's reference gives them: a prefix whose frontier the
# walk holds is not walked
SCAN_CHARGES = {
    "FIX-ID": ((1, 1, 2), (3, 2, 6), (5, 2, 10)),
    "FIX-AMB": ((1, 1, 2), (6, 3, 12), (15, 5, 30)),
    "FIX-TSC": ((4, 4, 8), (28, 12, 56), (124, 20, 248)),
    "FIX-TSC1": ((4, 4, 8), (48, 12, 96), (320, 20, 640)),
    "FIX-R2": ((2, 2, 4), (26, 10, 52), (146, 20, 324)),
}


@pytest.mark.parametrize("name", sorted(SCAN_CHARGES))
def test_scans_charge_one_unit_per_configuration_and_letter(name):
    sst = fixtures.load(name)
    scans = (
        lambda n, b: valuedness_oracle(sst, n, b),
        lambda n, b: ambiguity_oracle(sst, n, b),
        lambda n, b: check_equivalence_bounded(sst, sst, n, b),
    )
    used = []
    for n in (1, 3, 5):
        row = []
        for scan in scans:
            budget = Budget()
            scan(n, budget)
            row.append(budget.used)
        used.append(tuple(row))
    assert tuple(used) == SCAN_CHARGES[name]


def test_tiny_budget_raises():
    tsc = fixtures.load("FIX-TSC")
    calls = [
        lambda b: outputs(tsc, "000000", b),
        lambda b: ranked_outputs(tsc, "000000", b),
        lambda b: valuedness_oracle(tsc, 6, b),
        lambda b: ambiguity_oracle(tsc, 6, b),
        lambda b: check_equivalence_bounded(tsc, fixtures.load("FIX-TSC"), 6, b),
    ]
    for call in calls:
        with pytest.raises(BudgetExceededError):
            call(3)
        call(10_000)


@pytest.mark.parametrize("limit", [0, 3, 20, 101])
def test_every_stop_leaves_used_one_past_the_limit(limit):
    """The queries charge a whole frontier at a time, yet each stops with
    ``budget.used`` at limit + 1, as one charge per configuration would.
    FIX-TSC's run counts repeat across siblings, so its ambiguity scan
    charges 4 units per length: at max_len 30 it needs 120."""
    tsc, word = fixtures.load("FIX-TSC"), "0" * 60
    calls = [
        lambda b: outputs(tsc, word, b),
        lambda b: ranked_outputs(tsc, word, b),
        lambda b: valuedness_oracle(tsc, 6, b),
        lambda b: ambiguity_oracle(tsc, 30, b),
        lambda b: check_equivalence_bounded(tsc, fixtures.load("FIX-TSC"), 6, b),
    ]
    for call in calls:
        budget = Budget(limit)
        with pytest.raises(BudgetExceededError):
            call(budget)
        assert budget.used == limit + 1


def test_a_held_frontier_is_not_walked_again():
    """A prefix whose frontier the walk holds is neither measured nor
    extended.  FIX-TSC1's run counts repeat across siblings, and FIX-R2's
    configurations repeat once a block is copied; the walk that skips
    nothing charges 16,380 and 72,802 units here."""
    budget = Budget()
    assert ambiguity_oracle(fixtures.load("FIX-TSC1"), 12, budget) == (4096 * 2, "0" * 12)
    assert budget.used == 48
    budget = Budget()
    assert valuedness_oracle(fixtures.load("FIX-R2"), 13, budget) == (4, "00011011")
    assert budget.used == 1_826


def test_equivalence_does_not_skip_below_an_ancestor_with_its_key():
    """Below "a" on this pair, "a" leaves both frontiers as they are.  The
    walk that skips nothing meets a difference below "aa" first and cuts
    every longer input by it, at 96 units; skipping "aa" for its ancestor's
    key would walk all of "ab"'s subtree before "ac" (8,200 units)."""
    text = """\
alphabet: a b e c
vars: X
states: p q r
initial: p
final q -> X
final r -> X
trans p a q { X := X }
trans q a q { X := X }
trans q b r { X := X b }
trans r b r { X := X b }
trans r e r { X := X e }
trans q c q { X := X %s }
"""
    budget = Budget()
    assert check_equivalence_bounded(
        parse_sst(text % "c"), parse_sst(text % "c c"), 12, budget) == "ac"
    assert budget.used == 96


@pytest.mark.parametrize("name", ["FIX-TSC", "FIX-R2", "FIX-AMB"])
def test_scans_hold_at_most_one_key_per_letter_at_each_depth(name, monkeypatch):
    """The keys a scan holds are dropped as the walk pops their depth: at
    most len(alphabet) per depth held, plus one per depth on the path and
    the child being looked at.  A memo of every frontier the walk met would
    keep the keys of finished subtrees too, one per distinct frontier."""
    live = [0, 0]  # keys alive now, most keys alive at once

    class Counted:
        def __init__(self, k):
            self.k = k
            live[0] += 1
            live[1] = max(live)

        def __del__(self):
            live[0] -= 1

        def __hash__(self):
            return hash(self.k)

        def __eq__(self, other):
            return self.k == other.k

    def counting(scan):
        def wrapped(*args, **kwargs):
            *front, key = args
            return scan(*front, lambda frontier: Counted(key(frontier)), **kwargs)
        return wrapped

    monkeypatch.setattr(model, "_scan", counting(model._scan))
    monkeypatch.setattr(decompose, "_scan", counting(decompose._scan))
    sst, max_len = fixtures.load(name), 12
    for scan in (
        lambda: valuedness_oracle(sst, max_len),
        lambda: ambiguity_oracle(sst, max_len),
        lambda: check_equivalence_bounded(sst, sst, max_len),
    ):
        live[1] = 0
        scan()
        assert live == [0, live[1]] and 0 < live[1] <= max_len * (len(sst.alphabet) + 1)


def test_sst_is_freed_without_the_cycle_collector():
    """A machine taken through every evaluator is freed by reference counting
    alone: nothing it owns or caches refers back to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for name in fixtures.names():
            sst = fixtures.load(name)
            word = sst.alphabet[0] * 3
            runs = enumerate_runs(sst, word)
            results = [
                outputs(sst, word), [run.output for run in runs],
                valuedness_oracle(sst, 3), ambiguity_oracle(sst, 3),
                check_equivalence_bounded(sst, sst, 3), ranked_outputs(sst, word),
            ]
            verdict = analyze_valuedness(sst, SearchBudget(**VALUEDNESS_BUDGET))
            if verdict.kind == "Infinite":
                results.append(amplify_valuedness(sst, verdict.witness, 3))
            ref = weakref.ref(sst)
            del sst, runs, results, verdict
            assert ref() is None, name
    finally:
        if enabled:
            gc.enable()
