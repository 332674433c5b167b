import dataclasses

import pytest

import sstkit
from sstkit import (
    Budget,
    ParameterError,
    RunError,
    SearchBudget,
    SstKitError,
    WPattern,
    amplify_valuedness,
    analyze_valuedness,
    build_wrun,
    find_dumbbell,
    is_finite_ambiguous,
    is_simply_divergent,
    outputs,
    parse_sst,
    valuedness_oracle,
)
from sstkit.analysis import _UpdatePool, _confirm_divergence

from helpers import SWAP_DOC
from regen_golden import VALUEDNESS_BUDGET, machines

EXPECT_FINITE_AMBIGUOUS = {
    "FIX-ID": True,
    "FIX-AMB": False,
    "FIX-TSC": False,
    "FIX-TSC1": False,
    "FIX-R2": False,
}

SMALL = SearchBudget(component_length=2, candidates=3000, oracle_max_len=6)


def test_dumbbell_judgements(all_fixtures):
    for name, sst in all_fixtures.items():
        dumbbell = find_dumbbell(sst)
        assert (dumbbell is None) == EXPECT_FINITE_AMBIGUOUS[name], name
        if dumbbell is not None:
            dumbbell.verify(sst)


def test_dumbbell_fix_amb_shape(fix_amb):
    d = find_dumbbell(fix_amb)
    assert d.q1 == d.q2 == "q"
    assert d.rho1.input == d.rho2.input == d.rho3.input == "a"
    assert len({d.rho1.steps, d.rho2.steps, d.rho3.steps}) >= 2


def test_is_finite_ambiguous(all_fixtures):
    for name, sst in all_fixtures.items():
        assert is_finite_ambiguous(sst) == EXPECT_FINITE_AMBIGUOUS[name], name


# -- W-patterns -------------------------------------------------------------------


def amb_pattern(fix_amb, loop_steps):
    """FIX-AMB pattern with empty entries/exits and the given loop bodies;
    transition 0 appends an 'a', transition 1 keeps the variable."""
    empty = fix_amb.empty_run("q")
    loops = tuple(fix_amb.run("q", (step,)) for step in loop_steps)
    pattern = WPattern(
        q1="q", q2="q", r1="q", r2="q", r3="q",
        rho0=empty, rho4=empty,
        entries=(empty, empty, empty),
        loops=loops,
        exits=(empty, empty, empty),
    )
    pattern.verify(fix_amb)
    return pattern


def test_build_wrun_collapse_with_empty_loops(fix_amb):
    empty = fix_amb.empty_run("q")
    entries = tuple(fix_amb.run("q", (0,)) for _ in range(3))
    exits = tuple(fix_amb.run("q", (1,)) for _ in range(3))
    pattern = WPattern(
        q1="q", q2="q", r1="q", r2="q", r3="q",
        rho0=empty, rho4=empty,
        entries=entries, loops=(empty, empty, empty), exits=exits,
    )
    pattern.verify(fix_amb)
    run = build_wrun(fix_amb, pattern, (1, 1, 1), mark=1)
    assert run.steps == (0, 1, 0, 1, 0, 1)  # entry/exit pairs, loops contribute nothing


def test_build_wrun_marked_sequences(fix_amb):
    pattern = amb_pattern(fix_amb, (1, 0, 1))  # skip / append / skip
    run = build_wrun(fix_amb, pattern, (1, 2, 1), mark=1)
    assert run.input == "aaaa"
    assert run.output == "aa"
    run2 = build_wrun(fix_amb, pattern, (2, 1, 1), mark=1)
    assert run2.input == "aaaa"
    assert run2.output == "a"


def test_build_wrun_input_independent_of_mark(fix_amb):
    pattern = amb_pattern(fix_amb, (1, 0, 1))
    values = (2, 1, 3, 1, 2)
    inputs = {build_wrun(fix_amb, pattern, values, mark).input for mark in range(5)}
    assert len(inputs) == 1
    outputs_ = [build_wrun(fix_amb, pattern, values, mark).output for mark in range(5)]
    assert outputs_ == ["a" * values[m] for m in range(5)]


def test_build_wrun_rejects_bad_marks(fix_amb):
    pattern = amb_pattern(fix_amb, (1, 0, 1))
    with pytest.raises(RunError):
        build_wrun(fix_amb, pattern, (1, 1), mark=2)
    with pytest.raises(RunError):
        build_wrun(fix_amb, pattern, (1, 0, 1), mark=1)


def test_is_simply_divergent_fix_amb(fix_amb):
    pattern = amb_pattern(fix_amb, (1, 0, 1))
    assert is_simply_divergent(fix_amb, pattern) == (1, 1, 1, 2, 1)


def test_is_simply_divergent_long_access_and_exit_runs(fix_amb):
    """Update ids of long runs are folded step by step, not by recursion:
    access and exit runs far longer than Python's recursion limit are
    tested like short ones."""
    pattern = dataclasses.replace(amb_pattern(fix_amb, (1, 0, 1)),
                                  rho0=fix_amb.run("q", (1,) * 2000),
                                  rho4=fix_amb.run("q", (0,) * 2000))
    pattern.verify(fix_amb)
    assert is_simply_divergent(fix_amb, pattern) == (1, 1, 1, 2, 1)


def test_is_simply_divergent_uniform_pattern(fix_amb):
    pattern = amb_pattern(fix_amb, (0, 0, 0))
    assert is_simply_divergent(fix_amb, pattern) is None


def test_wpattern_verify_rejects_broken_chain(fix_tsc):
    empty_a = fix_tsc.empty_run("qA")
    empty_b = fix_tsc.empty_run("qB")
    pattern = WPattern(
        q1="qA", q2="qB", r1="qA", r2="qA", r3="qB",
        rho0=empty_a, rho4=empty_b,
        entries=(empty_a, empty_a, empty_b),
        loops=(empty_a, empty_b, empty_b),  # loop 2 sits at the wrong state
        exits=(empty_a, empty_a, empty_b),
    )
    with pytest.raises(Exception):
        pattern.verify(fix_tsc)


# -- broken witnesses ---------------------------------------------------------------

# the swap machine with a second, appending transition on the same letter:
# transition 0 swaps X1 and X2, transition 1 appends an 'a' to X1
SWAP_APPEND = SWAP_DOC + "trans q a q { X1 := X1 a ; X2 := X2 }\n"


def machine(label):
    return parse_sst(SWAP_APPEND) if label == "swap" else sstkit.fixtures.load(label)


# (machine, field, its broken value from the machine and the real witness,
# the message).  FIX-R2's dumbbell runs s0 -> s0, s0 -> d0 and d0 -> d0
# over "00"; FIX-AMB's has rho1 = rho2 = (0,) and rho3 = (1,); the swap
# machine's has rho1 = rho2 = (0, 0) and rho3 = (1, 1).
BROKEN_DUMBBELLS = [
    ("FIX-R2", "rho0", lambda sst, d: sst.empty_run("s1"),
     "dumbbell access run does not start in an initial state"),
    ("FIX-R2", "rho0", lambda sst, d: sst.run("s0", (0,)),
     "dumbbell access run does not reach q1"),
    ("FIX-R2", "rho1", lambda sst, d: d.rho2, "rho1 should go 's0' -> 's0', goes 's0' -> 'd0'"),
    ("FIX-R2", "rho2", lambda sst, d: d.rho1, "rho2 should go 's0' -> 'd0', goes 's0' -> 's0'"),
    ("FIX-R2", "rho3", lambda sst, d: d.rho1, "rho3 should go 'd0' -> 'd0', goes 's0' -> 's0'"),
    ("FIX-R2", "rho1", lambda sst, d: sst.run("s0", (1, 4)),
     "dumbbell middle runs consume different inputs"),
    ("swap", "rho1", lambda sst, d: sst.run("q", (0, 1)),
     "dumbbell rho1 is not a loop (skeleton not idempotent)"),
    ("swap", "rho3", lambda sst, d: sst.run("q", (1, 0)),
     "dumbbell rho3 is not a loop (skeleton not idempotent)"),
    ("FIX-AMB", "rho3", lambda sst, d: d.rho1, "dumbbell requires at least two distinct middle runs"),
    ("FIX-R2", "rho4", lambda sst, d: sst.empty_run("d1"), "dumbbell exit run does not start at q2"),
    ("FIX-R2", "rho4", lambda sst, d: sst.run("d0", (8,)),
     "dumbbell exit run does not reach a final state"),
]


@pytest.mark.parametrize("label, name, broken, message", BROKEN_DUMBBELLS,
                         ids=[f"{c[0]}-{c[1]}-{k}" for k, c in enumerate(BROKEN_DUMBBELLS)])
def test_dumbbell_verify_rejects_each_broken_field(label, name, broken, message):
    sst = machine(label)
    dumbbell = find_dumbbell(sst)
    dumbbell.verify(sst)
    with pytest.raises(SstKitError) as err:
        dataclasses.replace(dumbbell, **{name: broken(sst, dumbbell)}).verify(sst)
    assert str(err.value) == message


def small_witness(sst):
    return analyze_valuedness(sst, SMALL).witness


# FIX-TSC1's W-pattern sits at qA with empty entries and loops and the exits
# (0,), (0,) and (1,) over "0"; the swap machine's has the exits (0, 0),
# (0, 0) and (1, 1) over "aa"
BROKEN_PATTERNS = [
    ("FIX-TSC1", "rho0", lambda sst, p: sst.empty_run("qB"), "W-pattern access run must go initial -> q1"),
    ("FIX-TSC1", "rho4", lambda sst, p: sst.empty_run("qB"), "W-pattern exit run must go q2 -> final"),
    ("FIX-TSC1", "entries", lambda sst, p: (p.entries[0], sst.empty_run("qB"), p.entries[2]),
     "entry 2 should go 'qA' -> 'qA', goes 'qB' -> 'qB'"),
    ("FIX-TSC1", "loops", lambda sst, p: (p.loops[0], p.loops[1], sst.empty_run("qB")),
     "loop 3 should go 'qA' -> 'qA', goes 'qB' -> 'qB'"),
    ("FIX-TSC1", "exits", lambda sst, p: (sst.run("qB", (4,)), p.exits[1], p.exits[2]),
     "exit 1 should go 'qA' -> 'qA', goes 'qB' -> 'qB'"),
    ("FIX-TSC1", "loops", lambda sst, p: (sst.run("qA", (0,)), sst.run("qA", (2,)), sst.run("qA", (0,))),
     "W-pattern loop runs consume different inputs"),
    ("FIX-TSC1", "exits", lambda sst, p: (p.exits[0], p.exits[1], sst.run("qA", (2,))),
     "W-pattern exit runs consume different inputs"),
    ("swap", "loops", lambda sst, p: (sst.run("q", (0,)), sst.run("q", (1,)), sst.run("q", (1,))),
     "W-pattern loop 1 has no idempotent skeleton"),
    ("swap", "entries", lambda sst, p: (sst.run("q", (0,)),) * 3,
     "W-pattern composite 1 has no idempotent skeleton"),
]


@pytest.mark.parametrize("label, name, broken, message", BROKEN_PATTERNS,
                         ids=[f"{c[0]}-{c[1]}-{k}" for k, c in enumerate(BROKEN_PATTERNS)])
def test_wpattern_verify_rejects_each_broken_field(label, name, broken, message):
    sst = machine(label)
    pattern = small_witness(sst).pattern
    pattern.verify(sst)
    with pytest.raises(SstKitError) as err:
        dataclasses.replace(pattern, **{name: broken(sst, pattern)}).verify(sst)
    assert str(err.value) == message


def tsc_pattern(fix_tsc, loop_steps):
    """A FIX-TSC pattern at qA with empty entries and exits and the given
    loop bodies over "0"; transition 0 prepends and transition 1 appends
    a 0 to X0, so every marked run has the same output."""
    empty = fix_tsc.empty_run("qA")
    return WPattern(
        q1="qA", q2="qA", r1="qA", r2="qA", r3="qA", rho0=empty, rho4=empty,
        entries=(empty,) * 3, loops=tuple(fix_tsc.run("qA", (i,)) for i in loop_steps),
        exits=(empty,) * 3,
    )


def test_is_simply_divergent_rejects_distinct_legs_with_equal_outputs(fix_tsc):
    pattern = tsc_pattern(fix_tsc, (0, 1, 0))
    pattern.verify(fix_tsc)
    legs = _UpdatePool(fix_tsc).signature(pattern)[1]
    assert legs[0] != legs[1]
    assert is_simply_divergent(fix_tsc, pattern) is None


DIVERGENCE_CHECKS = [
    ("different-inputs", "FIX-TSC1",
     lambda sst: _confirm_divergence(sst, dataclasses.replace(
         small_witness(sst).pattern, entries=(sst.run("qA", (0,)),) + (sst.empty_run("qA"),) * 2),
         (1, 1, 1, 1, 1)),
     "marked runs consumed different inputs; pattern is broken"),
    ("equal-outputs", "FIX-TSC",
     lambda sst: _confirm_divergence(sst, tsc_pattern(sst, (0, 1, 0)), (1, 1, 1, 1, 1)),
     "evaluator disagrees with update composition on a witness"),
    ("empty-sequence", "FIX-TSC1",
     lambda sst: build_wrun(sst, small_witness(sst).pattern, (), 0),
     "marked sequence must be non-empty"),
]


@pytest.mark.parametrize("label, check, message", [c[1:] for c in DIVERGENCE_CHECKS],
                         ids=[c[0] for c in DIVERGENCE_CHECKS])
def test_divergence_checks_reject_broken_witnesses(label, check, message):
    with pytest.raises(SstKitError) as err:
        check(sstkit.fixtures.load(label))
    assert str(err.value) == message


# -- the analyzer -----------------------------------------------------------------


def test_analyze_fix_id_finite(fix_id):
    verdict = analyze_valuedness(fix_id)
    assert verdict.kind == "Finite"
    assert verdict.witness is None


def test_analyze_fix_tsc1_infinite(fix_tsc1):
    verdict = analyze_valuedness(fix_tsc1)
    assert verdict.kind == "Infinite"
    w = verdict.witness
    run_mid = build_wrun(fix_tsc1, w.pattern, w.values, 1)
    run_late = build_wrun(fix_tsc1, w.pattern, w.values, 3)
    assert run_mid.input == run_late.input == w.input
    assert run_mid.output != run_late.output
    assert {run_mid.output, run_late.output} <= outputs(fix_tsc1, w.input)


def test_analyze_fix_tsc_unknown(fix_tsc):
    verdict = analyze_valuedness(fix_tsc, SMALL)
    assert verdict.kind == "Unknown"
    assert verdict.oracle_reading["max_outputs"] == 2


def test_analyze_fix_amb_infinite(fix_amb):
    assert analyze_valuedness(fix_amb).kind == "Infinite"


def test_analyze_budget_exhaustion_is_unknown(fix_tsc):
    verdict = analyze_valuedness(fix_tsc, SearchBudget(node_budget=3, candidates=3))
    assert verdict.kind == "Unknown"


def test_dumbbell_budget_stop_is_unknown(fix_amb):
    """A node budget too small for the dumbbell search gives Unknown, with
    no dumbbell and no oracle reading (the scan stops on the same budget)."""
    verdict = analyze_valuedness(fix_amb, SearchBudget(node_budget=1))
    assert verdict.kind == "Unknown"
    assert verdict.details["reason"].startswith("dumbbell search aborted: ")
    assert verdict.dumbbell is None
    assert verdict.oracle_reading is None


def test_verdict_json_schema(fix_id, fix_tsc1):
    for verdict in (analyze_valuedness(fix_id), analyze_valuedness(fix_tsc1)):
        payload = verdict.to_json()
        assert set(payload) == {"kind", "evidence", "budgets", "oracle_readings"}


def test_verdicts_against_oracle_growth(all_fixtures):
    budgets = {"FIX-TSC": SMALL, "FIX-R2": SMALL}
    for name, sst in all_fixtures.items():
        verdict = analyze_valuedness(sst, budgets.get(name))
        readings = [valuedness_oracle(sst, n)[0] for n in (2, 4, 6)]
        increasing = readings[0] < readings[1] < readings[2]
        if verdict.kind == "Finite":
            assert not increasing, name
        elif verdict.kind == "Infinite":
            assert increasing, name


# -- amplification ----------------------------------------------------------------


def test_amplify_fix_tsc1(fix_tsc1):
    witness = analyze_valuedness(fix_tsc1).witness
    result = amplify_valuedness(fix_tsc1, witness, 3)
    assert result is not None
    word, outs = result
    assert set(word) == {"0"}
    assert len(set(outs)) == 3
    for out in outs:
        assert sorted(out) == sorted("0" * (len(out) - 1) + "1")
        assert out.count("1") == 1
    assert set(outs) <= outputs(fix_tsc1, word)


def test_amplify_fix_amb(fix_amb):
    witness = analyze_valuedness(fix_amb).witness
    result = amplify_valuedness(fix_amb, witness, 3)
    assert result is not None
    word, outs = result
    assert len(set(outs)) == 3
    assert set(outs) <= outputs(fix_amb, word)


def test_amplify_single_output(fix_tsc1):
    witness = analyze_valuedness(fix_tsc1).witness
    result = amplify_valuedness(fix_tsc1, witness, 1)
    assert result is not None
    word, outs = result
    assert len(outs) == 1
    assert outs[0] in outputs(fix_tsc1, word)


def test_amplify_budget_stop_returns_none(fix_tsc1):
    """Three outputs of FIX-TSC1 take 13 budget units: one fewer stops the
    scan, which then returns None."""
    witness = analyze_valuedness(fix_tsc1).witness
    budget = Budget(12)
    assert amplify_valuedness(fix_tsc1, witness, 3, budget) is None
    assert budget.used == 13
    assert amplify_valuedness(fix_tsc1, witness, 3, Budget(13)) is not None


@pytest.mark.parametrize("m", [0, -1])
def test_amplify_rejects_fewer_than_one_output(fix_tsc1, m):
    witness = analyze_valuedness(fix_tsc1).witness
    with pytest.raises(SstKitError) as err:
        amplify_valuedness(fix_tsc1, witness, m)
    assert type(err.value) is ParameterError
    assert str(err.value) == "need m >= 1 outputs"


def test_infinite_verdicts_of_the_golden_corpus_amplify():
    """Every Infinite verdict of the golden corpus, at its budget, amplifies
    to m = 2..5 distinct outputs of one input.  Each of the 12 witnesses
    (FIX-AMB, FIX-TSC1 and 10 draws) has three empty loops, so this is
    evidence that such witnesses are sound, not a proof."""
    infinite = []
    for label, sst in machines():
        verdict = analyze_valuedness(sst, SearchBudget(**VALUEDNESS_BUDGET))
        if verdict.kind != "Infinite":
            continue
        infinite.append(label)
        for m in (2, 3, 4, 5):
            result = amplify_valuedness(sst, verdict.witness, m)
            assert result is not None, (label, m)
            word, outs = result
            assert len(set(outs)) == m and set(outs) <= outputs(sst, word), (label, m)
    assert len(infinite) == 12 and {"FIX-AMB", "FIX-TSC1"} <= set(infinite)


@pytest.mark.parametrize("field", ["component_length", "candidates", "node_budget", "oracle_max_len"])
def test_search_budget_refuses_a_negative_field(field):
    # a negative field would test nothing and still report a whole search
    with pytest.raises(ParameterError, match=f"SearchBudget.{field} must not be negative"):
        SearchBudget(**{field: -1})


def test_dumbbells_on_random_machines_pump_to_many_runs():
    """Every dumbbell found must be a genuine witness: sliding the bridge
    across n loop blocks yields n + 1 distinct accepting runs on one
    input."""
    import random

    from sstkit import BudgetExceededError, concat_runs, enumerate_runs
    from helpers import random_sst

    rng = random.Random(61)
    found = 0
    for _ in range(40):
        sst = random_sst(rng)
        try:
            dumbbell = find_dumbbell(sst, node_budget=200_000)
        except BudgetExceededError:
            continue
        if dumbbell is None:
            continue
        dumbbell.verify(sst)
        n = 3
        variants = []
        for i in range(n + 1):
            parts = (
                [dumbbell.rho0]
                + [dumbbell.rho1] * i
                + [dumbbell.rho2]
                + [dumbbell.rho3] * (n - i)
                + [dumbbell.rho4]
            )
            variants.append(concat_runs(sst, parts))
        word = variants[0].input
        assert all(run.input == word and run.accepting for run in variants)
        assert len({run.steps for run in variants}) == n + 1
        if len(word) <= 9:
            assert len(enumerate_runs(sst, word)) >= n + 1
        found += 1
    assert found >= 5


def test_dumbbell_search_decides_a_32_state_deterministic_machine():
    """One transition per state and letter, 32 states, 4 variables: the
    machine is unambiguous, and the search on the product of plain states
    decides it well within the default node budget.  A search whose
    tracks also carry skeletons stops on that budget here."""
    import random

    from sstkit import Sst, Transition
    from helpers import random_copyless_update

    rng = random.Random(3)
    states = tuple(f"s{i}" for i in range(32))
    variables = ("X1", "X2", "X3", "X4")
    transitions = [Transition(q, a, random_copyless_update(rng, variables, "ab", 3),
                              rng.choice(states))
                   for q in states for a in "ab"]
    sst = Sst("ab", variables, states, (states[0],), states,
              {q: variables for q in states}, transitions)
    assert find_dumbbell(sst) is None


# Divergent patterns whose last marks give equal outputs at every sequence of
# length m, so amplification needs a longer sequence: random_sst(Random(s))
# with the search budget at which its witness is found, and the values of m.
LONGER_SEQUENCE_CASES = [
    (193, dict(component_length=2, candidates=20_000, oracle_max_len=5), m)
    for m in (2, 3, 4, 5)
] + [
    (s, dict(component_length=2, candidates=200, node_budget=5000, oracle_max_len=5), 3)
    for s in (562, 1016, 1333, 1349, 2482, 2557, 2758, 2910)
]


@pytest.mark.parametrize("seed, knobs, m", LONGER_SEQUENCE_CASES)
def test_amplify_uses_longer_sequences(seed, knobs, m):
    import random

    from helpers import random_sst

    sst = random_sst(random.Random(seed))
    verdict = analyze_valuedness(sst, SearchBudget(**knobs))
    assert verdict.kind == "Infinite"
    result = amplify_valuedness(sst, verdict.witness, m)
    assert result is not None
    word, outs = result
    assert len(outs) == m
    assert len(set(outs)) == m
    assert set(outs) <= outputs(sst, word)
