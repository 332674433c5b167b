import copy
import random

import pytest

from sstkit import (
    Budget,
    BudgetExceededError,
    CopylessError,
    ParameterError,
    ParseError,
    RunError,
    SearchBudget,
    Sst,
    SstKitError,
    Transition,
    UnknownSymbolError,
    Update,
    VariableSetMismatchError,
    ambiguity_oracle,
    analyze_valuedness,
    check_equivalence_bounded,
    compose_updates,
    coreachable_states,
    enumerate_runs,
    eval_run,
    find_dumbbell,
    output_via_updates,
    outputs,
    parse_sst,
    reachable_states,
    skeleton_monoid,
    valuedness_oracle,
)
from helpers import FIXTURES, draws, random_copyless_update, random_sst, random_word

V2 = ("X1", "X2")


def mk(images):
    return Update.make(V2, images)


# -- parsing ------------------------------------------------------------------


def test_parse_fix_id(fix_id):
    assert len(fix_id.states) == 1
    assert len(fix_id.variables) == 1
    assert len(fix_id.transitions) == 1


def test_parse_fix_tsc_shape(fix_tsc):
    assert len(fix_tsc.states) == 2
    assert len(fix_tsc.variables) == 2
    assert len(fix_tsc.transitions) == 8


def test_parse_copyless_violation():
    doc = """\
alphabet: a
vars: X1
states: q
initial: q
final q -> X1
trans q a q { X1 := X1 X1 }
"""
    with pytest.raises(CopylessError) as err:
        parse_sst(doc)
    assert err.value.variable == "X1"


def test_parse_syntax_error_has_line():
    with pytest.raises(ParseError) as err:
        parse_sst("alphabet: a\nvars: X1\nstates: q\ninitial: q\nwhatever q\n")
    assert err.value.line == 5


def test_parse_unknown_symbol():
    doc = "alphabet: a\nvars: X1\nstates: q\ninitial: q\nfinal q -> X9\n"
    with pytest.raises(UnknownSymbolError):
        parse_sst(doc)


def test_parse_unmentioned_variable_keeps_value(fix_amb):
    doc = """\
alphabet: a b
vars: X1 X2
states: q
initial: q
final q -> X1 X2
trans q a q { X1 := X1 a }
trans q b q { X2 := X2 b }
"""
    sst = parse_sst(doc)
    (run,) = enumerate_runs(sst, "ab")
    assert run.output == "ab"


def test_parse_rejects_multichar_letters():
    with pytest.raises(ParseError):
        parse_sst("alphabet: ab\nvars: X1\nstates: q\ninitial: q\n")


RESERVED_TOKENS = (";", "{", "}", ":=", "->", "=")


@pytest.mark.parametrize("token", RESERVED_TOKENS)
def test_parse_rejects_reserved_letters(token):
    doc = f"alphabet: {token} a\nvars: X1\nstates: q\ninitial: q\nfinal q -> X1\n"
    with pytest.raises(ParseError) as err:
        parse_sst(doc)
    assert err.value.line == 1


@pytest.mark.parametrize("brace", ["{", "}"])
def test_sst_rejects_brace_letters(brace):
    """An Sst built in code may not use a brace as a letter either: its
    compiled templates would read it as part of a replacement field."""
    with pytest.raises(SstKitError, match="braces"):
        Sst(alphabet=("a", brace), variables=("X",), states=("q",), initials=("q",),
            finals=("q",), final_output={"q": ("X", brace)},
            transitions=(Transition("q", brace, Update.make(("X",), {"X": ("X", brace)}), "q"),))


@pytest.mark.parametrize("token", RESERVED_TOKENS)
def test_parse_rejects_reserved_variables(token):
    doc = f"alphabet: a\nvars: X1 {token}\nstates: q\ninitial: q\nfinal q -> X1\n"
    with pytest.raises(ParseError) as err:
        parse_sst(doc)
    assert err.value.line == 2


@pytest.mark.parametrize("token", RESERVED_TOKENS)
def test_parse_rejects_reserved_states(token):
    doc = f"alphabet: a\nvars: X1\nstates: q {token}\ninitial: q\nfinal q -> X1\n"
    with pytest.raises(ParseError) as err:
        parse_sst(doc)
    assert err.value.line == 3


@pytest.mark.parametrize("header, column", [
    ("alphabet: a b\nvars: a X1\n", 7),  # the variable line repeats a letter
    ("vars: X1 a\nalphabet: b a\n", 13),  # the alphabet line repeats a variable
])
def test_parse_rejects_name_both_letter_and_variable(header, column):
    doc = header + "states: q\ninitial: q\nfinal q -> X1\n"
    with pytest.raises(ParseError) as err:
        parse_sst(doc)
    assert (err.value.line, err.value.column) == (2, column)


# -- update algebra -----------------------------------------------------------


def test_compose_basic():
    a = mk({"X1": ["X1", "a"], "X2": ["X2"]})
    b = mk({"X1": ["X2", "X1"], "X2": []})
    c = compose_updates(a, b)
    assert c.image("X1") == ("X2", "X1", "a")
    assert c.image("X2") == ()


def test_compose_identity_laws():
    rng = random.Random(7)
    ident = Update.identity(V2)
    for _ in range(25):
        u = random_copyless_update(rng, V2)
        assert compose_updates(ident, u) == u
        assert compose_updates(u, ident) == u


def test_compose_square_by_hand():
    a = mk({"X1": ["a", "X1", "b", "X2", "c"], "X2": ["a"]})
    sq = compose_updates(a, a)
    assert sq.image("X1") == ("a", "a", "X1", "b", "X2", "c", "b", "a", "c")
    assert sq.image("X2") == ("a",)


def test_compose_variable_set_mismatch():
    a = Update.identity(("X1",))
    b = Update.identity(V2)
    with pytest.raises(VariableSetMismatchError):
        compose_updates(a, b)


def test_copyless_closure_and_associativity():
    rng = random.Random(11)
    for _ in range(60):
        a = random_copyless_update(rng, V2)
        b = random_copyless_update(rng, V2)
        c = random_copyless_update(rng, V2)
        ab = compose_updates(a, b)  # construction re-validates copylessness
        assert compose_updates(ab, c) == compose_updates(a, compose_updates(b, c))


def test_update_requires_total_images():
    with pytest.raises(Exception):
        Update.make(V2, {"X1": ["a"]})


# -- run evaluation -----------------------------------------------------------


def test_eval_fix_id_appender(fix_id):
    (run,) = enumerate_runs(fix_id, "aa")
    assert eval_run(fix_id, run) == (("a", 1), ("a", 2))
    assert run.output == "aa"


def test_eval_fix_tsc_all_append(fix_tsc):
    run = fix_tsc.run("qA", (1, 3))  # append 0 to X0, then append 1 to X1
    assert run.input == "01"
    assert run.output == "01"


def test_eval_fix_tsc1_prepend_vs_append(fix_tsc1):
    prepend = fix_tsc1.run("qA", (0,))
    append = fix_tsc1.run("qA", (1,))
    assert prepend.output == "01"
    assert append.output == "10"


def test_eval_rejects_non_accepting(fix_r2):
    run = fix_r2.run("s0", (0,))  # ends mid-block, not final
    assert not run.accepting
    with pytest.raises(RunError):
        eval_run(fix_r2, run)


def test_run_rejects_broken_chaining(fix_r2):
    with pytest.raises(RunError):
        fix_r2.run("s0", (6,))  # transition out of c1, not s0
    with pytest.raises(RunError):
        fix_r2.run("s0", (-12, -8))  # would chain as (0, 4): s0 -> s1 -> s0
    with pytest.raises(RunError):
        fix_r2.run("s0", (12,))  # one past the last transition


def test_annotated_steps_in_range(fix_tsc1):
    for word in ("", "0", "01", "100"):
        for run in enumerate_runs(fix_tsc1, word):
            for _, step in run.annotated_output:
                assert 0 <= step <= len(run)


# -- enumeration and oracles --------------------------------------------------


def test_enumerate_counts(fix_id, fix_amb, fix_tsc):
    assert len(enumerate_runs(fix_id, "aa")) == 1
    assert len(enumerate_runs(fix_amb, "aaa")) == 8
    assert len(enumerate_runs(fix_tsc, "")) == 2


def test_outputs_examples(fix_r2, fix_tsc, fix_tsc1):
    assert outputs(fix_r2, "001011") == {"00", "10", "11"}
    assert outputs(fix_tsc, "01") == {"01", "10"}
    assert outputs(fix_tsc1, "00") == {"100", "010", "001"}


def test_valuedness_oracle_examples(fix_tsc, fix_id, fix_tsc1):
    assert valuedness_oracle(fix_tsc, 4) == (2, "01")
    assert valuedness_oracle(fix_id, 4) == (1, "a")
    # on inputs mixing 0s and 1s the two emission orders overlap in a
    # single word, so "0001" already reaches 4 + 4 - 1 = 7 outputs,
    # more than the 5 seen on "0000"
    assert valuedness_oracle(fix_tsc1, 4) == (7, "0001")
    assert len(outputs(fix_tsc1, "0000")) == 5


def test_ambiguity_oracle_examples(fix_id, fix_amb, fix_tsc):
    assert ambiguity_oracle(fix_id, 4) == (1, "a")
    assert ambiguity_oracle(fix_amb, 3) == (8, "aaa")
    assert ambiguity_oracle(fix_tsc, 3) == (16, "000")


@pytest.mark.parametrize("seed, expected", [
    (33, (2, "b")), (20, (3, "bab")), (38, (2, "aba")), (97, (2, "ab")), (98, (4, "aab")),
])
def test_valuedness_oracle_keeps_the_shorter_input_on_a_tie(seed, expected):
    """The depth-first walk meets a longer input reaching the maximum before
    a shorter one (on draw 33, "aaa" before "b"): a shorter input displaces
    the witness at the same count, a longer one or one of the same length
    only with a greater count."""
    assert valuedness_oracle(random_sst(random.Random(seed)), 4) == expected


def test_scans_start_from_the_least_input_past_a_dead_first_prefix():
    """The first prefix, "a", dies at once and "b" lives on; no state is
    final, so every input measures 0 and the witness is the least input of
    length min_len."""
    identity = Update.identity(("X",))
    sst = Sst(("a", "b"), ("X",), ("p", "q"), ("p",), (), {}, (
        Transition("p", "b", identity, "q"),
        Transition("q", "a", identity, "q"),
        Transition("q", "b", identity, "q"),
    ))
    assert valuedness_oracle(sst, 3, min_len=2) == (0, "aa")
    assert ambiguity_oracle(sst, 3, min_len=2) == (0, "aa")


def test_budget_exceeded(fix_tsc):
    with pytest.raises(BudgetExceededError):
        enumerate_runs(fix_tsc, "000000", budget=10)


@pytest.mark.parametrize("limit", [-5, -1, 2.7, "3", True, False, None])
def test_budget_refuses_a_limit_that_is_not_an_int_of_at_least_0(fix_tsc, limit):
    # a negative limit would stop at the first charge, a float be cut down
    # to an int, and a string or a bool be taken as a count
    with pytest.raises(ParameterError, match="budget limit must be an int of at least 0"):
        Budget(limit)
    if limit is not None:  # None is the default budget
        with pytest.raises(ParameterError, match="budget limit must be an int of at least 0"):
            enumerate_runs(fix_tsc, "0", limit)


def test_budget_takes_an_int_limit_as_it_is(fix_tsc):
    assert Budget.ensure(7).limit == 7 and type(Budget.ensure(7).limit) is int
    zero = Budget(0)
    with pytest.raises(BudgetExceededError):
        enumerate_runs(fix_tsc, "0", zero)
    assert zero.used == 1


def test_enumeration_rejects_a_letter_outside_the_alphabet(fix_amb):
    """A bad input word is a bad argument, not a malformed document."""
    with pytest.raises(ParameterError) as err:
        enumerate_runs(fix_amb, "ab")
    assert str(err.value) == "input letter 'b' is not in the alphabet"
    assert not isinstance(err.value, ParseError)


def test_enumeration_is_sorted_and_deterministic(fix_tsc):
    runs = enumerate_runs(fix_tsc, "01")
    keys = [fix_tsc.run_sort_key(r) for r in runs]
    assert keys == sorted(keys)
    again = enumerate_runs(fix_tsc, "01")
    assert [r.steps for r in runs] == [r.steps for r in again]


# -- cross-checks over random machines ---------------------------------------


def test_eval_consistency_two_paths(all_fixtures):
    """The annotated evaluator agrees with composing the updates, on the
    fixtures and on random machines, some with three variables and some
    with initial assignments."""
    rng = random.Random(23)
    machines = list(all_fixtures.values()) + [random_sst(rng) for _ in range(12)]
    machines += [random_sst(random.Random(seed), 4, 3) for seed in range(24)]
    checked = initialized = 0
    for sst in machines:
        for _ in range(6):
            word = random_word(rng, sst.alphabet, 4)
            for run in enumerate_runs(sst, word):
                assert run.output == output_via_updates(sst, run)
                checked += 1
                initialized += any(sst.initial_assignment.values())
    assert checked > 50 and initialized > 20


def test_outputs_never_exceed_runs(all_fixtures):
    rng = random.Random(29)
    for sst in all_fixtures.values():
        for _ in range(8):
            word = random_word(rng, sst.alphabet, 5)
            assert len(outputs(sst, word)) <= len(enumerate_runs(sst, word))


def test_sst_validation_rejects_bad_references():
    with pytest.raises(UnknownSymbolError):
        Sst(
            alphabet=("a",), variables=("X1",), states=("q",),
            initials=("q",), finals=("q",), final_output={"q": ("X1",)},
            transitions=(Transition("q", "a", Update.identity(("X1",)), "nowhere"),),
        )
    with pytest.raises(CopylessError):
        Sst(
            alphabet=("a",), variables=("X1",), states=("q",),
            initials=("q",), finals=("q",), final_output={"q": ("X1", "X1")},
            transitions=(),
        )


@pytest.mark.parametrize("changes, cls, message", [
    pytest.param({"alphabet": ("a", "a")}, SstKitError,
                 "duplicate entries in alphabet: ('a', 'a')", id="duplicate-letter"),
    pytest.param({"variables": ("X1", "X1")}, SstKitError,
                 "duplicate entries in variables: ('X1', 'X1')", id="duplicate-variable"),
    pytest.param({"states": ("q", "q")}, SstKitError,
                 "duplicate entries in states: ('q', 'q')", id="duplicate-state"),
    pytest.param({"alphabet": ("a", "ab")}, SstKitError,
                 "letters must be single characters, got 'ab'", id="multi-character-letter"),
    pytest.param({"variables": ("X1", "a")}, SstKitError,
                 "variables may not collide with letters: ['a']", id="letter-is-a-variable"),
    pytest.param({"initials": ("q", "q")}, SstKitError,
                 "duplicate initial states: ('q', 'q')", id="duplicate-initial"),
    pytest.param({"initials": ("p",)}, UnknownSymbolError,
                 "initial state 'p' is not declared", id="undeclared-initial"),
    pytest.param({"finals": ("q", "q")}, SstKitError,
                 "duplicate final states: ('q', 'q')", id="duplicate-final"),
    pytest.param({"finals": ("p",)}, UnknownSymbolError,
                 "final state 'p' is not declared", id="undeclared-final"),
    pytest.param({"final_output": {}}, SstKitError,
                 "final_output must cover exactly the final states", id="uncovered-final"),
    pytest.param({"final_output": {"q": ("X1", "z")}}, UnknownSymbolError,
                 "unknown symbol 'z' in the output of 'q'", id="unknown-output-symbol"),
    pytest.param({"initial_assignment": {"X1": "b"}}, UnknownSymbolError,
                 "initial assignment of 'X1' uses unknown letter 'b'", id="unknown-initial-letter"),
    pytest.param({"transitions": (Transition("q", "b", Update.identity(("X1",)), "q"),)},
                 UnknownSymbolError, "transition reads unknown letter 'b'", id="unknown-transition-letter"),
    pytest.param({"transitions": (Transition("q", "a", Update.identity(("X2",)), "q"),)},
                 VariableSetMismatchError, "transition update is over the wrong variable set",
                 id="wrong-variable-set"),
    pytest.param({"transitions": (Transition("q", "a", Update.make(("X1",), {"X1": ("X1", "z")}), "q"),)},
                 UnknownSymbolError, "unknown symbol 'z' in update 'X1 := X1 z'", id="unknown-update-symbol"),
])
def test_sst_validation_names_each_fault(fix_id, changes, cls, message):
    """Each check of ``Sst._validate``, reached from FIX-ID's parts with one
    part changed, raises its own class and message."""
    parts = {
        "alphabet": fix_id.alphabet, "variables": fix_id.variables, "states": fix_id.states,
        "initials": fix_id.initials, "finals": fix_id.finals,
        "final_output": fix_id.final_output, "transitions": fix_id.transitions,
    }
    with pytest.raises(SstKitError) as err:
        Sst(**{**parts, **changes})
    assert type(err.value) is cls
    assert str(err.value) == message


def test_unknown_initial_assignment_key_is_rejected(fix_id):
    """An initial assignment for an undeclared variable is refused, not
    dropped."""
    parts = (fix_id.alphabet, fix_id.variables, fix_id.states, fix_id.initials,
             fix_id.finals, fix_id.final_output, fix_id.transitions)
    with pytest.raises(UnknownSymbolError, match="initial assignment for unknown variable 'Z'"):
        Sst(*parts, initial_assignment={"Z": "a"})
    assert Sst(*parts, initial_assignment={"X1": "a"}).initial_assignment == {"X1": "a"}


def test_move_table_lists_each_source_and_letter_in_rank_order(all_fixtures):
    """``_moves[q][a]`` holds exactly the transitions from q on the a-th
    letter, sorted by rank, with their targets, whatever the declaration
    order of the transitions.  ``_predecessors[q][a]`` holds the
    transitions into q on that letter with their sources, in rank order
    (sources in state order, each source's transitions in rank order), and
    ``_leaf_templates[q][a]`` one composed final template per move of
    ``_moves[q][a]`` into a final state, in the same order."""
    rng = random.Random(31)
    machines = list(all_fixtures.values())
    for seed in range(40):
        sst = random_sst(random.Random(seed))
        shuffled = list(sst.transitions)
        rng.shuffle(shuffled)
        machines.append(Sst(
            sst.alphabet, sst.variables, sst.states, sst.initials, sst.finals,
            sst.final_output, shuffled, sst.initial_assignment,
        ))
    for sst in machines:
        for table in (sst._moves, sst._predecessors, sst._leaf_templates):
            assert set(table) == set(sst.states)
            assert all(len(table[q]) == len(sst.alphabet) for q in sst.states)
        finals, templates, sep = sst._final_templates, sst._templates, sst._sep
        for q in sst.states:
            for a, letter in enumerate(sst.alphabet):
                ids = sorted(
                    (i for i, t in enumerate(sst.transitions) if t.source == q and t.letter == letter),
                    key=sst.transition_rank,
                )
                assert sst._moves[q][a] == [(i, sst.transitions[i].target) for i in ids]
                into = sorted(
                    (i for i, t in enumerate(sst.transitions) if t.target == q and t.letter == letter),
                    key=sst.transition_rank,
                )
                assert sst._predecessors[q][a] == [(i, sst.transitions[i].source) for i in into]
                assert sst._leaf_templates[q][a] == [
                    finals[t].format(*templates[i].split(sep)) for i, t in sst._moves[q][a] if t in finals]


COMPLETE_CASES = FIXTURES + draws(range(30))


@pytest.mark.parametrize("label, make", COMPLETE_CASES, ids=[c[0] for c in COMPLETE_CASES])
def test_no_operation_writes_to_a_machine(label, make):
    """An ``Sst`` is complete when ``__init__`` returns: the scans, the
    searches and the monoid closure add no attribute to it, replace none
    and change the contents of none."""
    sst = make()
    before = dict(vars(sst))
    contents = copy.deepcopy(before)
    valuedness_oracle(sst, 4)
    ambiguity_oracle(sst, 4)
    check_equivalence_bounded(sst, sst, 4)
    outputs(sst, sst.alphabet[0] * 3)
    reachable_states(sst)
    coreachable_states(sst)
    find_dumbbell(sst)
    analyze_valuedness(sst, SearchBudget(component_length=2, candidates=300))
    skeleton_monoid(sst)
    after = vars(sst)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
    assert after == contents
