import pytest

from sstkit import (
    Budget,
    BudgetExceededError,
    InputMismatchError,
    ParameterError,
    Run,
    check_equivalence_bounded,
    decompose_selectors,
    delay,
    enumerate_runs,
    lex_compare,
    outputs,
    parse_sst,
    ranked_outputs,
    semantic_cover,
    words_over,
)
from sstkit import decompose

ID_WITH_DEAD_STATE = """\
alphabet: a
vars: X1
states: q dead
initial: q
final q -> X1
trans q a q { X1 := X1 a }
trans dead a dead { X1 := X1 }
"""

# two equal first steps into a deterministic loop whose every step also
# has a move into a dead end
TWO_WAYS_INTO_A_LOOP = """\
alphabet: a
vars: X1
states: p q dead
initial: p
final q -> X1
trans p a q { X1 := a }
trans p a q { X1 := a }
trans q a q { X1 := X1 }
trans q a dead { X1 := X1 }
"""

TWO_SILENT_MOVES = """\
alphabet: a
vars: X1
states: q
initial: q
final q -> X1
trans q a q { X1 := X1 }
trans q a q { X1 := X1 }
"""


def test_lex_compare_reflexive(fix_amb):
    run = fix_amb.run("q", (0, 1))
    assert lex_compare(run, run) == 0


def test_lex_compare_fix_amb_first_difference(fix_amb):
    t1t2 = fix_amb.run("q", (0, 1))
    t2t1 = fix_amb.run("q", (1, 0))
    assert lex_compare(t1t2, t2t1) == -1
    assert lex_compare(t2t1, t1t2) == 1


def test_lex_compare_fix_tsc_declared_order(fix_tsc):
    prepends = fix_tsc.run("qA", (0, 0))
    appends = fix_tsc.run("qA", (1, 1))
    assert lex_compare(prepends, appends) == -1  # prepend transitions declared first


def test_lex_compare_requires_same_input(fix_tsc):
    with pytest.raises(InputMismatchError):
        lex_compare(fix_tsc.run("qA", (0,)), fix_tsc.run("qA", (2,)))


def test_lex_order_breaks_empty_run_tie_by_start(fix_tsc):
    qa, qb = enumerate_runs(fix_tsc, "")
    assert (qa.start, qb.start) == ("qA", "qB")
    assert lex_compare(qa, qb) == -1


# -- semantic cover -------------------------------------------------------------


def test_cover_deterministic_machine(fix_id):
    for word in ("", "a", "aaa"):
        cover = semantic_cover(fix_id, word, 1, 100)
        assert len(cover) == 1


def test_cover_fix_tsc_two_outputs(fix_tsc):
    cover = semantic_cover(fix_tsc, "01", 1, 100)
    assert len(cover) == 2
    assert {run.output for run in cover} == {"01", "10"}


def test_cover_fix_amb(fix_amb):
    cover = semantic_cover(fix_amb, "aa", 1, 100)
    assert len(cover) == 3
    assert {run.output for run in cover} == {"", "a", "aa"}


def test_cover_checks_c_on_every_input(fix_id, fix_amb):
    # FIX-ID has one run on "aa", FIX-AMB two with a shared output: C is
    # checked before any delay is measured, so both raise
    for sst in (fix_id, fix_amb):
        with pytest.raises(ParameterError, match="C must be at least 1"):
            semantic_cover(sst, "aa", 0, 1)


def test_cover_keeps_every_run_of_the_empty_output_below_delay_zero():
    # two runs on "a", both with the empty output: it has no cuts, so their
    # delay is 0, which D = 0 reaches and D = -1 does not
    sst = parse_sst(TWO_SILENT_MOVES)
    assert [r.output for r in enumerate_runs(sst, "a")] == ["", ""]
    assert [r.steps for r in semantic_cover(sst, "a", 1, -1)] == [(0,), (1,)]
    assert [r.steps for r in semantic_cover(sst, "a", 1, 0)] == [(0,)]


def test_cover_compares_a_run_with_the_dropped_runs_too(fix_amb):
    # (1, 1, 0, 0) is 2 away from the one earlier survivor with its output,
    # (0, 0, 1, 1), but 1 away from the dropped (0, 1, 0, 1), so it is dropped
    late = fix_amb.run("q", (1, 1, 0, 0))
    assert delay(fix_amb.run("q", (0, 0, 1, 1)), late, 1).delay == 2
    assert delay(fix_amb.run("q", (0, 1, 0, 1)), late, 1).delay == 1
    cover = semantic_cover(fix_amb, "aaaa", 1, 1)
    assert [r.steps for r in cover] == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)]


def test_cover_of_a_long_word_charges_each_letter_in_one_step():
    # the two first steps reach one tagged configuration, so each later
    # letter steps one key but charges its 4 partial runs, 2 of them into
    # the dead end, in one charge; nothing recurses on the word's length
    sst = parse_sst(TWO_WAYS_INTO_A_LOOP)
    word = "a" * 5000
    units = Budget()
    runs = enumerate_runs(sst, word, units)
    assert len(runs) == 2 and units.used == 4 * len(word) - 1
    budget = Budget()
    assert [r.steps for r in semantic_cover(sst, word, 1, 0, budget)] == [runs[0].steps]
    assert budget.used == units.used
    # a limit inside a letter's charge stops the cover where it stops the runs
    for limit in (units.used - 1, units.used - len(word) + 1):
        for walk in (enumerate_runs, lambda *args: semantic_cover(*args[:2], 1, 0, args[2])):
            budget = Budget(limit)
            with pytest.raises(BudgetExceededError):
                walk(sst, word, budget)
            assert budget.used == limit + 1


def test_cover_builds_a_weight_table_per_distinct_tagged_output_at_most(fix_tsc, monkeypatch):
    # FIX-TSC on a word of 10 letters has 2,048 runs but 2 survivors: a run
    # that repeats an earlier run's tagged output gets no weight table, and
    # below D = 0 no run gets one
    built = []

    def counted(annotated, n, positions):
        built.append(annotated)
        return weight_columns(annotated, n, positions)

    weight_columns = decompose._weight_columns
    monkeypatch.setattr(decompose, "_weight_columns", counted)
    word = "0110100110"
    runs = enumerate_runs(fix_tsc, word)
    tagged = {run.annotated_output for run in runs}
    assert len(runs) == 2048 and len(tagged) < len(runs)
    budget = Budget()
    cover = semantic_cover(fix_tsc, word, 2, 2, budget)
    assert [(r.start, r.steps) for r in cover] == [
        ("qA", (0, 2, 2, 0, 2, 0, 0, 2, 2, 0)), ("qB", (4, 6, 6, 4, 6, 4, 4, 6, 6, 4))]
    assert budget.used == 4094
    assert 0 < len(built) <= len(tagged) and len(set(built)) == len(built)
    built.clear()
    assert len(semantic_cover(fix_tsc, word, 2, -1)) == len(runs)
    assert built == []


@pytest.mark.parametrize("C, D", [(1, 0), (2, 2), (3, 10)])
def test_cover_builds_each_survivor_once_with_its_tagging(all_fixtures, monkeypatch, C, D):
    # the cover builds a Run only for a survivor, and the tagged output it
    # stores there is the one the run itself would compute
    built = []

    def counted(*args):
        built.append(args)
        return Run(*args)

    monkeypatch.setattr(decompose, "Run", counted)
    for sst in all_fixtures.values():
        for word in words_over(sst.alphabet, 0, 5):
            built.clear()
            cover = semantic_cover(sst, word, C, D)
            assert len(built) == len(cover), word
            for r in cover:
                fresh = Run(sst, r.start, r.steps)
                assert (r.annotated_output, r.output) == (fresh.annotated_output, fresh.output), word


def test_cover_preserves_outputs_and_separates(all_fixtures):
    for sst in all_fixtures.values():
        for word in words_over(sst.alphabet, 0, 4):
            cover = semantic_cover(sst, word, 1, 100)
            assert {r.output for r in cover} == outputs(sst, word)
            for i, r1 in enumerate(cover):
                for r2 in cover[i + 1:]:
                    assert r1.output != r2.output or delay(r1, r2, 1).delay > 100


# -- selectors -------------------------------------------------------------------


def test_selectors_fix_tsc(fix_tsc):
    sel1, sel2 = decompose_selectors(fix_tsc, 2)
    assert {sel1("01"), sel2("01")} == {"01", "10"}
    assert sel1("0") == "0"
    assert sel2("0") is None


@pytest.mark.parametrize("k", [0, -1])
def test_selectors_reject_fewer_than_one(fix_tsc, k):
    with pytest.raises(ParameterError) as err:
        decompose_selectors(fix_tsc, k)
    assert str(err.value) == "need at least one selector"


def test_selector_fix_id_is_the_function(fix_id):
    (sel,) = decompose_selectors(fix_id, 1)
    for word in ("", "a", "aaaa"):
        assert sel(word) == word


def test_selectors_fix_r2_cover_blocks(fix_r2):
    sels = decompose_selectors(fix_r2, 4)
    picked = {sel("001011") for sel in sels}
    assert picked - {None} == {"00", "10", "11"}


def test_selectors_single_valued_and_rank_disjoint(fix_tsc):
    sels = decompose_selectors(fix_tsc, 2)
    for word in words_over(fix_tsc.alphabet, 0, 3):
        picks = [sel(word) for sel in sels]
        concrete = [p for p in picks if p is not None]
        assert len(concrete) == len(set(concrete))
        assert concrete == ranked_outputs(fix_tsc, word)[: len(concrete)]


# -- bounded equivalence ----------------------------------------------------------


def test_equivalence_reflexive(fix_tsc):
    import sstkit
    other = sstkit.fixtures.load("FIX-TSC")
    assert check_equivalence_bounded(fix_tsc, other, 3) is None


def test_equivalence_tsc_vs_tsc1(fix_tsc, fix_tsc1):
    assert check_equivalence_bounded(fix_tsc, fix_tsc1, 4) == "0"


def test_equivalence_sees_empty_input_when_asked(fix_tsc, fix_tsc1):
    assert check_equivalence_bounded(fix_tsc, fix_tsc1, 4, min_len=0) == ""


def test_equivalence_ignores_dead_states(fix_id):
    padded = parse_sst(ID_WITH_DEAD_STATE)
    assert check_equivalence_bounded(fix_id, padded, 5) is None


def test_equivalence_requires_shared_alphabet(fix_id, fix_tsc):
    with pytest.raises(ParameterError, match="^transducers must share an alphabet$"):
        check_equivalence_bounded(fix_id, fix_tsc, 2)
