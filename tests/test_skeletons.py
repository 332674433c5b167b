import random
from itertools import product

import pytest

from sstkit import (
    CopylessError,
    LoopSet,
    NotIdempotentError,
    RunError,
    Skeleton,
    SstKitError,
    UnknownSymbolError,
    Update,
    compose_skeletons,
    compose_updates,
    enumerate_runs,
    find_loops,
    fixtures,
    idempotent_power_words,
    interval_update,
    is_idempotent,
    lex_compare,
    parse_sst,
    pump,
    pumped_output_expr,
    skeleton_monoid,
    skeleton_of,
    words_over,
)
from helpers import FIXTURES, SWAP_DOC, draws, random_copyless_update, sample_run_with_loops, random_sst

V2 = ("X1", "X2")


def test_skeleton_of_erases_letters():
    u = Update.make(V2, {"X1": ["a", "X1", "b", "X2", "c"], "X2": ["a"]})
    s = skeleton_of(u)
    assert s.image("X1") == ("X1", "X2")
    assert s.image("X2") == ()


def test_skeleton_of_identity_and_swap():
    ident = Update.identity(V2)
    assert skeleton_of(ident) == Skeleton.identity(V2)
    swap = Update.make(V2, {"X1": ["X2"], "X2": ["X1"]})
    assert skeleton_of(swap).image("X1") == ("X2",)
    assert skeleton_of(swap).image("X2") == ("X1",)


def test_is_idempotent():
    collapse = Skeleton(V2, (("X1", "X2"), ()))
    assert is_idempotent(collapse)
    swap = Skeleton(V2, (("X2",), ("X1",)))
    assert not is_idempotent(swap)
    assert is_idempotent(Skeleton.identity(V2))


def test_skeleton_is_an_update_without_letters():
    ident = Skeleton.identity(V2)
    assert isinstance(ident, Update) and type(ident) is Skeleton
    assert ident.apply_to(("X2", "X1")) == ("X2", "X1")
    with pytest.raises(SstKitError, match="non-variable"):
        Skeleton(V2, (("X1", "a"), ("X2",)))
    with pytest.raises(CopylessError):
        Skeleton(V2, (("X1", "X1"), ()))
    # one pass over the tokens: of two faults, the earlier token's raises
    with pytest.raises(SstKitError, match="non-variable"):
        Skeleton(V2, (("a",), ("X1", "X1")))
    with pytest.raises(CopylessError):
        Skeleton(V2, (("X1", "X1", "a"), ()))
    with pytest.raises(SstKitError, match="every variable"):
        Skeleton(V2, (("X1",),))
    with pytest.raises(UnknownSymbolError):
        ident.image("X3")


def test_skeleton_of_equals_the_checked_skeleton():
    """``skeleton_of`` skips the copyless check: on every transition update,
    and every induced update of the runs up to length 4, it equals the
    checked ``Skeleton`` of the erased images.  A direct ``Skeleton`` still
    checks."""
    for label, make in FIXTURES + draws(range(40)):
        sst = make()
        updates = [t.update for t in sst.transitions]
        for word in words_over(sst.alphabet, 0, 4):
            updates += [run.induced_update for run in enumerate_runs(sst, word)]
        for u in updates:
            erased = tuple(tuple(t for t in image if t in u.variables) for image in u.images)
            checked = Skeleton(u.variables, erased)
            got = skeleton_of(u)
            assert type(got) is Skeleton, label
            assert (got, hash(got), got._index) == (checked, hash(checked), checked._index), label
    with pytest.raises(CopylessError):
        Skeleton(V2, (("X1", "X2"), ("X2",)))


def test_skeleton_homomorphism():
    rng = random.Random(31)
    for _ in range(60):
        a = random_copyless_update(rng, V2)
        b = random_copyless_update(rng, V2)
        assert skeleton_of(compose_updates(a, b)) == compose_skeletons(
            skeleton_of(a), skeleton_of(b)
        )


def test_monoid_is_finite_and_the_same_on_every_call(all_fixtures):
    for sst in all_fixtures.values():
        m = skeleton_monoid(sst)
        assert Skeleton.identity(sst.variables) in m
        assert skeleton_monoid(sst) == m
    swap = parse_sst(SWAP_DOC)
    assert len(skeleton_monoid(swap)) == 2


# -- loops ---------------------------------------------------------------------


def test_find_loops_fix_id(fix_id):
    (run,) = enumerate_runs(fix_id, "aa")
    assert set(find_loops(fix_id, run)) == {(0, 1), (1, 2), (0, 2)}


def test_find_loops_excludes_swap():
    swap = parse_sst(SWAP_DOC)
    one = swap.run("q", (0,))
    assert find_loops(swap, one) == []
    two = swap.run("q", (0, 0))
    assert find_loops(swap, two) == [(0, 2)]


def test_find_loops_fix_amb(fix_amb):
    run = fix_amb.run("q", (0, 1))
    assert set(find_loops(fix_amb, run)) == {(0, 1), (1, 2), (0, 2)}


# -- pumping -------------------------------------------------------------------


def test_pump_all_ones_is_identity(fix_tsc):
    run = fix_tsc.run("qA", (0, 3))
    loops = LoopSet.build(fix_tsc, run, [(0, 1), (1, 2)])
    assert pump(fix_tsc, run, loops, [1, 1]).steps == run.steps


def test_pump_fix_id(fix_id):
    (run,) = enumerate_runs(fix_id, "a")
    loops = LoopSet.build(fix_id, run, [(0, 1)])
    pumped = pump(fix_id, run, loops, [3])
    assert pumped.input == "aaa"
    assert pumped.output == "aaa"


def test_pump_fix_amb(fix_amb):
    run = fix_amb.run("q", (0,))
    loops = LoopSet.build(fix_amb, run, [(0, 1)])
    pumped = pump(fix_amb, run, loops, [2])
    assert pumped.steps == (0, 0)
    assert pumped.output == "aa"


def test_pump_rejects_zero_count(fix_id):
    (run,) = enumerate_runs(fix_id, "a")
    loops = LoopSet.build(fix_id, run, [(0, 1)])
    with pytest.raises(RunError):
        pump(fix_id, run, loops, [0])


def test_loopset_rejects_overlap(fix_id):
    (run,) = enumerate_runs(fix_id, "aaa")
    with pytest.raises(RunError):
        LoopSet.build(fix_id, run, [(0, 2), (1, 3)])


# each function given FIX-ID and a run of another FIX-ID instance, with
# that run's loop set built by the run's own instance
FOREIGN_RUN_CALLS = {
    "interval_update": lambda sst, run, loops: interval_update(sst, run, 0, 1),
    "find_loops": lambda sst, run, loops: find_loops(sst, run),
    "LoopSet.build": lambda sst, run, loops: LoopSet.build(sst, run, [(0, 1)]),
    "pump": lambda sst, run, loops: pump(sst, run, loops, [2, 1]),
    "pumped_output_expr": lambda sst, run, loops: pumped_output_expr(sst, run, loops),
    "lex_compare": lambda sst, run, loops: lex_compare(sst.run(run.start, run.steps), run),
}


@pytest.mark.parametrize("call", FOREIGN_RUN_CALLS.values(), ids=FOREIGN_RUN_CALLS)
def test_a_run_of_another_instance_is_refused(fix_id, call):
    """The other instance has the same states and transitions, so nothing
    but the owner check tells its runs apart."""
    other = fixtures.load("FIX-ID")
    (run,) = enumerate_runs(other, "aa")
    loops = LoopSet.build(other, run, [(0, 1), (1, 2)])
    with pytest.raises(RunError, match="run belongs to a different transducer instance"):
        call(fix_id, run, loops)


# each function given a run and a loop set built on a run of the same
# instance, and the output of pumping the loop twice
LOOP_SET_CALLS = {
    "pump": lambda sst, run, loops: pump(sst, run, loops, [2]).output,
    "pumped_output_expr": lambda sst, run, loops:
        pumped_output_expr(sst, run, loops).output_for_counts([2]),
}


@pytest.mark.parametrize("call", LOOP_SET_CALLS.values(), ids=LOOP_SET_CALLS)
def test_a_loop_set_serves_every_equal_run(fix_id, call):
    """A loop set built on a run of one ``enumerate_runs`` call serves the
    equal run of a second call, and is refused for a run with other
    steps."""
    (run,) = enumerate_runs(fix_id, "aa")
    (equal,) = enumerate_runs(fix_id, "aa")
    assert equal == run and equal is not run
    loops = LoopSet.build(fix_id, run, [(0, 1)])
    assert call(fix_id, equal, loops) == "aaa"
    (longer,) = enumerate_runs(fix_id, "aaa")
    with pytest.raises(RunError, match="loop set was built for a different run"):
        call(fix_id, longer, loops)


def test_pumped_input_repeats_loop_factors(all_fixtures):
    rng = random.Random(37)
    pool = [all_fixtures["FIX-TSC"], all_fixtures["FIX-TSC1"], all_fixtures["FIX-AMB"]]
    done = 0
    while done < 20:
        sample = sample_run_with_loops(rng, pool)
        if sample is None:
            continue
        sst, run, loops = sample
        counts = [rng.randint(1, 3) for _ in loops.intervals]
        pumped = pump(sst, run, loops, counts)
        expected = []
        pos = 0
        for (i, j), n in zip(loops.intervals, counts):
            expected.append(run.input[pos:i])
            expected.append(run.input[i:j] * n)
            pos = j
        expected.append(run.input[pos:])
        assert pumped.input == "".join(expected)
        done += 1


# -- powered context words -------------------------------------------------------


def test_power_words_worked_example():
    u = Update.make(V2, {"X1": ["a", "X1", "b", "X2", "c"], "X2": ["a"]})
    left, right = idempotent_power_words(u, "X1")
    assert (left, right) == ("a", "bac")
    acc = u
    for n in range(2, 6):
        acc = compose_updates(u, acc)
        assert acc.image("X1") == tuple(left) * (n - 1) + u.image("X1") + tuple(right) * (n - 1)


def test_power_words_constant_image():
    u = Update.make(V2, {"X1": ["a", "b"], "X2": ["X2"]})
    assert idempotent_power_words(u, "X1") == ("", "")


def test_power_words_identity():
    ident = Update.identity(V2)
    assert idempotent_power_words(ident, "X1") == ("", "")
    assert idempotent_power_words(ident, "X2") == ("", "")


def test_power_words_rejects_non_idempotent():
    swap = Update.make(V2, {"X1": ["X2"], "X2": ["X1"]})
    with pytest.raises(NotIdempotentError):
        idempotent_power_words(swap, "X1")


# -- symbolic pumped outputs -----------------------------------------------------


def test_pumped_expr_no_loops_is_constant(fix_tsc):
    run = fix_tsc.run("qA", (1, 3))
    expr = pumped_output_expr(fix_tsc, run, LoopSet.build(fix_tsc, run, []))
    assert expr.word.factors == ()
    assert expr.output_for_counts([]) == run.output == "01"


def test_pumped_expr_requires_accepting_run(fix_r2):
    run = fix_r2.run("s0", (0,))
    assert not run.accepting
    with pytest.raises(RunError):
        pumped_output_expr(fix_r2, run, LoopSet.build(fix_r2, run, []))


def test_pumped_expr_fix_id(fix_id):
    (run,) = enumerate_runs(fix_id, "a")
    loops = LoopSet.build(fix_id, run, [(0, 1)])
    expr = pumped_output_expr(fix_id, run, loops)
    for n in (1, 2, 3, 4):
        assert expr.output_for_counts([n]) == "a" * n


def test_pumped_expr_fix_tsc1_prepend(fix_tsc1):
    run = fix_tsc1.run("qA", (0,))  # prepend 0 to X0 = "1"
    loops = LoopSet.build(fix_tsc1, run, [(0, 1)])
    expr = pumped_output_expr(fix_tsc1, run, loops)
    for n in (1, 2, 3):
        assert expr.output_for_counts([n]) == "0" * n + "1"
        assert expr.output_for_counts([n]) == pump(fix_tsc1, run, loops, [n]).output


def test_pumped_expr_matches_evaluator_on_samples(all_fixtures):
    rng = random.Random(41)
    pool = list(all_fixtures.values()) + [random_sst(rng) for _ in range(6)]
    done = 0
    while done < 15:
        sample = sample_run_with_loops(rng, pool)
        if sample is None:
            continue
        sst, run, loops = sample
        if not run.accepting:
            continue
        expr = pumped_output_expr(sst, run, loops)
        m = len(loops.intervals)
        assert len(expr.word.factors) <= 2 * m * len(sst.variables)
        for counts in product((1, 2, 3), repeat=m):
            assert expr.output_for_counts(counts) == pump(sst, run, loops, counts).output
        done += 1
