"""Seeded random generators, the machine corpus, the sweep driver and
brute-force oracles shared by the tests.

Everything here is deterministic given the Random instance, so failures
replay exactly.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from functools import partial

from sstkit import (
    Inequality,
    LoopSet,
    ParamWord,
    Sst,
    Transition,
    Update,
    enumerate_runs,
    find_loops,
    fixtures,
    is_idempotent,
    skeleton_of,
)

# one state whose one transition swaps two variables: the skeleton of its
# update is not idempotent
SWAP_DOC = """\
alphabet: a
vars: X1 X2
states: q
initial: q
final q -> X1 X2
trans q a q { X1 := X2 ; X2 := X1 }
"""


def random_copyless_update(
    rng: random.Random,
    variables: tuple[str, ...],
    alphabet: str = "ab",
    max_image_len: int = 6,
) -> Update:
    """Random copyless update: a shuffled subset of the variables is dealt
    into the images, then letters are sprinkled in."""
    dealt: dict[str, list[str]] = {v: [] for v in variables}
    pool = [v for v in variables if rng.random() < 0.75]
    rng.shuffle(pool)
    for v in pool:
        dealt[rng.choice(variables)].append(v)
    images: dict[str, list[str]] = {}
    for v in variables:
        img: list[str] = []
        for tok in dealt[v]:
            img.extend(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
            img.append(tok)
        img.extend(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
        if len(img) > max_image_len:
            img = [t for t in img if t in variables][: max_image_len]
        images[v] = img
    return Update.make(variables, images)


def random_idempotent_update(
    rng: random.Random,
    max_vars: int = 3,
    alphabet: str = "ab",
    max_image_len: int = 6,
) -> Update:
    """Rejection-sample a copyless update whose skeleton is idempotent."""
    n = rng.randint(1, max_vars)
    variables = tuple(f"X{i + 1}" for i in range(n))
    while True:
        u = random_copyless_update(rng, variables, alphabet, max_image_len)
        if is_idempotent(skeleton_of(u)):
            return u


def random_sst(rng: random.Random, max_states: int = 3, max_vars: int = 2) -> Sst:
    """Small random transducer over {a, b} with random copyless updates."""
    states = tuple(f"s{i}" for i in range(rng.randint(1, max_states)))
    variables = tuple(f"X{i + 1}" for i in range(rng.randint(1, max_vars)))
    alphabet = ("a", "b")
    transitions = []
    for q in states:
        for a in alphabet:
            for _ in range(rng.randint(0, 2)):
                transitions.append(
                    Transition(
                        q, a,
                        random_copyless_update(rng, variables, "ab", 3),
                        rng.choice(states),
                    )
                )
    initials = tuple(q for q in states if rng.random() < 0.7) or (states[0],)
    finals = tuple(q for q in states if rng.random() < 0.7) or (states[-1],)
    final_output = {}
    for q in finals:
        expr: list[str] = []
        for v in variables:
            if rng.random() < 0.85:
                if rng.random() < 0.25:
                    expr.append(rng.choice(alphabet))
                expr.append(v)
        final_output[q] = tuple(expr)
    initial_assignment = {}
    if rng.random() < 0.35:
        initial_assignment[rng.choice(variables)] = "".join(
            rng.choice(alphabet) for _ in range(rng.randint(1, 2))
        )
    return Sst(
        alphabet, variables, states, initials, finals,
        final_output, transitions, initial_assignment,
    )


def without_last_transition(sst: Sst) -> Sst:
    return Sst(
        sst.alphabet, sst.variables, sst.states, sst.initials, sst.finals,
        sst.final_output, sst.transitions[:-1], sst.initial_assignment,
    )


def no_variables() -> Sst:
    """A machine without variables: every output is a final state's letters,
    and an input has as many outputs as final states it reaches."""
    none = Update.identity(())
    return Sst(
        alphabet=("a", "b"), variables=(), states=("p", "q", "r"),
        initials=("p",), finals=("q", "r"),
        final_output={"q": ("b",), "r": ("a", "b")},
        transitions=(Transition("p", "a", none, "q"), Transition("p", "a", none, "r"),
                     Transition("q", "b", none, "p"), Transition("r", "a", none, "r"),
                     Transition("r", "b", none, "q")),
    )


def format_letters() -> Sst:
    """Letters that mean something inside a ``str.format`` field (digits,
    ``:``, ``!``, ``[``), written next to the variables of every update and
    output."""
    xy = ("X", "Y")

    def update(x, y):
        return Update.make(xy, {"X": tuple(x), "Y": tuple(y)})

    return Sst(
        alphabet=("0", "1", ":", "!", "["), variables=xy, states=("s", "t"),
        initials=("s",), finals=("s", "t"),
        final_output={"s": ("X", ":", "Y"), "t": ("0", "Y", "!", "X", "[")},
        transitions=(
            Transition("s", "0", update(["X", "0"], ["[", "Y"]), "s"),
            Transition("s", "0", update(["1", "X", "!"], ["Y"]), "s"),
            Transition("s", "1", update(["Y", ":"], ["!", "X"]), "t"),
            Transition("t", ":", update(["X", "Y"], ["1"]), "t"),
            Transition("t", "!", update(["0", "Y"], ["X", "[", "0"]), "s"),
            Transition("t", "!", update(["X"], ["Y"]), "t"),
        ),
        initial_assignment={"X": "[", "Y": "!:"},
    )


# -- the machine corpus and the sweep driver ----------------------------------

# the bundled machines, as (label, make) pairs
FIXTURES = [(name, partial(fixtures.load, name)) for name in fixtures.names()]


def draws(seeds, max_states: int = 3, max_vars: int = 2) -> list:
    """``random_sst(Random(s), max_states, max_vars)`` for each seed s, as
    (label, make) pairs labelled ``random_sst(s)`` at the default sizes and
    ``random_sst(s, max_states, max_vars)`` otherwise."""
    sizes = "" if (max_states, max_vars) == (3, 2) else f", {max_states}, {max_vars}"
    return [(f"random_sst({s}{sizes})",
             lambda s=s: random_sst(random.Random(s), max_states, max_vars))
            for s in seeds]


def sweep(cases, check) -> Counter:
    """The sum of the outcome counts ``check(make())`` over the (label,
    make) cases; on the first AssertionError, prints the case's label and
    re-raises."""
    outcomes: Counter = Counter()
    for label, make in cases:
        try:
            outcomes += check(make())
        except AssertionError:
            print(f"{label} broke the rule", file=sys.stderr)
            raise
    return outcomes


def main(run, default: int) -> None:
    """Print the outcome counts of ``run(n)``, with n the first command-line
    argument or ``default``."""
    count = int(sys.argv[1]) if len(sys.argv) > 1 else default
    print(dict(sorted(run(count).items())))


def random_word(rng: random.Random, alphabet, max_len: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def sample_run_with_loops(rng: random.Random, pool, max_input_len: int = 4):
    """One (sst, run, loop set) sample with 1 or 2 disjoint loops, or None
    if this attempt found nothing pumpable."""
    sst = rng.choice(pool)
    word = random_word(rng, sst.alphabet, max_input_len)
    runs = enumerate_runs(sst, word)
    if not runs:
        return None
    run = rng.choice(runs)
    loops = find_loops(sst, run)
    if not loops:
        return None
    rng.shuffle(loops)
    want = rng.randint(1, 2)
    chosen: list[tuple[int, int]] = []
    for iv in loops:
        if all(iv[1] <= i or j <= iv[0] for i, j in chosen):
            chosen.append(iv)
            if len(chosen) == want:
                break
    chosen.sort()
    return sst, run, LoopSet.build(sst, run, chosen)


def random_word_over(rng: random.Random, alphabet: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def random_single_param_inequality(rng: random.Random) -> Inequality:
    """Random inequality whose only parameter is x, each side with at most
    three repeating factors and at least one factor overall."""

    def side(min_factors: int = 0) -> ParamWord:
        m = rng.randint(min_factors, 3)
        constants = tuple(random_word_over(rng, "ab", 0, 3) for _ in range(m + 1))
        factors = tuple((random_word_over(rng, "ab", 1, 3), "x") for _ in range(m))
        return ParamWord(constants, factors)

    left = side()
    right = side(min_factors=0 if left.factors else 1)
    return Inequality(left, right)


# -- brute-force oracles ------------------------------------------------------


def brute_root(w: str) -> str:
    """Primitive root by trying every divisor length."""
    for d in range(1, len(w) + 1):
        if len(w) % d == 0 and w[:d] * (len(w) // d) == w:
            return w[:d]
    raise AssertionError("unreachable")


def brute_cuts(w: str, C: int) -> list[int]:
    """Greedy factorization via the brute-force root."""
    out: list[int] = []
    start = 0
    while start < len(w):
        best = None
        for j in range(start + 1, len(w) + 1):
            if len(brute_root(w[start:j])) <= C:
                best = j
        assert best is not None
        out.append(best)
        start = best
    return out
