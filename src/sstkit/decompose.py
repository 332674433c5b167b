"""Run ordering, per-input semantic covers, and selector decomposition.

A nondeterministic transducer that maps each input to at most k outputs can
be split, input by input, into k single-valued selectors: order the
accepting runs lexicographically and let selector i pick the i-th distinct
output (by its least witnessing run).  The semantic cover refines this: it
keeps only the runs that are not preceded by a lexicographically smaller
run with the same output and small delay, which preserves the realized
relation while separating the survivors by output or by delay.
"""

from __future__ import annotations

from operator import sub
from typing import Callable

from .delay import _weight_columns
from .errors import InputMismatchError, ParameterError, RunError
from .model import (
    Budget, Run, Sst, _final_outputs, _leaf_outputs, _least_tagged_runs, _scan, _start, _step,
    _word_outputs, enumerate_runs,
)
from .wordcomb import cuts


def lex_compare(r1: Run, r2: Run) -> int:
    """-1, 0, or 1 per the canonical run order.

    Runs are compared by the rank sequences of their transitions (rank =
    source index, letter index, target index, declaration position), with
    the start-state index breaking the tie between empty runs.  Only
    defined for runs of one transducer instance on the same input.
    """
    if r1.sst is not r2.sst:
        raise RunError("run belongs to a different transducer instance")
    if r1.input != r2.input:
        raise InputMismatchError("lexicographic comparison requires equal inputs")
    k1 = r1.sst.run_sort_key(r1)
    k2 = r2.sst.run_sort_key(r2)
    return (k1 > k2) - (k1 < k2)


def semantic_cover(
    sst: Sst,
    word: str,
    C: int,
    D: int,
    budget: Budget | int | None = None,
) -> list[Run]:
    """Accepting runs on ``word`` that survive delay-based deduplication.

    A run is dropped when some lexicographically smaller run, dropped or
    not, has the same output and delay at most D (with cut parameter C).
    The survivors produce the same output set as the full run set, and
    every surviving pair either differs in output or has delay greater
    than D.  ``C`` below 1 raises ``ParameterError``, whatever the runs.

    With D below 0 every run survives: the runs are ``enumerate_runs``'s,
    and no weight is computed.  Otherwise a run whose tagged output
    (``Run.annotated_output``) repeats an earlier run's has delay 0 from
    it and is dropped, so only the least run of each distinct tagged
    output is compared.  ``_least_tagged_runs`` reads these runs off a
    frontier of tagged configurations, which keeps the least run into
    each, and charges the budget as ``enumerate_runs`` does, so
    ``budget.used`` and every stop are those of comparing every pair of
    runs.  The first run of an output survives unmeasured; once a second
    run has the output, its cuts and each such run's flat weight table
    (``_weight_columns``) are built once, and a delay of at most D is read
    as no two entries of the tables differing by more than D.  Only a
    survivor is built as a ``Run``, holding the tagged output read here.
    """
    if C < 1:
        raise ParameterError("C must be at least 1")
    if D < 0:
        return enumerate_runs(sst, word, budget)
    n, survivors = len(word), []
    firsts: dict[str, tuple] = {}  # per output, the tagged output of its first run
    # per output met again: its cuts, and the weight tables of its runs so far
    earlier: dict[str, tuple[tuple[int, ...], list]] = {}
    # found in lexicographic order
    for annotated, (start, *steps) in _least_tagged_runs(sst, word, budget).items():
        output = "".join([c for c, _ in annotated])
        if output in firsts:
            if output not in earlier:
                positions = tuple(cuts(output, C))
                earlier[output] = (positions, [_weight_columns(firsts[output], n, positions)])
            positions, tables = earlier[output]
            tables.append(_weight_columns(annotated, n, positions))
            if any(_within(tables[-1], e, D) for e in tables[:-1]):
                continue
        firsts.setdefault(output, annotated)
        run = Run(sst, start, tuple(steps))
        run.__dict__.update(annotated_output=annotated, output=output)  # as _cached_property would
        survivors.append(run)
    return survivors


def _within(entries1, entries2, D: int) -> bool:
    """Whether no two entries of two flat weight tables
    (``_weight_columns``) differ by more than D."""
    return max(map(abs, map(sub, entries1, entries2)), default=0) <= D


def ranked_outputs(sst: Sst, word: str, budget: Budget | int | None = None) -> list[str]:
    """Distinct outputs of ``word`` ordered by their least witnessing run."""
    return list(_word_outputs(sst, word, budget))


def decompose_selectors(
    sst: Sst,
    k: int,
    budget: Budget | int | None = None,
) -> list[Callable[[str], str | None]]:
    """k single-valued selector functions covering the realized relation.

    selector i maps an input to its i-th distinct output in witness order,
    or None when fewer than i outputs exist.  On inputs with at most k
    outputs the union of the selector graphs equals the relation.  A
    ``Budget`` passed in is shared by every call of every selector, while
    an int or None gives each call its own budget.  A ``k`` below 1 raises
    ``ParameterError``.
    """
    if k < 1:
        raise ParameterError("need at least one selector")

    def make(i: int) -> Callable[[str], str | None]:
        def selector(word: str) -> str | None:
            ranked = ranked_outputs(sst, word, budget)
            return ranked[i] if i < len(ranked) else None

        selector.rank = i + 1  # type: ignore[attr-defined]
        selector.__name__ = f"selector_{i + 1}"
        return selector

    return [make(i) for i in range(k)]


def check_equivalence_bounded(
    a: Sst,
    b: Sst,
    max_len: int,
    budget: Budget | int | None = None,
    min_len: int = 1,
) -> str | None:
    """Compare output sets on every input with min_len <= |u| <= max_len.

    Returns None when all agree, else the first differing input in
    length-lexicographic order over ``a``'s letter order (the two
    alphabets may list the same letters in different orders).  Like the
    oracles, the scan starts at length 1 by default; pass ``min_len=0`` to
    include the empty input.  Alphabets with different letters raise
    ``ParameterError``.
    """
    if set(a.alphabet) != set(b.alphabet):
        raise ParameterError("transducers must share an alphabet")
    shared = Budget.ensure(budget)

    def step(pair, letter):
        fa, fb = _step(a, pair[0], letter, shared), _step(b, pair[1], letter, shared)
        return (fa, fb) if fa or fb else ()

    # output dicts map every output to None, so they are equal exactly when
    # their sets of outputs are
    def differs(pair, need) -> int:
        return int(_final_outputs(a, pair[0]) != _final_outputs(b, pair[1]))

    def leaf_differs(pair, letter, need) -> int:
        fa, fb = pair
        shared.charge(len(fa) + len(fb))
        return int(_leaf_outputs(a, fa, letter) != _leaf_outputs(b, fb, letter))

    found, witness = _scan(
        a.alphabet, min_len, max_len, (_start(a), _start(b)), step, differs, leaf_differs,
        lambda pair: (frozenset(pair[0]), frozenset(pair[1])), top=1)
    return witness if found else None
