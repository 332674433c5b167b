"""The W-pattern evaluator, which works from a candidate's signature only,
agrees with marked runs built and evaluated through ``Run``: on the
divergence tuple, including for candidates that do not diverge, and on
the outputs of marked sequences of several lengths.  Its divergence test
grounds composed templates on applied contents, so composing templates is
checked against applying them here too."""

import random
from itertools import product

import pytest

import sstkit
from sstkit import BudgetExceededError, Run, build_wrun
from sstkit.analysis import _UpdatePool, _build_pattern, _pattern_candidates
from sstkit.model import Budget, _compile_update

from helpers import FIXTURES, draws
from test_signature_skip import TWINS

# Draws 95 and 196 each have a candidate whose first divergent tuple
# differs between marks 2 and 3, so a walk that marks the wrong position
# fails on them; no draw below 40 has one.  Of the larger draws, 21 have
# candidates, with signatures that share legs across up to four variables.
CASES = FIXTURES + draws([*range(40), 95, 196]) + draws(range(40), 6, 4)

SIGNATURES = 10
SEQUENCES = [(2,), (1, 2, 1), (2, 1, 1, 2)]


def distinct_candidates(sst, limit=SIGNATURES, budget=5000):
    """The first ``limit`` candidates with distinct signatures, at component
    length 2."""
    pool = _UpdatePool(sst)
    seen = {}
    try:
        for raw in _pattern_candidates(pool, 2, Budget(budget)):
            seen.setdefault(raw[0], raw)
            if len(seen) == limit:
                break
    except BudgetExceededError:
        pass
    return pool, list(seen.values())


def reference_tuple(sst, pattern):
    for tup in product((1, 2), repeat=5):
        if build_wrun(sst, pattern, tup, 1).output != build_wrun(sst, pattern, tup, 3).output:
            return tup
    return None


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_evaluator_matches_runs(label, make):
    sst = make()
    pool, candidates = distinct_candidates(sst)
    for raw in candidates:
        pattern = _build_pattern(sst, *raw[1:])
        pattern.verify(sst)
        assert pool.first_divergent_tuple(raw[0]) == reference_tuple(sst, pattern), raw
        for values in SEQUENCES:
            for mark in range(len(values)):
                assert (pool.output(raw[0], values, mark)
                        == build_wrun(sst, pattern, values, mark).output)


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_candidates_carry_their_signature(label, make):
    """A candidate's signature is the signature of the pattern its shape
    builds, so the divergence test reads the pattern that is reported."""
    sst = make()
    pool, candidates = distinct_candidates(sst)
    for signature, *shape in candidates:
        pattern = _build_pattern(sst, *shape)
        pattern.verify(sst)
        assert pool.signature(pattern) == signature, shape


def test_corpus_has_both_kinds_of_candidate():
    """The cases above include candidates that diverge and ones that do not."""
    kinds = set()
    for _, make in CASES:
        sst = make()
        pool, candidates = distinct_candidates(sst)
        kinds.update(
            pool.first_divergent_tuple(raw[0]) is None
            for raw in candidates
        )
    assert kinds == {True, False}


# Machines with pairs of signatures, one divergent and one not, that differ
# only in rho0, in rho4 or in the end state; all their 108 signatures are
# walked, so each pair meets in one pool.
SHARED_POOL_CASES = [(label, make, SIGNATURES) for label, make in CASES] + [
    (f"twins({part})", lambda part=part: sstkit.parse_sst(TWINS[part]), None)
    for part in sorted(TWINS)
]


@pytest.mark.parametrize("label, make, limit", SHARED_POOL_CASES,
                         ids=[c[0] for c in SHARED_POOL_CASES])
def test_shared_pool_matches_fresh_pools(label, make, limit):
    """The pool memoizes prefixes and suffixes across signatures; walking
    the signatures through one pool, forwards or backwards, gives the
    tuples that a fresh pool per signature gives."""
    sst = make()
    _, candidates = distinct_candidates(sst, limit, budget=20_000)
    patterns = [_build_pattern(sst, *raw[1:]) for raw in candidates]

    def walk(pool, pattern):
        return pool.first_divergent_tuple(pool.signature(pattern))

    fresh = [walk(_UpdatePool(sst), p) for p in patterns]
    pool = _UpdatePool(sst)
    assert [walk(pool, p) for p in patterns] == fresh
    pool = _UpdatePool(sst)
    assert [walk(pool, p) for p in reversed(patterns)] == fresh[::-1]


def paths_from(sst, state, max_len):
    """Every path of at most ``max_len`` transitions from ``state``."""
    level = [((), state)]
    for _ in range(max_len + 1):
        yield from (path for path, _ in level)
        level = [(path + (i,), target) for path, end in level
                 for per_letter in sst._moves[end] for i, target in per_letter]


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_pool_ids_name_induced_updates(label, make):
    """A path's id in the pool names the compiled form of the update the
    path induces, and two paths share an id exactly when they induce equal
    updates: every path of length at most 3 from every state."""
    sst = make()
    pool = _UpdatePool(sst)
    ids_of, updates_of = {}, {}
    for state in sst.states:
        for path in paths_from(sst, state, 3):
            update = Run(sst, state, path).induced_update
            k = pool.path_id(path)
            assert pool.programs[k] == _compile_update(sst, update.images), path
            ids_of.setdefault(update, set()).add(k)
            updates_of.setdefault(k, set()).add(update)
    assert all(len(ids) == 1 for ids in ids_of.values())
    assert all(len(updates) == 1 for updates in updates_of.values())


def apply(program, values, sep):
    """Variable contents after a template, as ``_step`` and the pool's
    prefixes compute them."""
    return tuple(program.format(*values).split(sep))


def compose(image, program, sep):
    """The template of ``image`` read after ``program``, as the pool's
    paths, blocks and suffixes compose them."""
    return image.format(*program.split(sep))


# (image, program, composed), images joined by "|": an empty image, one of
# letters only, and letters that meet across a variable whose image is
# empty or letters only
EDGE_IMAGES = [
    ("", "{0}a|b", ""),
    ("ab", "|{1}", "ab"),
    ("a{0}b", "|{0}{1}", "ab"),
    ("a{0}b{1}", "c|d{1}{0}", "acbd{1}{0}"),
    ("{0}{1}", "a|b", "ab"),
]


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_compose_image_matches_apply(label, make):
    """Grounding an image composed with a program equals grounding it on
    the program's applied contents, for every transition update and final
    image of the machine, on random contents with empty strings; and the
    composed template is the compiled form of the composed image."""
    sst = make()
    rng = random.Random(label)
    sep = sst._sep
    updates = [t.update for t in sst.transitions]
    images = [image for update in updates for image in update.images]
    images += list(sst.final_output.values())
    n = len(sst.variables)
    for update, program in zip(updates, sst._templates):
        for image in images:
            template = _compile_update(sst, (image,))
            composed = compose(template, program, sep)
            assert composed == _compile_update(sst, (update.apply_to(image),))
            for _ in range(3):
                values = tuple(rng.choice(["", "", "a", "ba", "abb"]) for _ in range(n))
                assert composed.format(*values) == template.format(*apply(program, values, sep))


@pytest.mark.parametrize("image, program, expected", EDGE_IMAGES,
                         ids=[f"image{i}-program{i}-expected{i}" for i in range(len(EDGE_IMAGES))])
def test_compose_image_edge_cases(image, program, expected):
    composed = compose(image, program, "|")
    assert composed == expected
    for values in product(["", "x", "yz"], repeat=2):
        assert composed.format(*values) == image.format(*apply(program, values, "|"))
