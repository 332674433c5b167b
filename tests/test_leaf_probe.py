"""The divergence test compares the outputs of the first tuple, (1,1,1,1,1),
at marks 2 and 4 (``_UpdatePool.outputs``) before it builds its tables,
when the prefix table of the first two blocks of the mark at 2 is not
built yet.  Every candidate signature is tested twice: on a fresh pool,
which takes that probe, and on a pool whose table is built, which goes
straight to the full compare.  Both agree with the walk over all 32
leaves of ``tests/pattern_sweep.py``, and every table the fresh pool
builds equals that of the walk's pool."""

from itertools import islice

import pytest

from sstkit import BudgetExceededError
from sstkit.analysis import _TUPLES, _Analysis, _UpdatePool, _build_pattern
from sstkit.model import Budget

from helpers import FIXTURES, draws
from pattern_sweep import ReferencePool, searched_candidates

# the golden machines, and larger draws whose signatures share legs across
# up to four variables
CASES = FIXTURES + draws(range(40)) + draws(range(40), 6, 4)


def candidates(sst, limit=40):
    """The first ``limit`` candidates of the search, at component length 2."""
    out = []
    try:
        out.extend(islice(searched_candidates(_UpdatePool(sst), 2, Budget(3000)), limit))
    except BudgetExceededError:
        pass
    return out


def fresh_signature(sst, pattern):
    pool = _UpdatePool(sst)
    return pool, pool.signature(pattern)


def divergence_tests(sst) -> list:
    """(kind, first divergent tuple) of each candidate, where kind is
    "last block" (decided before any probe), "probe" (decided by the
    probe) or "compare" (the probe passed and the full compare ran); every
    answer checked against the walk and against a warmed pool."""
    out, context = [], _Analysis(sst)
    for _, *shape in candidates(sst):
        pattern = _build_pattern(context, *shape)
        reference = ReferencePool(sst)
        want = reference.first_divergent_tuple(reference.signature(pattern))

        probed, signature = fresh_signature(sst, pattern)
        # both pools interned the same paths in the same order
        assert signature == reference.signature(pattern)
        alpha, (leg0, leg1, _), _, _ = signature
        got = probed.first_divergent_tuple(signature)
        assert got == want, shape
        if (alpha, (leg0, leg1)) in probed._prefixes:
            kind = "compare"
        elif got == _TUPLES[0]:
            kind = "probe"
        else:
            kind = "last block"
            assert got is None
        for key in list(probed._prefixes):
            assert probed.prefix(*key) == reference.prefix(*key), key
        for key in list(probed._suffixes):
            assert probed.suffix(*key) == reference.suffix(*key), key

        warmed, signature = fresh_signature(sst, pattern)
        warmed.prefix(alpha, (leg0, leg1))
        assert warmed.first_divergent_tuple(signature) == want, shape
        out.append((kind, got))
    return out


@pytest.mark.parametrize("label, make", CASES, ids=[c[0] for c in CASES])
def test_probe_and_full_compare_match_the_walk(label, make):
    divergence_tests(make())


def test_corpus_has_every_path_of_the_test():
    """The cases include signatures decided off the last block, by the probe,
    and by the full compare after the probe, both divergent (at a later
    tuple) and not."""
    kinds = set()
    for _, make in CASES:
        kinds.update((kind, tup is None) for kind, tup in divergence_tests(make()))
    assert kinds == {("last block", True), ("probe", False),
                     ("compare", True), ("compare", False)}
