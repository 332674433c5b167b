"""A seeded mutant sweep of the document parser.

``mutants(n)`` derives ``n`` malformed or altered documents from the
fixture documents and from rendered ``random_sst`` draws.  Each mutant has
one to three edits: a deleted character, an inserted reserved token,
keyword, name, whitespace character or line break, or a duplicated or
deleted line.  ``check(doc)`` requires ``parse_sst`` either to raise one of
the errors it documents (``ParseError``, ``UnknownSymbolError`` or
``CopylessError``, each pointing at a line where the parser knows one) or
to return a machine that ``spec_of`` -> ``render`` -> ``parse_sst`` gives
back unchanged.  Any other exception propagates.

The draws are ``random_sst(s)`` and ``random_sst(s, 6, 4)`` of
``tests/helpers.py`` for s < ``DRAWS``.  ``run(n)`` counts the outcomes
of ``n`` mutants; ``tests/test_parse_sweep.py`` runs a slice of it.  Run
the full sweep with

    PYTHONPATH=src python3 tests/parse_sweep.py 20000

which prints the count of each outcome through the shared ``main`` and
exits non-zero on the first mutant that breaks the rule, after printing
it.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from functools import lru_cache

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

from sstkit import CopylessError, ParseError, UnknownSymbolError, fixtures, parse_sst  # noqa: E402

from corpus import render, spec_of  # noqa: E402
from helpers import draws, main  # noqa: E402

DRAWS = 40  # random_sst draws per size, in addition to the fixtures
INSERTS = (";", "{", "}", ":=", "->", "=", "#", "trans", "final", "init", "alphabet:",
           "vars:", "states:", "initial:", "a", "X1", "s0", "\n", "\r\n", " ", "\t",
           "\u3000", "\ufeff")


@lru_cache(maxsize=None)
def sources() -> tuple[str, ...]:
    docs = [fixtures.source(name) for name in fixtures.names()]
    docs += [render(spec_of(make())) for _, make in draws(range(DRAWS)) + draws(range(DRAWS), 6, 4)]
    return tuple(docs)


def mutate(rng: random.Random, doc: str) -> str:
    kind = rng.randrange(4)
    if kind == 0 and doc:
        i = rng.randrange(len(doc))
        return doc[:i] + doc[i + 1:]
    if kind <= 1:
        i = rng.randrange(len(doc) + 1)
        pad = rng.choice(("", " "))
        return doc[:i] + pad + rng.choice(INSERTS) + pad + doc[i:]
    lines = doc.splitlines(keepends=True)
    if not lines:
        return doc
    j = rng.randrange(len(lines))
    if kind == 2:
        lines.insert(rng.randrange(len(lines) + 1), lines[j])
    else:
        del lines[j]
    return "".join(lines)


def mutants(n: int, seed: int = 0):
    rng = random.Random(seed)
    docs = sources()
    for _ in range(n):
        doc = rng.choice(docs)
        for _ in range(rng.randint(1, 3)):
            doc = mutate(rng, doc)
        yield doc


def check(doc: str) -> str:
    """The outcome of parsing ``doc``: the documented error class raised,
    or ``"parsed"``."""
    try:
        sst = parse_sst(doc)
    except (ParseError, UnknownSymbolError, CopylessError) as err:
        if err.line is None and not str(err).startswith("document never declares"):
            raise AssertionError(f"{type(err).__name__} without a line: {err}") from err
        if not isinstance(err, ParseError) and err.column is None:
            raise AssertionError(f"{type(err).__name__} without a column: {err}") from err
        return type(err).__name__
    spec = spec_of(sst)
    again = spec_of(parse_sst(render(spec)))
    if again != spec:
        raise AssertionError(f"the rendered machine parses differently: {spec} -> {again}")
    return "parsed"


def run(n: int, seed: int = 0) -> Counter:
    outcomes: Counter = Counter()
    for k, doc in enumerate(mutants(n, seed)):
        try:
            outcomes[check(doc)] += 1
        except Exception:
            print(f"mutant {k} (seed {seed}) broke the rule:\n{doc!r}", file=sys.stderr)
            raise
    return outcomes


if __name__ == "__main__":
    main(run, 20_000)
