"""The parser builds its machine without ``Sst._validate``: the machine
equals the one that ``Sst(...)`` builds from the same parts.  And
``Run.induced_update``, which folds image tuples, equals the step by step
``compose_updates`` fold that it replaced, kept here as the reference."""

import pytest

from sstkit import Update, compose_updates, enumerate_runs, parse_sst, words_over

from helpers import FIXTURES, draws
from corpus import build, render, spec_of  # helpers puts bench/ on sys.path

MACHINES = FIXTURES + draws(range(40)) + draws(range(40), 6, 4)
TABLES = ("_moves", "_predecessors", "_leaf_templates", "_templates", "_final_templates",
          "_starts", "_initial")


def reference_update(run) -> Update:
    """The induced update of ``run`` as one ``compose_updates`` per step."""
    acc = Update.identity(run.sst.variables)
    for i in run.steps:
        acc = compose_updates(run.sst.transitions[i].update, acc)
    return acc


@pytest.mark.parametrize("label, make", MACHINES, ids=[label for label, _ in MACHINES])
def test_parsed_machine_equals_the_validated_one(label, make):
    spec = spec_of(make())
    parsed, built = parse_sst(render(spec)), build(spec)
    assert spec_of(parsed) == spec_of(built) == spec
    for table in TABLES:
        assert getattr(parsed, table) == getattr(built, table), table


@pytest.mark.parametrize("label, make", MACHINES, ids=[label for label, _ in MACHINES])
def test_induced_update_equals_the_step_by_step_fold(label, make):
    sst = make()
    for word in words_over(sst.alphabet, 0, 4):
        for run in enumerate_runs(sst, word):
            assert run.induced_update == reference_update(run), (word, run.steps)
