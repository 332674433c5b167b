"""Verdicts, witnesses, budget counts and CLI reports equal the committed
golden file (see ``regen_golden.py``)."""

import json

import pytest

from regen_golden import (
    GOLDEN,
    analyses,
    cli_all,
    deep_analyses,
    dumbbell_nodes,
    wide_dumbbells,
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_analyses(golden):
    got = json.loads(json.dumps(analyses()))
    assert sorted(got) == sorted(golden["analyses"])
    for label, value in got.items():
        assert value == golden["analyses"][label], label


def test_golden_cli_all(golden):
    """All nine subcommands on the fixtures in text and --json mode, and the
    error paths: exit code, stdout and stderr."""
    got = cli_all()
    assert sorted(got) == sorted(golden["cli_all"])
    for key, value in got.items():
        assert value == golden["cli_all"][key], key


@pytest.mark.parametrize("section, compute", [
    ("deep_analyses", deep_analyses),
    ("dumbbell_nodes", dumbbell_nodes),
    ("wide_dumbbells", wide_dumbbells),
])
def test_golden_budgeted(golden, section, compute):
    got = json.loads(json.dumps(compute()))
    assert sorted(got) == sorted(golden[section])
    for label, value in got.items():
        assert value == golden[section][label], label
