"""Verdicts, witnesses, budget counts and CLI reports equal the committed
golden file (see ``regen_golden.py``), and so do its bytes."""

import json

import pytest

from regen_golden import GOLDEN, cases, text

BUDGETED = ["deep_analyses", "default_budget", "dumbbell_nodes", "long_word",
            "looping_witnesses", "wide_dumbbells"]


@pytest.fixture(scope="module")
def computed():
    return cases()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def check_section(golden, computed, section):
    got = json.loads(json.dumps(computed[section]))
    assert sorted(got) == sorted(golden[section])
    for label, value in got.items():
        assert value == golden[section][label], label


def test_golden_analyses(golden, computed):
    check_section(golden, computed, "analyses")


def test_golden_cli_all(golden, computed):
    """All nine subcommands on the fixtures in text and --json mode, and the
    error paths: exit code, stdout and stderr."""
    check_section(golden, computed, "cli_all")


# each id names the section twice, as the ids of these tests always have
@pytest.mark.parametrize("section", BUDGETED, ids=lambda section: f"{section}-{section}")
def test_golden_budgeted(golden, computed, section):
    check_section(golden, computed, section)


def test_golden_file_is_the_writers_text(computed):
    """The committed file is byte for byte what ``regen_golden.py`` writes,
    so it regenerates unchanged."""
    with open(GOLDEN, "rb") as handle:
        assert handle.read() == text(computed).encode("utf-8")
