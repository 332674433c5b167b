"""Golden witnesses: the dumbbells, valuedness verdicts and CLI reports that
refactoring sstkit must leave unchanged.

``cases()`` computes every golden value; ``tests/test_golden.py`` compares
it with the committed ``golden_witnesses.json``.  Regenerate the file, after
a deliberate change of behaviour only, with

    PYTHONPATH=src python3 tests/regen_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_witnesses.json")
sys.path.insert(0, HERE)

from sstkit import (  # noqa: E402
    BudgetExceededError,
    SearchBudget,
    analyze_valuedness,
    find_dumbbell,
    fixtures,
)
from sstkit.cli import main  # noqa: E402

from helpers import random_sst  # noqa: E402

SEEDS = range(40)
VALUEDNESS_BUDGET = dict(component_length=2, candidates=200, node_budget=5000, oracle_max_len=5)
# a deeper search on the fixtures, and a tight dumbbell budget on larger
# draws, so that budget stops are pinned as well as answers
DEEP_BUDGET = dict(component_length=3, candidates=2000, node_budget=5000, oracle_max_len=5)
SMALL_NODE_BUDGET = 1000
WORDS = {"a": "aaa", "0": "0110"}  # eval/runs input, by a fixture's first letter


def machines():
    for name in fixtures.names():
        yield name, fixtures.load(name)
    for s in SEEDS:
        yield f"random_sst({s})", random_sst(random.Random(s))


def analyses() -> dict:
    out = {}
    for label, m in machines():
        dumbbell = find_dumbbell(m)
        out[label] = {
            "dumbbell": None if dumbbell is None else dumbbell.describe(),
            "valuedness": analyze_valuedness(m, SearchBudget(**VALUEDNESS_BUDGET)).to_json(),
        }
    return out


def wide_dumbbells() -> dict:
    """``find_dumbbell`` at a node budget of 1,000 on 6-state, 4-variable
    draws; a budget stop is recorded as such."""
    out = {}
    for s in SEEDS:
        m = random_sst(random.Random(s), max_states=6, max_vars=4)
        try:
            dumbbell = find_dumbbell(m, node_budget=SMALL_NODE_BUDGET)
        except BudgetExceededError as err:
            out[f"random_sst({s}, 6, 4)"] = {"budget_stop": str(err)}
            continue
        out[f"random_sst({s}, 6, 4)"] = {
            "dumbbell": None if dumbbell is None else dumbbell.describe()
        }
    return out


def deep_analyses() -> dict:
    return {
        name: analyze_valuedness(fixtures.load(name), SearchBudget(**DEEP_BUDGET)).to_json()
        for name in fixtures.names()
    }


def cli_argvs(name: str, path: str) -> dict[str, list[str]]:
    word = WORDS[fixtures.load(name).alphabet[0]]
    return {
        "validate": ["validate", path],
        "ambiguity": ["ambiguity", path, "--budget", "1000"],
        "eval": ["eval", path, "--input", word],
        "runs": ["runs", path, "--input", word],
        "oracle": ["oracle", path, "--max-len", "4"],
    }


def valuedness_argv(path: str) -> list[str]:
    return ["valuedness", path, "--budget", "200", "--component-len", "2",
            "--max-len", "5", "--amplify", "3"]


def _json_reports(argvs) -> dict:
    """``--json`` reports on the fixtures, minus ``wall_time_s``, keyed by
    "<command> <fixture>"; ``argvs(name, path)`` maps each command to its
    argument list.  The documents are written under relative names so the
    report keys do not depend on where the files live."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in fixtures.names():
                path = name.lower().replace("-", "_") + ".sst"
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(fixtures.source(name))
                for command, argv in argvs(name, path).items():
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = main(argv + ["--json"])
                    report = json.loads(buf.getvalue())
                    report.pop("wall_time_s")
                    out[f"{command} {name}"] = {"exit_code": code, "report": report}
        finally:
            os.chdir(cwd)
    return out


def cli_reports() -> dict:
    return _json_reports(cli_argvs)


def valuedness_reports() -> dict:
    """``valuedness --json`` with amplification on the fixtures, which pins
    the budget report and the amplified outputs."""
    return _json_reports(lambda name, path: {"valuedness": valuedness_argv(path)})


def cases() -> dict:
    return {
        "analyses": analyses(),
        "cli": cli_reports(),
        "deep_analyses": deep_analyses(),
        "valuedness_cli": valuedness_reports(),
        "wide_dumbbells": wide_dumbbells(),
    }


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(cases(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
