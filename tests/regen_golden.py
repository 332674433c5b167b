"""Golden witnesses: the dumbbells, valuedness verdicts and CLI reports that
refactoring sstkit must leave unchanged.

``cases()`` computes every golden value, one section each:

- ``analyses``: dumbbells and valuedness verdicts on the fixtures and
  draws, at a small search budget;
- ``cli_all``: every subcommand on every fixture in text and ``--json``
  mode, and the error and usage paths;
- ``deep_analyses``: verdicts on the fixtures at a deeper search budget;
- ``default_budget``: ``sstkit valuedness --amplify 3 --json`` on every
  fixture at the default search budget;
- ``dumbbell_nodes``: the nodes each dumbbell search pops;
- ``long_word``: the semantic cover and the ``runs`` report on a long word;
- ``looping_witnesses``: draws whose witnesses' loops move every output,
  amplified;
- ``wide_dumbbells``: dumbbell searches on wider draws at a tight budget.

``tests/test_golden.py`` compares them with the committed
``golden_witnesses.json``, and the file's bytes with what ``text`` writes.
A pinned ``--json`` report must be byte for byte ``json.dumps`` output.
Regenerate the file, after a deliberate change of behaviour only, with

    PYTHONPATH=src python3 tests/regen_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_witnesses.json")
sys.path.insert(0, HERE)

from sstkit import (  # noqa: E402
    Budget,
    BudgetExceededError,
    SearchBudget,
    amplify_valuedness,
    analyze_valuedness,
    find_dumbbell,
    fixtures,
    semantic_cover,
)
from sstkit.cli import main  # noqa: E402

from helpers import FIXTURES, draws  # noqa: E402

SEEDS = range(40)
VALUEDNESS_BUDGET = dict(component_length=2, candidates=200, node_budget=5000, oracle_max_len=5)
# a deeper search on the fixtures, and a tight dumbbell budget on larger
# draws, so that budget stops are pinned as well as answers
DEEP_BUDGET = dict(component_length=3, candidates=2000, node_budget=5000, oracle_max_len=5)
SMALL_NODE_BUDGET = 1000
# the largest node budget dumbbell_nodes() tries
NODE_CEILING = 20_000
# draws whose Infinite witnesses have non-empty loops, by seed, with the
# search budget of each; their witnesses are amplified to AMPLIFY_M outputs
# within AMPLIFY_UNITS
LOOPING_DRAWS = {418: VALUEDNESS_BUDGET, 444: VALUEDNESS_BUDGET, 388: DEEP_BUDGET}
AMPLIFY_M = 3
AMPLIFY_UNITS = 100_000
WORDS = {"a": "aaa", "0": "0110"}  # eval/runs input, by a fixture's first letter
# FIX-TSC has 2,048 accepting runs on it, with 512 distinct tagged outputs
LONG_WORD = "0110100110"


def machines():
    for label, make in FIXTURES + draws(SEEDS):
        yield label, make()


def analyses() -> dict:
    out = {}
    for label, m in machines():
        dumbbell = find_dumbbell(m)
        out[label] = {
            "dumbbell": None if dumbbell is None else dumbbell.describe(),
            "valuedness": analyze_valuedness(m, SearchBudget(**VALUEDNESS_BUDGET)).to_json(),
        }
    return out


def looping_witnesses() -> dict:
    """The verdicts of ``LOOPING_DRAWS``, whose witnesses' entries, loops
    and exits take 0, 2, 2 (seed 418), 1, 2, 1 (444) and 1, 2, 3 (388)
    transitions, so that the loop counts move every output; and the input,
    outputs and units of amplifying each witness."""
    out = {}
    for seed, knobs in LOOPING_DRAWS.items():
        ((label, make),) = draws([seed])
        m, budget = make(), Budget(AMPLIFY_UNITS)
        verdict = analyze_valuedness(m, SearchBudget(**knobs))
        out[label] = {
            "valuedness": verdict.to_json(),
            "amplified": amplify_valuedness(m, verdict.witness, AMPLIFY_M, budget),
            "amplify_units": budget.used,
        }
    return out


def wide_dumbbells() -> dict:
    """``find_dumbbell`` at a node budget of 1,000 on 6-state, 4-variable
    draws; a budget stop is recorded as such."""
    out = {}
    for label, make in draws(SEEDS, 6, 4):
        try:
            dumbbell = find_dumbbell(make(), node_budget=SMALL_NODE_BUDGET)
        except BudgetExceededError as err:
            out[label] = {"budget_stop": str(err)}
            continue
        out[label] = {"dumbbell": None if dumbbell is None else dumbbell.describe()}
    return out


def _least_node_budget(m) -> int | None:
    """The smallest ``node_budget`` at which ``find_dumbbell(m)`` completes,
    or None above ``NODE_CEILING``: the number of nodes the search pops.  A
    search completes at every budget from that number on, so galloping up
    and then bisecting finds it."""
    def completes(budget: int) -> bool:
        try:
            find_dumbbell(m, node_budget=budget)
        except BudgetExceededError:
            return False
        return True

    if not completes(NODE_CEILING):
        return None
    low, high = 0, 1  # the least budget lies in (low, high]
    while not completes(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if completes(mid) else (mid, high)
    return high


def dumbbell_nodes() -> dict:
    """How many nodes ``find_dumbbell`` pops, and whether it finds a
    dumbbell, on the fixtures and 6-state, 4-variable draws; "over" when it
    needs more than ``NODE_CEILING``."""
    out = {}
    for label, make in FIXTURES + draws(SEEDS, 6, 4):
        m = make()
        nodes = _least_node_budget(m)
        out[label] = "over" if nodes is None else {
            "nodes": nodes, "found": find_dumbbell(m, node_budget=nodes) is not None,
        }
    return out


def deep_analyses() -> dict:
    return {
        name: analyze_valuedness(fixtures.load(name), SearchBudget(**DEEP_BUDGET)).to_json()
        for name in fixtures.names()
    }


@contextlib.contextmanager
def _fixture_dir():
    """Write the fixture documents into a temporary working directory, under
    relative names so that reports and messages do not depend on where the
    files live, and yield a dict from fixture name to file name."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            paths = {}
            for name in fixtures.names():
                paths[name] = name.lower().replace("-", "_") + ".sst"
                with open(paths[name], "w", encoding="utf-8") as handle:
                    handle.write(fixtures.source(name))
            yield paths
        finally:
            os.chdir(cwd)


def _invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# equiv's second document, by a fixture's first letter
PARTNER = {"a": "FIX-AMB", "0": "FIX-TSC1"}
BAD_DOC = ("alphabet: a\nvars: X1\nstates: q\ninitial: q\n"
           "final q -> X1\ntrans q a q { X1 := X1 X1 }\n")
# error paths, on FIX-TSC (written as fix_tsc.sst), a CRLF copy of it and
# the copyless-violating BAD_DOC
ERROR_ARGVS = {
    "missing file": ["validate", "missing.sst"],
    "missing second file": ["equiv", "fix_tsc.sst", "missing.sst"],
    "copyless violation": ["validate", "bad.sst"],
    "copyless violation second file": ["equiv", "fix_tsc.sst", "bad.sst"],
    "crlf validate": ["validate", "fix_tsc_crlf.sst"],
    "crlf equiv": ["equiv", "fix_tsc.sst", "fix_tsc_crlf.sst"],
    "delay --run2 99": ["delay", "fix_tsc.sst", "--input", "00", "--run2", "99"],
    "eval unknown letter": ["eval", "fix_tsc.sst", "--input", "z"],
}
# argparse's usage text differs between Python versions: exit codes only
USAGE_ARGVS = {
    "unknown flag": ["oracle", "fix_tsc.sst", "--no-such-flag"],
    "no command": [],
    "decompose --k 0": ["decompose", "fix_tsc.sst", "--k", "0"],
}


def cli_all_argvs(name: str, path: str, paths: dict[str, str]) -> dict[str, list[str]]:
    """All nine subcommands on one fixture; ``valuedness`` amplifies, which
    pins the budget report and the amplified outputs."""
    first = fixtures.load(name).alphabet[0]
    word = WORDS[first]
    return {
        "validate": ["validate", path],
        "ambiguity": ["ambiguity", path, "--budget", "1000"],
        "eval": ["eval", path, "--input", word],
        "runs": ["runs", path, "--input", word],
        "oracle": ["oracle", path, "--max-len", "4"],
        "valuedness": ["valuedness", path, "--budget", "200", "--component-len", "2",
                       "--max-len", "5", "--amplify", "3"],
        "delay": ["delay", path, "--input", word, "--C", "1"],
        "decompose": ["decompose", path, "--k", "2", "--max-len", "2"],
        "equiv": ["equiv", path, paths[PARTNER[first]], "--max-len", "4"],
    }


def _pinned(argv: list[str], modes=("text", "json")) -> dict:
    """Exit code, stdout and stderr of one invocation in each of ``modes``,
    text and ``--json``; a JSON report is stored parsed, without
    wall_time_s, and raises ValueError unless its bytes are exactly what
    ``json.dumps(report, sort_keys=True, indent=2)`` prints."""
    out = {}
    for mode in modes:
        code, stdout, stderr = _invoke(argv + (["--json"] if mode == "json" else []))
        if mode == "json" and stdout:
            report = json.loads(stdout)
            if stdout != json.dumps(report, sort_keys=True, indent=2) + "\n":
                raise ValueError(f"{argv}: the --json report is not json.dumps output")
            report.pop("wall_time_s")
            stdout = report
        out[mode] = {"exit_code": code, "stdout": stdout, "stderr": stderr}
    return out


@contextlib.contextmanager
def cli_argvs():
    """Write the documents of ``cli_all`` into a temporary working directory
    and yield each invocation it pins, by label: every subcommand on every
    fixture, then the error paths (the usage paths are left out)."""
    with _fixture_dir() as paths:
        with open("bad.sst", "w", encoding="utf-8") as handle:
            handle.write(BAD_DOC)
        with open("fix_tsc_crlf.sst", "wb") as handle:
            handle.write(fixtures.source("FIX-TSC").replace("\n", "\r\n").encode("utf-8"))
        argvs = {}
        for name, path in paths.items():
            for command, argv in cli_all_argvs(name, path, paths).items():
                argvs[f"{command} {name}"] = argv
        yield {**argvs, **ERROR_ARGVS}


def cli_all() -> dict:
    """Every subcommand on every fixture, plus error and usage paths."""
    out = {}
    with cli_argvs() as argvs:
        for label, argv in argvs.items():
            out[label] = _pinned(argv)
        for label, argv in USAGE_ARGVS.items():
            out[label] = {"exit_code": _invoke(argv)[0]}
    return out


def default_budget() -> dict:
    """``sstkit valuedness --amplify 3`` at the default search budget on
    every fixture, in ``--json`` mode only: FIX-TSC spends the whole
    budget and FIX-R2 tests every candidate up to the default component
    length, both Unknown, and the Infinite witnesses of FIX-TSC1 and
    FIX-AMB are amplified at the defaults."""
    with _fixture_dir() as paths:
        return {name: _pinned(["valuedness", path, "--amplify", "3"], modes=("json",))
                for name, path in paths.items()}


def long_word() -> dict:
    """On FIX-TSC and ``LONG_WORD``: the survivors and units of
    ``semantic_cover`` at C = D = 2, and the exit code, run count and
    sha256 of the ``runs --json`` report with ``wall_time_s`` masked."""
    sst, budget = fixtures.load("FIX-TSC"), Budget()
    cover = semantic_cover(sst, LONG_WORD, 2, 2, budget)
    with _fixture_dir() as paths:
        code, stdout, _ = _invoke(["runs", paths["FIX-TSC"], "--input", LONG_WORD, "--json"])
    masked = re.sub(r'"wall_time_s": [^,\n}]*', '"wall_time_s": null', stdout)
    return {
        "cover": [[run.start, list(run.steps)] for run in cover],
        "cover_used": budget.used,
        "runs": {"exit_code": code, "count": len(json.loads(stdout)["result"]["runs"]),
                 "sha256": hashlib.sha256(masked.encode("utf-8")).hexdigest()},
    }


def cases() -> dict:
    return {
        "analyses": analyses(),
        "cli_all": cli_all(),
        "deep_analyses": deep_analyses(),
        "default_budget": default_budget(),
        "dumbbell_nodes": dumbbell_nodes(),
        "long_word": long_word(),
        "looping_witnesses": looping_witnesses(),
        "wide_dumbbells": wide_dumbbells(),
    }


def text(golden: dict) -> str:
    """The text of the golden file that holds ``golden``."""
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(text(cases()))
    print(f"wrote {GOLDEN}")
