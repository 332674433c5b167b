import builtins
import hashlib
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import sstkit
from sstkit import Run, SearchBudget, enumerate_runs, words_over
from sstkit import cli
from sstkit.cli import _build_parser, _to_json, main

from helpers import FIXTURES, draws
from corpus import render, spec_of  # helpers puts bench/ on sys.path
from regen_golden import USAGE_ARGVS, cli_argvs

WALL_TIME = re.compile(r'"wall_time_s": [^,\n]+')


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("machines")
    paths = {}
    for name in sstkit.fixtures.names():
        path = root / (name.lower().replace("-", "_") + ".sst")
        path.write_text(sstkit.fixtures.source(name))
        paths[name] = str(path)
    bad = root / "bad.sst"
    bad.write_text(
        "alphabet: a\nvars: X1\nstates: q\ninitial: q\n"
        "final q -> X1\ntrans q a q { X1 := X1 X1 }\n"
    )
    paths["bad"] = str(bad)
    not_utf8 = root / "not_utf8.sst"
    not_utf8.write_bytes(sstkit.fixtures.source("FIX-TSC").encode("utf-8") + b"# \xff\n")
    paths["not_utf8"] = str(not_utf8)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(docs, capsys):
    code, out = run(capsys, "validate", docs["FIX-TSC"])
    assert code == 0
    assert "transitions: 8" in out


def test_validate_copyless_violation_exits_2(docs, capsys):
    code = main(["validate", docs["bad"]])
    captured = capsys.readouterr()
    assert code == 2
    assert "X1" in captured.err


def test_eval_lists_outputs(docs, capsys):
    code, out = run(capsys, "eval", docs["FIX-R2"], "--input", "001011")
    assert code == 0
    for word in ("'00'", "'10'", "'11'"):
        assert word in out


def test_runs_command(docs, capsys):
    code, out = run(capsys, "runs", docs["FIX-AMB"], "--input", "aa")
    assert code == 0
    assert "accepting runs: 4" in out


RUNS_CASES = FIXTURES + draws(range(12))


@pytest.mark.parametrize("label, make", RUNS_CASES, ids=[label for label, _ in RUNS_CASES])
def test_runs_lists_each_run_with_its_output(tmp_path, capsys, label, make):
    """``runs --json`` lists the runs of ``enumerate_runs``, each with the
    output that ``Run.output`` computes on its own, on every input up to
    length 4."""
    sst = make()
    path = tmp_path / "machine.sst"
    path.write_text(sstkit.fixtures.source(label) if label in sstkit.fixtures.names()
                    else render(spec_of(sst)))
    for word in words_over(sst.alphabet, 0, 4):
        assert main(["runs", str(path), "--input", word, "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)["result"]["runs"]
        assert [(r["start"], tuple(r["steps"])) for r in listed] == [
            (run.start, run.steps) for run in enumerate_runs(sst, word)]
        for r in listed:
            assert r["output"] == Run(sst, r["start"], tuple(r["steps"])).output, (word, r)


def test_ambiguity_exit_codes(docs, capsys):
    assert run(capsys, "ambiguity", docs["FIX-ID"])[0] == 0
    code, out = run(capsys, "ambiguity", docs["FIX-AMB"])
    assert code == 1
    assert "dumbbell" in out


def test_valuedness_infinite_json(docs, capsys):
    code, out = run(capsys, "valuedness", docs["FIX-TSC1"], "--json", "--budget", "50000")
    assert code == 1
    payload = json.loads(out)
    assert payload["kind"] == "Infinite"
    witness = payload["evidence"]["witness"]
    assert witness["outputs"][0] != witness["outputs"][1]


def test_valuedness_finite_and_unknown(docs, capsys):
    assert run(capsys, "valuedness", docs["FIX-ID"])[0] == 0
    code, out = run(
        capsys, "valuedness", docs["FIX-TSC"],
        "--budget", "2000", "--component-len", "2",
    )
    assert code == 2
    assert "Unknown" in out


def test_valuedness_amplify(docs, capsys):
    code, out = run(
        capsys, "valuedness", docs["FIX-TSC1"],
        "--budget", "50000", "--amplify", "3",
    )
    assert code == 1
    assert "3 distinct outputs" in out


def test_delay_table(docs, capsys):
    code, out = run(
        capsys, "delay", docs["FIX-TSC"], "--input", "00",
        "--C", "1", "--run1", "0", "--run2", "3",
    )
    assert code == 0
    assert "delay=0" in out


def test_decompose_table(docs, capsys):
    code, out = run(capsys, "decompose", docs["FIX-TSC"], "--k", "2", "--max-len", "2")
    assert code == 0
    assert "'01'" in out and "'10'" in out


def test_equiv_counterexample(docs, capsys):
    code, out = run(capsys, "equiv", docs["FIX-TSC"], docs["FIX-TSC1"], "--max-len", "4")
    assert code == 1
    assert "counterexample: '0'" in out
    assert run(capsys, "equiv", docs["FIX-TSC"], docs["FIX-TSC"])[0] == 0


@pytest.mark.parametrize("min_len, max_len, message", [
    ("1", "4", "equal up to length 4"),
    ("3", "4", "equal on lengths 3..4"),
    ("0", "2", "equal on lengths 0..2"),
])
def test_equiv_names_the_lengths_compared(docs, capsys, min_len, max_len, message):
    code, out = run(capsys, "equiv", docs["FIX-TSC"], docs["FIX-TSC"],
                    "--min-len", min_len, "--max-len", max_len)
    assert code == 0
    assert out == message + "\n"


def test_oracle_readings(docs, capsys):
    code, out = run(capsys, "oracle", docs["FIX-TSC"], "--max-len", "4")
    assert code == 0
    assert "max outputs per input: 2" in out


def test_json_reports_are_deterministic(docs, capsys):
    _, first = run(capsys, "oracle", docs["FIX-TSC"], "--max-len", "3", "--json")
    _, second = run(capsys, "oracle", docs["FIX-TSC"], "--max-len", "3", "--json")
    a, b = json.loads(first), json.loads(second)
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert a == b


@pytest.mark.parametrize("value", [
    {"caf\u00e9 \u2603 \U0001d11e": "\u00ff\u2028\U0001f600", 'say "hi"': "a\\b", "\x00\t\n\x1f\x7f": "\r\x08\x0c"},
    {}, [], (), {"a": {}, "b": [], "c": [[], {}, ()], "d": {"e": {"f": []}}},
    [[[]]], ([1, (2, 3)], ()),
    [True, 1, 0, False, None, 2.5, -0.0, 1e100, 0.1, float("inf")],
    {"z": None, "a": True, "m": [1.25, "x"], "": 0},
    "plain \"quoted\" \u00e9", 7, None, False, 3.0,
])
def test_report_writer_matches_json_dumps(value):
    assert _to_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1, 2}, {"a": [frozenset()]}, [b"bytes"], {"a": object()}])
def test_report_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        _to_json(value)


def test_unknown_arguments_exit_2(docs, capsys):
    assert main(["oracle", docs["FIX-TSC"], "--no-such-flag"]) == 2
    capsys.readouterr()


# every count option, on a command that takes it
COUNT_OPTIONS = [
    ("eval", "--budget"), ("runs", "--budget"), ("ambiguity", "--budget"),
    ("valuedness", "--budget"), ("valuedness", "--component-len"),
    ("valuedness", "--max-len"), ("valuedness", "--amplify"), ("delay", "--budget"),
    ("decompose", "--max-len"), ("decompose", "--D"), ("decompose", "--budget"),
    ("equiv", "--max-len"),
    ("equiv", "--min-len"), ("equiv", "--budget"), ("oracle", "--max-len"),
    ("oracle", "--budget"),
]


def _negative_count_argv(docs, command, option):
    files = [docs["FIX-TSC"]] * (2 if command == "equiv" else 1)
    extra = {"eval": ["--input", "0"], "runs": ["--input", "0"],
             "delay": ["--input", "0"], "decompose": ["--k", "1"]}.get(command, [])
    return [command, *files, *extra, option, "-1"]


@pytest.mark.parametrize("command, option", COUNT_OPTIONS)
def test_negative_count_is_a_usage_error(docs, capsys, command, option):
    assert main(_negative_count_argv(docs, command, option)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {option}: must not be negative: -1" in captured.err


@pytest.mark.parametrize("argv", [
    ["decompose", "FIX-AMB", "--k", "1", "--max-len", "1"],
    ["decompose", "FIX-AMB", "--k", "1", "--max-len", "3"],
    ["delay", "FIX-TSC", "--input", "00"],
])
@pytest.mark.parametrize("period", ["0", "-1"])
def test_cut_period_below_one_is_a_usage_error(docs, capsys, argv, period):
    """``--C`` is checked when the command line is read, not once some pair
    of runs needs a delay: a short scan that compares no runs refuses it
    too."""
    assert main([docs.get(a, a) for a in argv] + ["--C", period]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --C: must be at least 1: {period}" in captured.err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_selector_count_below_one_is_a_usage_error(tmp_path, capsys, k):
    """``--k`` is checked when the command line is read, before any
    document is: with a missing document, the usage error names ``--k``."""
    assert main(["decompose", str(tmp_path / "missing.sst"), "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --k: must be at least 1: {k}" in captured.err


@pytest.mark.parametrize("flag", ["--run1", "--run2"])
def test_negative_run_index_is_a_usage_error(tmp_path, capsys, flag):
    """``--run1`` and ``--run2`` are checked when the command line is read,
    before any document is: with a missing document, the usage error names
    the flag."""
    assert main(["delay", str(tmp_path / "missing.sst"), "--input", "0", flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: must not be negative: -1" in captured.err


def test_non_integer_count_is_a_usage_error(docs, capsys):
    assert main(["ambiguity", docs["FIX-TSC"], "--budget", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --budget: invalid int value: 'x'" in captured.err


def test_zero_counts_are_allowed(docs, capsys):
    assert main(["oracle", docs["FIX-TSC"], "--max-len", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: empty length range 1..0" in captured.err
    assert main(["equiv", docs["FIX-TSC"], docs["FIX-TSC"], "--min-len", "0", "--max-len", "0"]) == 0
    capsys.readouterr()
    code, out = run(capsys, "valuedness", docs["FIX-TSC"], "--component-len", "0",
                    "--max-len", "1", "--amplify", "0", "--json")
    assert code == 2
    assert json.loads(out)["knobs"]["component_len"] == 0
    # a budget of 0 is a budget stop, not a usage error
    assert main(["ambiguity", docs["FIX-TSC"], "--budget", "0"]) == 2
    assert "budget of 0 expansion nodes exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("argv, length_range", [
    (["equiv", "FIX-TSC", "FIX-TSC1", "--min-len", "3", "--max-len", "2"], "3..2"),
    (["equiv", "FIX-TSC", "FIX-TSC1", "--max-len", "0"], "1..0"),
    (["oracle", "FIX-TSC", "--max-len", "0", "--json"], "1..0"),
    (["valuedness", "FIX-TSC", "--max-len", "0"], "1..0"),
])
def test_empty_length_range_is_a_usage_error(docs, capsys, argv, length_range):
    """A scan over no input length is refused, not reported as an empty
    scan."""
    assert main([docs.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: empty length range {length_range}: "
                            f"--max-len must be at least {length_range.split('..')[0]}\n")


def test_missing_file_exits_2(capsys):
    assert main(["validate", "/nonexistent/machine.sst"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["validate", "equiv"])
def test_non_utf8_document_is_a_parse_error(docs, capsys, command):
    argv = {"validate": ["validate", docs["not_utf8"]],
            "equiv": ["equiv", docs["FIX-TSC"], docs["not_utf8"]]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {docs['not_utf8']}: not UTF-8")


def test_byte_order_mark_is_not_part_of_the_document(docs, tmp_path, capsys):
    """A UTF-8 file may start with a byte-order mark.  The report's digest
    is that of the file's bytes, and a decoding error still counts its
    byte offset from the start of the file, the mark included."""
    raw = b"\xef\xbb\xbf" + sstkit.fixtures.source("FIX-TSC").encode("utf-8")
    path = tmp_path / "bom.sst"
    path.write_bytes(raw)
    code, out = run(capsys, "validate", str(path), "--json")
    assert code == 0
    _, plain = run(capsys, "validate", docs["FIX-TSC"], "--json")
    assert json.loads(out)["result"] == json.loads(plain)["result"]
    assert json.loads(out)["files"] == {str(path): hashlib.sha256(raw).hexdigest()}

    path.write_bytes(b"\xef\xbb\xbfab\xff")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 (invalid start byte at byte 5)\n"


def _two_ways(capsys, monkeypatch, argv):
    """The exit code, stdout (``wall_time_s`` masked) and stderr of
    ``main(argv)``, then of the same call on the two-level path that
    ``main`` shortens: the top-level parser's ``parse_args`` and the
    handler."""
    outcomes = []
    for parse in (cli._parse_args, lambda argv: _build_parser().parse_args(argv)):
        monkeypatch.setattr(cli, "_parse_args", parse)
        code = main(list(argv))
        captured = capsys.readouterr()
        outcomes.append((code, WALL_TIME.sub('"wall_time_s": -', captured.out), captured.err))
    return outcomes


def test_routing_matches_the_two_level_parse_on_the_golden_argvs(capsys, monkeypatch):
    checked = 0
    with cli_argvs() as argvs:
        for label, argv in {**argvs, **USAGE_ARGVS}.items():
            for extra in ([], ["--json"]):
                routed, reference = _two_ways(capsys, monkeypatch, argv + extra)
                assert routed == reference, (label, extra)
                checked += 1
    assert checked == 2 * 56


# argvs that reach past a subcommand's own parser, with F for a document
ROUTING_ARGVS = [
    [], ["-h"], ["--version"], ["no-such-command", "F"], ["-x", "validate", "F"],
    ["validate"], ["validate", "-h"], ["validate", "F", "F"], ["validate", "F", "--version"],
    ["validate", "F", "--js"], ["validate", "--", "F"],
    ["eval", "F", "--input"], ["oracle", "F", "--no-such-flag"],
]


@pytest.mark.parametrize("argv", ROUTING_ARGVS, ids=lambda argv: " ".join(argv) or "no argv")
def test_routing_matches_the_two_level_parse(docs, capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    routed, reference = _two_ways(capsys, monkeypatch, [docs["FIX-TSC"] if a == "F" else a
                                                        for a in argv])
    assert routed == reference


def test_parser_is_built_once(docs, capsys, monkeypatch):
    assert main(["validate", docs["FIX-ID"]]) == 0

    def rebuilt(*args, **kwargs):
        raise AssertionError("main() built a second parser")

    monkeypatch.setattr("argparse.ArgumentParser", rebuilt)
    assert main(["validate", docs["FIX-ID"]]) == 0
    assert main(["oracle", docs["FIX-ID"], "--no-such-flag"]) == 2
    capsys.readouterr()


def test_valuedness_defaults_are_the_search_budget_defaults():
    args = _build_parser().parse_args(["valuedness", "machine.sst"])
    parsed = SearchBudget(component_length=args.component_len, candidates=args.budget,
                          oracle_max_len=args.max_len)
    assert parsed == SearchBudget()


def test_each_document_is_opened_once(docs, capsys, monkeypatch):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["equiv", docs["FIX-TSC"], docs["FIX-TSC1"], "--max-len", "2"]) == 1
    assert main(["validate", docs["FIX-ID"], "--json"]) == 0
    assert opened == [docs["FIX-TSC"], docs["FIX-TSC1"], docs["FIX-ID"]]
    capsys.readouterr()


def _python_dash_m_sstkit(*argv, options=()):
    """A fresh ``python -m sstkit`` process: ``main()`` reads ``sys.argv``,
    as the ``sstkit`` console script does."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    return subprocess.run([sys.executable, *options, "-m", "sstkit", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m_sstkit(docs, capsys, monkeypatch):
    argv = ["validate", docs["FIX-TSC"], "--json"]
    proc = _python_dash_m_sstkit(*argv)
    assert proc.returncode == 0
    code, out = run(capsys, *argv)
    assert code == 0
    via_module, via_main = json.loads(proc.stdout), json.loads(out)
    via_module.pop("wall_time_s"), via_main.pop("wall_time_s")
    assert via_module == via_main
    assert _python_dash_m_sstkit().returncode == 2
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["--version"], ["--help"], ["validate", docs["FIX-TSC"]],
                 ["oracle", docs["FIX-TSC"], "--max-len", "3"], ["no-such-command"]):
        proc = _python_dash_m_sstkit(*argv)
        code = main(argv)
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err), argv


def _imported(*argv) -> set[str]:
    """The modules that a fresh ``python -m sstkit`` process imports, read
    off its ``-X importtime`` lines."""
    proc = _python_dash_m_sstkit(*argv, options=("-X", "importtime"))
    assert proc.returncode == 0, (argv, proc.stderr[-300:])
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")}


# the built-in SHA-256 modules of Python 3.12 and later, and of 3.10 and 3.11
BUILT_IN_SHA256 = [name for name in ("_sha2", "_sha256") if importlib.util.find_spec(name)]


def test_digest_is_the_sha256_of_the_bytes(docs):
    """The report's digest constructor, resolved once per process, is the
    built-in module's where there is one, and agrees with ``hashlib``."""
    sha256 = cli._sha256()
    assert cli._sha256() is sha256
    if BUILT_IN_SHA256:
        assert sha256 is importlib.import_module(BUILT_IN_SHA256[0]).sha256
    raws = [b"", b"\xef\xbb\xbf" + sstkit.fixtures.source("FIX-TSC").encode("utf-8"),
            b"\xef\xbb\xbfab\xff", bytes(range(256))]
    for name in sstkit.fixtures.names():
        with open(docs[name], "rb") as handle:
            raws.append(handle.read())
    with open(docs["not_utf8"], "rb") as handle:
        raws.append(handle.read())
    for raw in raws:
        assert sha256(raw).hexdigest() == hashlib.sha256(raw).hexdigest(), raw[:20]


@pytest.mark.skipif(shutil.which("sha256sum") is None, reason="no sha256sum on PATH")
def test_digest_is_the_one_coreutils_prints(docs, capsys):
    """A digest oracle outside Python: the ``files`` of each fixture's
    ``validate --json`` report are what ``sha256sum`` prints for the file."""
    paths = [docs[name] for name in sstkit.fixtures.names()]
    listing = subprocess.run(["sha256sum", *paths], capture_output=True, text=True, check=True)
    expected = {path: digest for digest, path in
                (line.split("  ", 1) for line in listing.stdout.splitlines())}
    for path in paths:
        code, out = run(capsys, "validate", path, "--json")
        assert code == 0
        assert json.loads(out)["files"] == {path: expected[path]}


@pytest.mark.skipif(not BUILT_IN_SHA256, reason="no built-in SHA-256 module")
def test_no_command_imports_hashlib(docs):
    """The digests come from the built-in hash module, so no command, a
    ``--json`` report included, imports ``hashlib`` or ``_hashlib``, which
    map OpenSSL."""
    for argv in (["--version"], ["--help"], ["validate", docs["FIX-TSC"]],
                 ["validate", docs["FIX-TSC"], "--json"]):
        imported = _imported(*argv)
        assert "sstkit.cli" in imported, argv
        assert not imported & {"hashlib", "_hashlib"}, argv
    assert BUILT_IN_SHA256[0] in imported
