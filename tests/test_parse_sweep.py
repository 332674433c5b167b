"""A slice of the parser's mutant sweep (``tests/parse_sweep.py``): every
mutant fails with a documented error that points at its line, or parses to
a machine that renders and parses back unchanged."""

from parse_sweep import run


def test_parser_mutants_fail_with_documented_errors_or_round_trip():
    outcomes = run(3000)
    # the slice reaches every outcome
    assert set(outcomes) == {"parsed", "ParseError", "UnknownSymbolError", "CopylessError"}
