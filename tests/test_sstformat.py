"""The parser's errors, pinned: one malformed document per ``raise`` in
``sstformat.py``, plus the whitespace, comment and line-boundary cases that
decide a token's column.  Each row fixes the exception class, its text,
and its line and column attributes."""

import pytest

from sstkit import CopylessError, ParseError, UnknownSymbolError, Update, parse_sst

H = "alphabet: a b\nvars: X1 X2\nstates: p q\ninitial: p\n"  # four lines
HEADERS = "alphabet: a\nvars: X1\nstates: p q\n"  # three lines

PINNED = [
    # (id, document, class, str(err), line, column)
    ("need-states", "trans p a q { }\n",
     ParseError, "line 1: 'states' must be declared before this line", 1, None),
    ("need-variables", "states: p\ntrans p a p { }\n",
     ParseError, "line 2: 'variables' must be declared before this line", 2, None),
    ("need-alphabet", "states: p\nvars: X1\nfinal p -> X1\n",
     ParseError, "line 3: 'alphabet' must be declared before this line", 3, None),
    ("letter-too-long", "alphabet: a bc\n",
     ParseError, "line 1, column 13: letters must be single characters, got 'bc'", 1, 13),
    ("duplicate-initial-line", H + "initial: q\n",
     ParseError, "line 5, column 1: duplicate 'initial:' line", 5, 1),
    ("unknown-declaration", H + "  whatever q\n",
     ParseError, "line 5, column 3: unknown declaration 'whatever'", 5, 3),
    ("never-declares", HEADERS,
     ParseError, "document never declares 'initials'", None, None),
    ("duplicate-header", "alphabet: a\n alphabet: b\n",
     ParseError, "line 2, column 2: duplicate 'alphabet' declaration", 2, 2),
    ("empty-header", "alphabet: a\nvars:   # none\n",
     ParseError, "line 2, column 1: 'variables' declaration is empty", 2, 1),
    ("reserved-token", "alphabet: a\nstates: p := q\n",
     ParseError, "line 2, column 11: reserved token ':=' cannot be declared in 'states'", 2, 11),
    # reported at the first repeat
    ("duplicate-name", "states: p q p q\n",
     ParseError, "line 1, column 13: duplicate name 'p'", 1, 13),
    ("letter-and-variable", "vars: X1 a\nalphabet: b a\n",
     ParseError, "line 2, column 13: 'a' is declared both in 'variables' and in 'alphabet'", 2, 13),
    ("unknown-initial-state", HEADERS + "initial: p r\n",
     UnknownSymbolError, "line 4, column 12: unknown initial state 'r'", 4, 12),
    ("duplicate-initial-state", HEADERS + "initial: q  p\tq\n",
     ParseError, "line 4, column 15: duplicate initial state 'q'", 4, 15),
    ("initial-empty", HEADERS + "initial:\n",
     ParseError, "line 4: expected at least one initial state", 4, None),
    ("init-shape", H + "init X1 a\n",
     ParseError, "line 5: expected 'init VAR = letters...'", 5, None),
    ("init-unknown-variable", H + "init X9 = a\n",
     UnknownSymbolError, "line 5, column 6: unknown variable 'X9'", 5, 6),
    ("init-duplicate", H + "init X1 = a\ninit  X1 = b\n",
     ParseError, "line 6, column 7: duplicate 'init' for 'X1'", 6, 7),
    ("init-unknown-letter", H + "init X1 = a c\n",
     UnknownSymbolError, "line 5, column 13: unknown letter 'c' in init", 5, 13),
    ("final-shape", H + "final p X1\n",
     ParseError, "line 5: expected 'final STATE -> expression'", 5, None),
    ("final-unknown-state", H + "final r -> X1\n",
     UnknownSymbolError, "line 5, column 7: unknown state 'r'", 5, 7),
    ("final-duplicate", H + "final p -> X1\nfinal   p -> X2\n",
     ParseError, "line 6, column 9: duplicate 'final' for state 'p'", 6, 9),
    ("final-copy", H + "final p -> X1 a X1\n",
     CopylessError, "line 5, column 17: variable 'X1' occurs twice in a final output", 5, 17),
    ("final-unknown-symbol", H + "final p -> X1 c\n",
     UnknownSymbolError, "line 5, column 15: unknown symbol 'c' in final output", 5, 15),
    ("trans-shape", H + "trans p a q {\n",
     ParseError, "line 5: expected 'trans SRC LETTER TGT { ... }'", 5, None),
    ("trans-unknown-source", H + "trans r a q { }\n",
     UnknownSymbolError, "line 5, column 7: unknown state 'r'", 5, 7),
    ("trans-unknown-letter", H + "trans p c q { }\n",
     UnknownSymbolError, "line 5, column 9: unknown letter 'c'", 5, 9),
    ("trans-unknown-target", H + "trans p a r { }\n",
     UnknownSymbolError, "line 5, column 11: unknown state 'r'", 5, 11),
    ("trans-open-brace", H + "trans p a q ( X1 := X1 }\n",
     ParseError, "line 5, column 13: expected '{' opening the update", 5, 13),
    ("trans-close-brace", H + "trans p a q { X1 := X1 ;  # }\n",
     ParseError, "line 5, column 24: expected '}' closing the update", 5, 24),
    ("trans-unknown-variable", H + "trans p a q { X1 := a ; X9 := a }\n",
     UnknownSymbolError, "line 5, column 25: unknown variable 'X9' in update", 5, 25),
    ("trans-assign-shape", H + "trans p a q { X1 := X1 ; X2 = a }\n",
     ParseError, "line 5, column 26: expected 'X2 := ...'", 5, 26),
    ("trans-assigned-twice", H + "trans p a q { X1 := a ; ; X1 := b }\n",
     ParseError, "line 5, column 27: variable 'X1' assigned twice in one update", 5, 27),
    ("trans-unknown-symbol", H + "trans p a q { X1 := X1 ; X2 := a c X2 }\n",
     UnknownSymbolError, "line 5, column 34: unknown symbol 'c' in update", 5, 34),
    ("trans-copy", H + "trans p a q { X1 := X1 X2 ; X2 := X2 }\n",
     CopylessError, "line 5, column 35: variable 'X2' occurs more than once", 5, 35),
    # a column counts code points, a tab or a wide space as one
    ("tab-and-wide-space", H + "final p -> X1\n\tfinal\u3000p -> X2\n",
     ParseError, "line 6, column 8: duplicate 'final' for state 'p'", 6, 8),
    ("wide-space-column", "alphabet:\u3000a\u2003bb\n",
     ParseError, "line 1, column 13: letters must be single characters, got 'bb'", 1, 13),
    # every str.splitlines boundary starts a line
    ("line-separator", "alphabet: a\u2028 alphabet: b\n",
     ParseError, "line 2, column 2: duplicate 'alphabet' declaration", 2, 2),
    ("crlf-lines", "alphabet: a\r\nvars: X1\r\nstates: p\r\ninitial: p\r\n"
                   "trans p a p { X1 := X1 } }\r\n",
     UnknownSymbolError, "line 5, column 24: unknown symbol '}' in update", 5, 24),
    ("comment-hides-brace", H + "trans p a q { X1 := a } # }\ntrans p a q { X2 := b # }\n",
     ParseError, "line 6, column 21: expected '}' closing the update", 6, 21),
]


@pytest.mark.parametrize("doc, cls, message, line, column",
                         [pytest.param(*row[1:], id=row[0]) for row in PINNED])
def test_parse_error_is_pinned(doc, cls, message, line, column):
    with pytest.raises(Exception) as err:
        parse_sst(doc)
    assert type(err.value) is cls
    assert str(err.value) == message
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize("doc, name, line, column", [
    (H + "final r -> X1\n", "state 'r'", 5, 7),
    (H + "trans p a q { }\ntrans p\tc q { }\n", "letter 'c'", 6, 9),
    (H + "trans p a q { X1 := X1 ;   X3 := a }\n", "variable 'X3' in update", 5, 28),
    (H + "init X1 = a b\u3000z\n", "letter 'z' in init", 5, 15),
    (H + "trans p a q { X2 := X2 a ; X1 := b X1 c }\n", "symbol 'c' in update", 5, 39),
], ids=["state", "letter", "variable", "init-letter", "update-symbol"])
def test_unknown_symbol_error_points_at_the_name(doc, name, line, column):
    with pytest.raises(UnknownSymbolError) as err:
        parse_sst(doc)
    assert str(err.value) == f"line {line}, column {column}: unknown {name}"
    assert (err.value.line, err.value.column) == (line, column)


def test_located_errors_are_parse_errors():
    assert issubclass(UnknownSymbolError, ParseError)
    assert issubclass(CopylessError, ParseError)


def test_unknown_symbol_error_outside_the_parser_has_no_position(fix_id):
    with pytest.raises(UnknownSymbolError) as err:
        fix_id.transitions[0].update.image("X9")
    assert (err.value.line, err.value.column) == (None, None)
    assert str(err.value) == "unknown variable 'X9'"


@pytest.mark.parametrize("doc, column", [
    # the repeat, in document order, whichever image holds it
    (H + "trans p a q { X2 := X1 ; X1 := X1 }\n", 32),
    # the only written occurrence: X2 is left alone, so it keeps X2 as well
    (H + "trans p a q { X1 := X1 X2 }\n", 24),
], ids=["second-image", "kept-variable"])
def test_copyless_error_points_at_the_repeat(doc, column):
    with pytest.raises(CopylessError) as err:
        parse_sst(doc)
    assert (err.value.line, err.value.column) == (5, column)


def test_copyless_error_outside_the_parser_has_no_position():
    with pytest.raises(CopylessError) as err:
        Update(("X",), (("X", "X"),))
    assert (err.value.line, err.value.column) == (None, None)
    assert (err.value.variable, str(err.value)) == ("X", "variable 'X' occurs more than once")


def test_leading_byte_order_mark_is_ignored():
    doc = H + "final p -> X1\ntrans p a q { X1 := X1 a }\n"
    assert spec(parse_sst("\ufeff" + doc)) == spec(parse_sst(doc))
    # only one: a second mark is part of the first token
    with pytest.raises(ParseError) as err:
        parse_sst("\ufeff\ufeff" + doc)
    assert str(err.value) == "line 1, column 1: unknown declaration '\\ufeffalphabet:'"


def spec(sst):
    return (sst.alphabet, sst.variables, sst.states, sst.initials, sst.final_output,
            sst.transitions, sst.initial_assignment)
