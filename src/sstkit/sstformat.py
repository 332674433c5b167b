"""Line-oriented text format for transducers.

One declaration per line, ``#`` starts a comment, tokens are separated by
whitespace::

    alphabet: 0 1
    vars: X1 X0
    states: qA qB
    initial: qA qB
    init X0 = 1            # optional; every variable defaults to empty
    final qA -> X0 X1
    final qB -> X1 X0
    trans qA 0 qA { X0 := 0 X0 ; X1 := X1 }

Inside an update a bare variable name is a variable occurrence and any
declared letter is a constant; the empty word is written as an empty
right-hand side.  Variables not mentioned in a ``trans`` update keep their
value (identity); write ``X :=`` with nothing after it to erase one.
Letters are single characters, and no name is both a letter and a
variable.  The tokens ``; { } := -> =`` are reserved and cannot be letters,
variables or states.  The ``alphabet:``, ``vars:``, ``states:``
and ``initial:`` lines must appear before any line that uses them.
"""

from __future__ import annotations

import re

from .errors import CopylessError, ParseError, UnknownSymbolError
from .model import Sst, Transition, Update

_TOKEN = re.compile(r"\S+")
# the punctuation of the format, which no letter, variable or state may be named
_RESERVED = frozenset({";", "{", "}", ":=", "->", "="})
# a token inside an update is a variable or a letter, never both
_DISJOINT = {"alphabet": "variables", "variables": "alphabet"}


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Tokens with their 1-based column, comments stripped."""
    code = line.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(code)]


class _DocBuilder:
    def __init__(self):
        self.alphabet: list[str] | None = None
        self.variables: list[str] | None = None
        self.states: list[str] | None = None
        self.initials: list[str] | None = None
        self.finals: list[str] = []
        self.final_output: dict[str, tuple[str, ...]] = {}
        self.initial_assignment: dict[str, str] = {}
        self.transitions: list[Transition] = []

    def need(self, attr: str, lineno: int) -> list[str]:
        value = getattr(self, attr)
        if value is None:
            raise ParseError(f"'{attr}' must be declared before this line", lineno)
        return value


def parse_sst(text: str) -> Sst:
    """Parse a transducer document, validating as it goes.

    Raises ParseError with line/column for syntax problems, CopylessError
    naming the offending variable, and UnknownSymbolError for dangling
    references.
    """
    doc = _DocBuilder()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        head, col = tokens[0]
        rest = tokens[1:]
        if head == "alphabet:":
            _declare_header(doc, "alphabet", rest, lineno, col)
            for tok, c in rest:
                if len(tok) != 1:
                    raise ParseError(f"letters must be single characters, got {tok!r}", lineno, c)
        elif head == "vars:":
            _declare_header(doc, "variables", rest, lineno, col)
        elif head == "states:":
            _declare_header(doc, "states", rest, lineno, col)
        elif head == "initial:":
            states = doc.need("states", lineno)
            names = _names(rest, lineno, "initial state", states)
            if doc.initials is not None:
                raise ParseError("duplicate 'initial:' line", lineno, col)
            doc.initials = names
        elif head == "init":
            _parse_init(doc, rest, lineno)
        elif head == "final":
            _parse_final(doc, rest, lineno)
        elif head == "trans":
            _parse_trans(doc, rest, lineno)
        else:
            raise ParseError(f"unknown declaration {head!r}", lineno, col)

    for attr in ("alphabet", "variables", "states", "initials"):
        if getattr(doc, attr) is None:
            raise ParseError(f"document never declares '{attr}'")
    return Sst(
        alphabet=doc.alphabet,
        variables=doc.variables,
        states=doc.states,
        initials=doc.initials,
        finals=doc.finals,
        final_output=doc.final_output,
        transitions=doc.transitions,
        initial_assignment=doc.initial_assignment,
    )


def _declare_header(doc: _DocBuilder, attr: str, rest: list[tuple[str, int]], lineno: int, col: int) -> None:
    if getattr(doc, attr) is not None:
        raise ParseError(f"duplicate '{attr}' declaration", lineno, col)
    if not rest:
        raise ParseError(f"'{attr}' declaration is empty", lineno, col)
    names = [tok for tok, _ in rest]
    other = _DISJOINT.get(attr)
    for tok, c in rest:
        if tok in _RESERVED:
            raise ParseError(f"reserved token {tok!r} cannot be declared in '{attr}'", lineno, c)
        if names.count(tok) > 1:
            raise ParseError(f"duplicate name {tok!r}", lineno, c)
        if other and tok in (getattr(doc, other) or ()):
            raise ParseError(f"{tok!r} is declared both in '{other}' and in '{attr}'", lineno, c)
    setattr(doc, attr, names)


def _names(rest: list[tuple[str, int]], lineno: int, what: str, declared: list[str]) -> list[str]:
    names = []
    for tok, col in rest:
        if tok not in declared:
            raise UnknownSymbolError(f"line {lineno}: unknown {what} {tok!r}")
        if tok in names:
            raise ParseError(f"duplicate {what} {tok!r}", lineno, col)
        names.append(tok)
    if not names:
        raise ParseError(f"expected at least one {what}", lineno)
    return names


def _parse_init(doc: _DocBuilder, rest: list[tuple[str, int]], lineno: int) -> None:
    variables = doc.need("variables", lineno)
    alphabet = doc.need("alphabet", lineno)
    if len(rest) < 2 or rest[1][0] != "=":
        raise ParseError("expected 'init VAR = letters...'", lineno)
    var, col = rest[0]
    if var not in variables:
        raise UnknownSymbolError(f"line {lineno}: unknown variable {var!r}")
    if var in doc.initial_assignment:
        raise ParseError(f"duplicate 'init' for {var!r}", lineno, col)
    word = []
    for tok, c in rest[2:]:
        if tok not in alphabet:
            raise UnknownSymbolError(f"line {lineno}: unknown letter {tok!r} in init")
        word.append(tok)
    doc.initial_assignment[var] = "".join(word)


def _parse_final(doc: _DocBuilder, rest: list[tuple[str, int]], lineno: int) -> None:
    states = doc.need("states", lineno)
    variables = doc.need("variables", lineno)
    alphabet = doc.need("alphabet", lineno)
    if len(rest) < 2 or rest[1][0] != "->":
        raise ParseError("expected 'final STATE -> expression'", lineno)
    state, col = rest[0]
    if state not in states:
        raise UnknownSymbolError(f"line {lineno}: unknown state {state!r}")
    if state in doc.final_output:
        raise ParseError(f"duplicate 'final' for state {state!r}", lineno, col)
    expr = []
    seen_vars = set()
    for tok, c in rest[2:]:
        if tok in variables:
            if tok in seen_vars:
                raise CopylessError(tok, f"line {lineno}: variable {tok!r} occurs twice in a final output")
            seen_vars.add(tok)
        elif tok not in alphabet:
            raise UnknownSymbolError(f"line {lineno}: unknown symbol {tok!r} in final output")
        expr.append(tok)
    doc.finals.append(state)
    doc.final_output[state] = tuple(expr)


def _parse_trans(doc: _DocBuilder, rest: list[tuple[str, int]], lineno: int) -> None:
    states = doc.need("states", lineno)
    variables = doc.need("variables", lineno)
    alphabet = doc.need("alphabet", lineno)
    if len(rest) < 5:
        raise ParseError("expected 'trans SRC LETTER TGT { ... }'", lineno)
    (src, c1), (letter, c2), (tgt, c3), (brace, c4) = rest[0], rest[1], rest[2], rest[3]
    if src not in states:
        raise UnknownSymbolError(f"line {lineno}: unknown state {src!r}")
    if letter not in alphabet:
        raise UnknownSymbolError(f"line {lineno}: unknown letter {letter!r}")
    if tgt not in states:
        raise UnknownSymbolError(f"line {lineno}: unknown state {tgt!r}")
    if brace != "{":
        raise ParseError("expected '{' opening the update", lineno, c4)
    if rest[-1][0] != "}":
        raise ParseError("expected '}' closing the update", lineno, rest[-1][1])
    inner = rest[4:-1]

    groups: list[list[tuple[str, int]]] = [[]]
    for tok, c in inner:
        if tok == ";":
            groups.append([])
        else:
            groups[-1].append((tok, c))
    images: dict[str, tuple[str, ...]] = {}
    for group in groups:
        if not group:
            continue
        (var, cv) = group[0]
        if var not in variables:
            raise UnknownSymbolError(f"line {lineno}: unknown variable {var!r} in update")
        if len(group) < 2 or group[1][0] != ":=":
            raise ParseError(f"expected '{var} := ...'", lineno, cv)
        if var in images:
            raise ParseError(f"variable {var!r} assigned twice in one update", lineno, cv)
        tokens = []
        for tok, c in group[2:]:
            if tok not in variables and tok not in alphabet:
                raise UnknownSymbolError(f"line {lineno}: unknown symbol {tok!r} in update")
            tokens.append(tok)
        images[var] = tuple(tokens)
    for v in variables:
        images.setdefault(v, (v,))
    try:
        update = Update.make(variables, images)
    except CopylessError as err:
        raise CopylessError(err.variable, f"line {lineno}: {err}") from None
    doc.transitions.append(Transition(src, letter, update, tgt))
