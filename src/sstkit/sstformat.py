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

Lines are what ``str.splitlines`` yields, and a line's tokens are what
``str.split`` yields on the part before its first ``#``.  A leading
byte-order mark (U+FEFF) is ignored.  Every error is a ``ParseError``
that names the 1-based line and, where it points at a token, the token's
column: a 1-based offset in code points, so a tab or a wide space counts
as one.  A header that is never declared has no line.  Columns are worked
out only when an error is raised.
"""

from __future__ import annotations

import re

from .errors import CopylessError, ParseError, UnknownSymbolError
from .model import Sst, Transition, Update

_TOKEN = re.compile(r"\S+")  # cuts a line as str.split() does: \s is str.isspace
# the punctuation of the format, which no letter, variable or state may be named
_RESERVED = frozenset({";", "{", "}", ":=", "->", "="})
# a token inside an update is a variable or a letter, never both
_DISJOINT = {"alphabet": "variables", "variables": "alphabet"}


def _column(raw: str, i: int) -> int:
    """The 1-based column of the i-th token of line ``raw``."""
    return list(_TOKEN.finditer(raw.partition("#")[0]))[i].start() + 1


class _Document:
    """The declarations read so far, and the line being read (``lineno``,
    ``raw``), which the errors point into."""

    def __init__(self):
        # the names of each header line, in declared order, and as sets
        self.alphabet: tuple[str, ...] | None = None
        self.variables: tuple[str, ...] | None = None
        self.states: tuple[str, ...] | None = None
        self.initials: tuple[str, ...] | None = None
        self.sets: dict[str, frozenset[str]] = {}
        self.symbols: frozenset[str] = frozenset()  # letters and variables
        self.finals: list[str] = []
        self.final_output: dict[str, tuple[str, ...]] = {}
        self.initial_assignment: dict[str, str] = {}
        self.transitions: list[Transition] = []
        self.lineno = 0
        self.raw = ""

    def error(self, message: str, i: int | None = None,
              cls: type[ParseError] = ParseError, *lead: str) -> ParseError:
        """A ``cls`` at this line, and at its i-th token if given; ``lead``
        are the arguments that ``cls`` takes before the message."""
        return cls(*lead, message, self.lineno, None if i is None else _column(self.raw, i))

    def need(self, attr: str) -> frozenset[str]:
        try:
            return self.sets[attr]
        except KeyError:
            raise self.error(f"'{attr}' must be declared before this line") from None

    def declare(self, attr: str, toks: list[str]) -> None:
        if getattr(self, attr) is not None:
            raise self.error(f"duplicate '{attr}' declaration", 0)
        names = toks[1:]
        if not names:
            raise self.error(f"'{attr}' declaration is empty", 0)
        declared = frozenset(names)
        repeats = len(declared) < len(names)
        other = _DISJOINT.get(attr)
        clash = self.sets.get(other, frozenset())
        for i, tok in enumerate(names, 1):
            if tok in _RESERVED:
                raise self.error(f"reserved token {tok!r} cannot be declared in '{attr}'", i)
            if repeats and names.index(tok) < i - 1:
                raise self.error(f"duplicate name {tok!r}", i)
            if tok in clash:
                raise self.error(f"{tok!r} is declared both in '{other}' and in '{attr}'", i)
        setattr(self, attr, tuple(names))
        self.sets[attr] = declared
        if other:
            self.symbols = declared | clash

    def initial(self, toks: list[str]) -> None:
        states = self.need("states")
        names = toks[1:]
        seen = set()
        for i, tok in enumerate(names, 1):
            if tok not in states:
                raise self.error(f"unknown initial state {tok!r}", i, UnknownSymbolError)
            if tok in seen:
                raise self.error(f"duplicate initial state {tok!r}", i)
            seen.add(tok)
        if not names:
            raise self.error("expected at least one initial state")
        if self.initials is not None:
            raise self.error("duplicate 'initial:' line", 0)
        self.initials = tuple(names)

    def init(self, toks: list[str]) -> None:
        variables = self.need("variables")
        alphabet = self.need("alphabet")
        if len(toks) < 3 or toks[2] != "=":
            raise self.error("expected 'init VAR = letters...'")
        var = toks[1]
        if var not in variables:
            raise self.error(f"unknown variable {var!r}", 1, UnknownSymbolError)
        if var in self.initial_assignment:
            raise self.error(f"duplicate 'init' for {var!r}", 1)
        for i, tok in enumerate(toks[3:], 3):
            if tok not in alphabet:
                raise self.error(f"unknown letter {tok!r} in init", i, UnknownSymbolError)
        self.initial_assignment[var] = "".join(toks[3:])

    def final(self, toks: list[str]) -> None:
        states = self.need("states")
        variables = self.need("variables")
        alphabet = self.need("alphabet")
        if len(toks) < 3 or toks[2] != "->":
            raise self.error("expected 'final STATE -> expression'")
        state = toks[1]
        if state not in states:
            raise self.error(f"unknown state {state!r}", 1, UnknownSymbolError)
        if state in self.final_output:
            raise self.error(f"duplicate 'final' for state {state!r}", 1)
        seen_vars = set()
        for i, tok in enumerate(toks[3:], 3):
            if tok in variables:
                if tok in seen_vars:
                    raise self.error(f"variable {tok!r} occurs twice in a final output", i, CopylessError, tok)
                seen_vars.add(tok)
            elif tok not in alphabet:
                raise self.error(f"unknown symbol {tok!r} in final output", i, UnknownSymbolError)
        self.finals.append(state)
        self.final_output[state] = tuple(toks[3:])

    def trans(self, toks: list[str]) -> None:
        states = self.need("states")
        variables = self.need("variables")
        alphabet = self.need("alphabet")
        if len(toks) < 6:
            raise self.error("expected 'trans SRC LETTER TGT { ... }'")
        _, src, letter, tgt, brace = toks[:5]
        if src not in states:
            raise self.error(f"unknown state {src!r}", 1, UnknownSymbolError)
        if letter not in alphabet:
            raise self.error(f"unknown letter {letter!r}", 2, UnknownSymbolError)
        if tgt not in states:
            raise self.error(f"unknown state {tgt!r}", 3, UnknownSymbolError)
        if brace != "{":
            raise self.error("expected '{' opening the update", 4)
        end = len(toks) - 1
        if toks[end] != "}":
            raise self.error("expected '}' closing the update", end)
        # the groups `VAR := word` between the braces are separated by ';'.
        # The closing brace is overwritten with one, so that index() finds
        # the end of every group, the last included.
        toks[end] = ";"
        symbols = self.symbols
        images: dict[str, tuple[str, ...]] = {}
        start = 5
        while start < end:
            stop = toks.index(";", start)
            if stop > start:
                var = toks[start]
                if var not in variables:
                    raise self.error(f"unknown variable {var!r} in update", start, UnknownSymbolError)
                if stop - start < 2 or toks[start + 1] != ":=":
                    raise self.error(f"expected '{var} := ...'", start)
                if var in images:
                    raise self.error(f"variable {var!r} assigned twice in one update", start)
                image = tuple(toks[start + 2:stop])
                if not symbols.issuperset(image):
                    k, tok = next((k, tok) for k, tok in enumerate(image) if tok not in symbols)
                    raise self.error(f"unknown symbol {tok!r} in update", start + 2 + k, UnknownSymbolError)
                images[var] = image
            start = stop + 1
        try:
            update = Update(self.variables, tuple([images.get(v, (v,)) for v in self.variables]))
        except CopylessError as err:
            # point at the second occurrence in an image, or at the only one
            # when the other is a variable that the update leaves alone
            seen = [k for k in range(5, end) if toks[k] == err.variable and toks[k + 1] != ":="]
            raise self.error(str(err), seen[:2][-1], CopylessError, err.variable) from None
        self.transitions.append(Transition(src, letter, update, tgt))


def parse_sst(text: str) -> Sst:
    """Parse a transducer document, validating as it goes.

    Every fault raises a ParseError, located as the module says: an
    UnknownSymbolError at a dangling reference, and a CopylessError,
    naming the variable, at its repeat.

    The machine is built without ``Sst._validate``, which would only
    repeat checks made here: duplicate and reserved names (``declare``,
    ``initial``, ``final``, ``init``), letters that are not one character
    (braces are reserved), a name both letter and variable, undeclared
    states, letters, variables and symbols in every line that names them,
    a variable twice in a final output or an update (``Update`` checks the
    latter), and malformed ``init`` lines.  ``Update`` is over the declared
    variables by construction, and every final state has its one output.
    """
    doc = _Document()
    if text.startswith("\ufeff"):
        text = text[1:]
    for doc.lineno, doc.raw in enumerate(text.splitlines(), start=1):
        toks = doc.raw.partition("#")[0].split()
        if not toks:
            continue
        head = toks[0]
        if head == "trans":
            doc.trans(toks)
        elif head == "final":
            doc.final(toks)
        elif head == "init":
            doc.init(toks)
        elif head == "initial:":
            doc.initial(toks)
        elif head == "alphabet:":
            doc.declare("alphabet", toks)
            for i, tok in enumerate(toks[1:], 1):
                if len(tok) != 1:
                    raise doc.error(f"letters must be single characters, got {tok!r}", i)
        elif head == "vars:":
            doc.declare("variables", toks)
        elif head == "states:":
            doc.declare("states", toks)
        else:
            raise doc.error(f"unknown declaration {head!r}", 0)

    for attr in ("alphabet", "variables", "states", "initials"):
        if getattr(doc, attr) is None:
            raise ParseError(f"document never declares '{attr}'")
    # the checks above reject all that ``Sst._validate`` would (see the
    # docstring), so the machine is built without it
    sst = Sst.__new__(Sst)
    sst._store(doc.alphabet, doc.variables, doc.states, doc.initials, doc.finals,
               doc.final_output, doc.transitions, doc.initial_assignment)
    sst._build()
    return sst
