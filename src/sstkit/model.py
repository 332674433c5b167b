"""Core model: copyless updates, streaming string transducers, runs.

A streaming string transducer reads its input once, left to right, while
maintaining a finite set of write-only string variables.  Every transition
applies a *copyless* update (each variable is used at most once across all
right-hand sides), and every final state carries an output expression over
letters and variables whose value at the end of an accepting run is the
produced word.  Nondeterminism makes the realized object a relation: one
input may map to several outputs.

Beyond the model itself this module provides two evaluators.  Exhaustive
run enumeration lists runs in canonical order by construction; it is the
run-level reference of the package, at one budget unit per partial run.
The frontier functions (``_start``, ``_step``, ``_final_outputs``) answer
output-level questions (``outputs``, the valuedness / ambiguity oracles,
and through them ranked outputs and bounded equivalence) on frontiers of
distinct (state, variable contents) configurations, without enumerating
runs; budgets charge them one unit per configuration carried over one
input letter.

They read each update in its compiled form, a ``str.format`` template:
letters are literal text, variable k is the replacement field ``{k}``, and
the images of a program are joined by a separator character that is no
letter, digit or brace.  Applying an update to variable contents is then
``template.format(*contents).split(sep)``, grounding an image is
``image.format(*contents)``, and composing is the same call on templates,
``then.format(*first.split(sep))``: one C-level call each.  Letters are
never braces, so a template passes through another unchanged.

The scans, ``outputs`` and ``ranked_outputs`` read the outputs of an
input's last letter without building the frontier it leads to
(``_leaf_outputs``): ``Sst.__init__`` composes the final output template
after the update of every move into a final state, so one call per
configuration and such move grounds an output.  The budget is charged as
if that frontier were built, one unit per configuration of the one before
it.  ``valuedness_oracle`` bounds output counts by cheaper counts first and
grounds outputs only where they can change its answer (``_scan``'s
``need``); the units are the same.

The scans do not walk a prefix whose frontier the walk already holds
(``_scan``): each depth keeps the keys of the children it descended into,
so a child whose key a prefix of at least ``min_len`` letters, or of its
own length, holds is neither measured nor extended, since each of its
extensions measures as the same extension of the held prefix, which is no
longer and, at equal length, lexicographically earlier.  The equivalence
scan, which stops at its first difference, does not skip a child for its
own ancestor's key.  A unit is still one configuration carried over one
letter, charged only for the frontiers the walk builds, so a scan charges
at most what walking every prefix charges, with the same answer.  The
walk holds one frontier per depth and at most one key per letter at each
depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    BudgetExceededError,
    CopylessError,
    ParameterError,
    RunError,
    SstKitError,
    UnknownSymbolError,
    VariableSetMismatchError,
)

DEFAULT_NODE_BUDGET = 10_000_000


class _cached_property:
    """``functools.cached_property`` without its lock, as in Python 3.12:
    the first read stores the value in the instance's ``__dict__``, which
    later reads find first.  On Python 3.11 every first read takes a lock
    that the property shares across all instances.  Two threads may both
    compute a value on a first read; each property here is a function of
    a frozen instance, so both store equal values."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Budget:
    """Mutable expansion counter shared across one enumeration.

    Run enumeration charges one unit per partial-run extension, the
    frontier functions one per configuration expansion, the dumbbell search
    one per node popped, the W-pattern search one per start triple, per
    generated triple and per exit triple charged to an (entry, loop) pair,
    and amplification one per marked sequence; all fail loudly instead of
    truncating silently.  A charge that crosses the limit raises and leaves
    ``used`` at ``limit + 1``, as many single charges would, so every stop
    reads the same ``used`` however its units were charged.  A limit that
    is not an ``int`` of at least 0, or is a ``bool``, raises ``ParameterError``.
    """

    def __init__(self, limit: int = DEFAULT_NODE_BUDGET):
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
            raise ParameterError(f"budget limit must be an int of at least 0: {limit!r}")
        self.limit = limit
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            self.used = self.limit + 1
            raise BudgetExceededError(
                f"budget of {self.limit} expansion nodes exceeded"
            )

    @classmethod
    def ensure(cls, budget: "Budget | int | None") -> "Budget":
        if isinstance(budget, Budget):
            return budget
        return cls() if budget is None else cls(budget)


@dataclass(frozen=True)
class Update:
    """Copyless mapping from variables to words over letters and variables.

    ``images`` is aligned with ``variables``; a token equal to some declared
    variable name is a variable occurrence, any other token is a letter.
    """

    variables: tuple[str, ...]
    images: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.images) != len(self.variables):
            raise SstKitError("update must define an image for every variable")
        varset = set(self.variables)
        seen: set[str] = set()
        for image in self.images:
            for tok in image:
                if tok in varset:
                    if tok in seen:
                        raise CopylessError(tok)
                    seen.add(tok)

    @classmethod
    def make(cls, variables: Sequence[str], images: Mapping[str, Sequence[str]]) -> "Update":
        variables = tuple(variables)
        unknown = set(images) - set(variables)
        if unknown:
            raise UnknownSymbolError(f"update assigns undeclared variables: {sorted(unknown)}")
        missing = set(variables) - set(images)
        if missing:
            raise SstKitError(f"update is missing images for: {sorted(missing)}")
        return cls(variables, tuple(tuple(images[v]) for v in variables))

    @classmethod
    def identity(cls, variables: Sequence[str]) -> "Update":
        variables = tuple(variables)
        return cls(variables, tuple((v,) for v in variables))

    @_cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.variables)}

    def image(self, variable: str) -> tuple[str, ...]:
        try:
            return self.images[self._index[variable]]
        except KeyError:
            raise UnknownSymbolError(f"unknown variable {variable!r}") from None

    def apply_to(self, tokens: Sequence[str]) -> tuple[str, ...]:
        """Morphic application: substitute this update's images for variables."""
        index, images = self._index, self.images
        out: list[str] = []
        for tok in tokens:
            k = index.get(tok)
            if k is None:
                out.append(tok)
            else:
                out += images[k]
        return tuple(out)

    def canonical(self) -> str:
        """Deterministic one-line rendering, variables in declared order."""
        parts = [f"{v} := {' '.join(image)}".rstrip() for v, image in zip(self.variables, self.images)]
        return " ; ".join(parts)


def compose_updates(a: Update, b: Update) -> Update:
    """Sequential composition: ``b`` applied morphically to ``a``'s images.

    The composite maps X to b(a(X)).  For a run that performs ``acc`` and
    then one more step ``step``, the accumulated update is
    ``compose_updates(step, acc)``: the earlier images get substituted into
    the later right-hand sides.
    """
    if a.variables != b.variables:
        raise VariableSetMismatchError(
            f"cannot compose updates over {a.variables} and {b.variables}"
        )
    return Update(a.variables, tuple(b.apply_to(image) for image in a.images))


@dataclass(frozen=True)
class Transition:
    source: str
    letter: str
    update: Update
    target: str


class Sst:
    """A nondeterministic copyless streaming string transducer.

    ``__init__`` stores the parts (``_store``), checks them (``_validate``)
    and builds the tables (``_build``).  ``parse_sst``, whose parser has
    already rejected every fault that ``_validate`` looks for, calls only
    ``_store`` and ``_build``, on an instance made with ``Sst.__new__``.

    ``_build`` makes the one compiled form of each update and final output
    (``_compile_update``): a ``str.format`` template (``_templates``,
    ``_final_templates``, images joined by ``_sep``; see the module
    docstring), which the frontier functions and the W-pattern search read.
    Run evaluation, skeletons and pumping read the declared images.
    Letters may not be ``{`` or ``}``, which a template would read as part
    of a replacement field.  One pass over the transitions then builds the
    per-state, per-letter tables ``_moves``, ``_predecessors`` and
    ``_leaf_templates``.  With them the machine has every table the package
    reads, and nothing is added to it afterwards.

    The first declared variable is conventionally the output variable, but
    outputs are defined by the per-final-state ``final_output`` expressions,
    which may mention any subset of the variables (each at most once).
    """

    def __init__(
        self,
        alphabet: Sequence[str],
        variables: Sequence[str],
        states: Sequence[str],
        initials: Sequence[str],
        finals: Sequence[str],
        final_output: Mapping[str, Sequence[str]],
        transitions: Sequence[Transition],
        initial_assignment: Mapping[str, str] | None = None,
    ):
        self._store(alphabet, variables, states, initials, finals, final_output,
                    transitions, initial_assignment)
        self._validate()
        self._build()

    def _store(self, alphabet, variables, states, initials, finals, final_output,
               transitions, initial_assignment) -> None:
        """Keep the parts as ``__init__`` takes them, with their indexes."""
        self.alphabet = tuple(alphabet)
        self.variables = tuple(variables)
        self.states = tuple(states)
        self.initials = tuple(initials)
        self.finals = tuple(finals)
        self.final_output = {q: tuple(expr) for q, expr in final_output.items()}
        self.transitions = tuple(transitions)
        # keys as given, so that ``_validate`` sees an unknown one
        self.initial_assignment = {**dict.fromkeys(self.variables, ""), **(initial_assignment or {})}

        self._letter_index = {a: i for i, a in enumerate(self.alphabet)}
        self._state_index = {q: i for i, q in enumerate(self.states)}
        # variable -> (its index, its replacement field in a template)
        self._fields = {v: (k, f"{{{k}}}") for k, v in enumerate(self.variables)}

    def _build(self) -> None:
        """The tables of a machine whose parts are valid."""
        # the initial states in state order, where runs and frontiers start
        self._starts = tuple(sorted(self.initials, key=self._state_index.__getitem__))

        # the updates and final outputs as templates (``_compile_update``);
        # without variables every template is empty, and the one empty image
        # it splits into is never read
        self._sep = next(c for c in map(chr, count()) if c not in self._letter_index
                         and c not in "0123456789{}")
        self._templates = tuple(_compile_update(self, t.update.images) for t in self.transitions)
        self._final_templates = {q: _compile_update(self, (expr,)) for q, expr in self.final_output.items()}
        self._initial = tuple(self.initial_assignment[v] for v in self.variables)

        # per state q and letter index a, in rank order: _moves[q][a] the
        # (transition, target) pairs leaving q, _predecessors[q][a] the
        # (transition, source) pairs entering q, and _leaf_templates[q][a]
        # the final template of each move into a final state composed after
        # its update (read by ``_leaf_outputs``)
        finals, templates, sep = self._final_templates, self._templates, self._sep
        moves, predecessors, leaves = ({q: [[] for _ in self.alphabet] for q in self.states} for _ in range(3))
        for i in sorted(range(len(self.transitions)), key=self.transition_rank):
            t = self.transitions[i]
            a = self._letter_index[t.letter]
            moves[t.source][a].append((i, t.target))
            predecessors[t.target][a].append((i, t.source))
            if t.target in finals:
                leaves[t.source][a].append(finals[t.target].format(*templates[i].split(sep)))
        self._moves, self._predecessors, self._leaf_templates = moves, predecessors, leaves

    def _validate(self) -> None:
        for name, items in (("alphabet", self.alphabet), ("variables", self.variables), ("states", self.states)):
            if len(set(items)) != len(items):
                raise SstKitError(f"duplicate entries in {name}: {items}")
        for a in self.alphabet:
            if len(a) != 1:
                raise SstKitError(f"letters must be single characters, got {a!r}")
            if a in "{}":
                raise SstKitError(f"letters may not be braces, got {a!r}")
        overlap = set(self.alphabet) & set(self.variables)
        if overlap:
            raise SstKitError(f"variables may not collide with letters: {sorted(overlap)}")
        for group, label in ((self.initials, "initial"), (self.finals, "final")):
            if len(set(group)) != len(group):
                raise SstKitError(f"duplicate {label} states: {group}")
            for q in group:
                if q not in self._state_index:
                    raise UnknownSymbolError(f"{label} state {q!r} is not declared")
        if set(self.final_output) != set(self.finals):
            raise SstKitError("final_output must cover exactly the final states")
        for q, expr in self.final_output.items():
            seen: set[str] = set()
            for tok in expr:
                if tok in self._fields:
                    if tok in seen:
                        raise CopylessError(tok, f"variable {tok!r} occurs twice in the output of {q!r}")
                    seen.add(tok)
                elif tok not in self._letter_index:
                    raise UnknownSymbolError(f"unknown symbol {tok!r} in the output of {q!r}")
        for v, word in self.initial_assignment.items():
            if v not in self._fields:
                raise UnknownSymbolError(f"initial assignment for unknown variable {v!r}")
            for c in word:
                if c not in self._letter_index:
                    raise UnknownSymbolError(f"initial assignment of {v!r} uses unknown letter {c!r}")
        for t in self.transitions:
            for q in (t.source, t.target):
                if q not in self._state_index:
                    raise UnknownSymbolError(f"transition references unknown state {q!r}")
            if t.letter not in self._letter_index:
                raise UnknownSymbolError(f"transition reads unknown letter {t.letter!r}")
            if t.update.variables != self.variables:
                raise VariableSetMismatchError("transition update is over the wrong variable set")
            for image in t.update.images:
                for tok in image:
                    if tok not in self._fields and tok not in self._letter_index:
                        raise UnknownSymbolError(f"unknown symbol {tok!r} in update {t.update.canonical()!r}")

    # -- ordering ---------------------------------------------------------

    def transition_rank(self, index: int) -> tuple[int, int, int, int]:
        """Total order on transitions: source, letter, target, then the fixed
        declaration position as the tie break."""
        t = self.transitions[index]
        return (
            self._state_index[t.source],
            self._letter_index[t.letter],
            self._state_index[t.target],
            index,
        )

    def run_sort_key(self, run: "Run"):
        ranks = tuple(self.transition_rank(i) for i in run.steps)
        return (ranks, self._state_index[run.start])

    # -- accessors --------------------------------------------------------

    def run(self, start: str, steps: Iterable[int]) -> "Run":
        return Run(self, start, tuple(steps))

    def empty_run(self, state: str) -> "Run":
        return Run(self, state, ())

    def describe(self) -> dict:
        """Plain-data summary used by reports."""
        return {
            "alphabet": list(self.alphabet),
            "variables": list(self.variables),
            "states": len(self.states),
            "initials": list(self.initials),
            "finals": list(self.finals),
            "transitions": len(self.transitions),
        }


@dataclass(frozen=True)
class Run:
    """A chained sequence of transitions, identified by indices into the
    transducer's declaration list.

    Positions along a run live *between* transitions: a run with n steps has
    positions 0..n, and the interval [i, j] covers steps i+1..j.
    """

    sst: Sst = field(repr=False)
    start: str
    steps: tuple[int, ...]

    def __post_init__(self):
        state = self.start
        if state not in self.sst._state_index:
            raise RunError(f"run starts in unknown state {state!r}")
        transitions = self.sst.transitions
        for i in self.steps:
            if not 0 <= i < len(transitions):
                raise RunError(f"no transition with index {i}")
            t = transitions[i]
            if t.source != state:
                raise RunError(
                    f"broken chaining: expected a transition from {state!r}, got one from {t.source!r}"
                )
            state = t.target

    def __len__(self) -> int:
        return len(self.steps)

    @_cached_property
    def states(self) -> tuple[str, ...]:
        """The n+1 states visited, including start and end."""
        out = [self.start]
        for i in self.steps:
            out.append(self.sst.transitions[i].target)
        return tuple(out)

    @property
    def end(self) -> str:
        """``states[-1]``, read off the last step."""
        return self.sst.transitions[self.steps[-1]].target if self.steps else self.start

    @_cached_property
    def input(self) -> str:
        transitions = self.sst.transitions
        return "".join([transitions[i].letter for i in self.steps])

    @property
    def input_length(self) -> int:
        return len(self.steps)

    @property
    def accepting(self) -> bool:
        return self.start in self.sst.initials and self.end in self.sst.finals

    @_cached_property
    def induced_update(self) -> Update:
        """The composite of the steps' updates (``compose_updates``, the
        earlier images substituted into the later ones), folded on image
        tuples through ``Sst._fields``; the one ``Update`` built at the end
        checks that it is copyless."""
        sst = self.sst
        fields, transitions = sst._fields, sst.transitions
        images = [(v,) for v in sst.variables]
        for i in self.steps:
            fresh = []
            for image in transitions[i].update.images:
                out: list[str] = []
                for tok in image:
                    field = fields.get(tok)
                    if field is None:
                        out.append(tok)
                    else:
                        out += images[field[0]]
                fresh.append(tuple(out))
            images = fresh
        return Update(sst.variables, tuple(images))

    @_cached_property
    def annotated_output(self) -> tuple[tuple[str, int], ...]:
        """Output letters tagged with the step that produced them.

        Step 0 marks initial-assignment letters, step t letters introduced
        by the t-th transition, and step n (= run length) the constant
        letters of the final output expression.  Only defined for accepting
        runs.
        """
        if not self.accepting:
            raise RunError("annotated output is only defined for accepting runs")
        return _annotate(self.sst, self.start, self.steps)

    @_cached_property
    def output(self) -> str:
        return "".join(c for c, _ in self.annotated_output)

    def describe(self) -> dict:
        return {"start": self.start, "steps": list(self.steps), "input": self.input}


# -- run evaluation -------------------------------------------------------


def eval_run(sst: Sst, run: Run) -> tuple[tuple[str, int], ...]:
    """Annotated output of an accepting run (letter, producing step)."""
    _check_owner(sst, run)
    if not run.accepting:
        raise RunError("run is not accepting: it must go from an initial to a final state")
    return run.annotated_output


def output_via_updates(sst: Sst, run: Run) -> str:
    """Second, independent evaluation path: compose all step updates, then
    ground variables with the initial assignment inside the final output
    expression.  Used to cross-check the annotated evaluator."""
    _check_owner(sst, run)
    if not run.accepting:
        raise RunError("run is not accepting")
    composite = run.induced_update
    varset = sst._fields

    def ground(tokens: Sequence[str]) -> str:
        return "".join(
            sst.initial_assignment[tok] if tok in varset else tok for tok in tokens
        )

    pieces = []
    for tok in sst.final_output[run.end]:
        if tok in varset:
            pieces.append(ground(composite.image(tok)))
        else:
            pieces.append(tok)
    return "".join(pieces)


def _check_owner(sst: Sst, run: Run) -> None:
    if run.sst is not sst:
        raise RunError("run belongs to a different transducer instance")


# -- enumeration ----------------------------------------------------------


def _check_word(sst: Sst, word: str) -> None:
    """An input letter outside the alphabet is a bad argument, not a fault
    of the document: it raises ``ParameterError``."""
    for c in word:
        if c not in sst._letter_index:
            raise ParameterError(f"input letter {c!r} is not in the alphabet")


def enumerate_runs(sst: Sst, word: str, budget: Budget | int | None = None) -> list[Run]:
    """All accepting runs on ``word``, in canonical order: by the rank
    sequences of their transitions (``Sst.transition_rank``), with the
    start-state index breaking the tie between empty runs.  The walk, depth
    first on an explicit stack so that the word may be of any length, finds
    them in this order (see the comment on configuration frontiers).  The
    budget is charged one unit per partial run, the empty ones included.
    """
    _check_word(sst, word)
    b = Budget.ensure(budget)
    finals = set(sst.finals)
    moves = sst._moves
    letters = [sst._letter_index[c] for c in word]
    found: list[Run] = []

    for start in sst._starts:
        b.charge()
        if not word:
            if start in finals:
                found.append(Run(sst, start, ()))
            continue
        # the partial run, and for each of its prefixes the transitions not
        # yet tried after it
        steps: list[int] = []
        pending = [iter(moves[start][letters[0]])]
        while pending:
            move = next(pending[-1], None)
            if move is None:
                pending.pop()
                if steps:
                    steps.pop()
                continue
            b.charge()
            i, target = move
            steps.append(i)
            if len(steps) < len(word):
                pending.append(iter(moves[target][letters[len(steps)]]))
                continue
            if target in finals:
                found.append(Run(sst, start, tuple(steps)))
            steps.pop()
    return found


def words_over(alphabet: Sequence[str], min_len: int, max_len: int) -> Iterator[str]:
    """Words in length-lexicographic order, letters in declared order.  A
    negative ``min_len`` raises ``ParameterError``."""
    if min_len < 0:
        raise ParameterError(f"min_len must not be negative: {min_len}")
    for n in range(min_len, max_len + 1):
        for tup in product(alphabet, repeat=n):
            yield "".join(tup)


# -- configuration frontiers ----------------------------------------------
#
# The relation of a copyless SST depends only on the configurations
# (state, variable contents) reachable on an input, not on how many runs
# reach them, so output-level questions are answered on frontiers of
# distinct configurations instead of on runs.
#
# Runs on one input have one length, so their rank sequences compare
# lexicographically, and the start-state tie break agrees with the rank of
# a first transition (source index first).  Extending runs from
# ``Sst._starts`` (state order) by the ``Sst._moves`` (rank order) thus
# yields them in canonical order: depth-first in ``enumerate_runs``, which
# needs no sort, and level by level here.  A frontier is a dict whose keys
# are the configurations reached on one input prefix, each first reached
# through its least run, so in the canonical order of their least runs:
# the least run into a key extends the least run into a key of the
# frontier before, whose keys are expanded in order, each with its moves
# in rank order.  The same holds for configurations whose contents tag
# each letter with its step (``_least_tagged_runs``), which keep that run.


def _compile_update(sst: Sst, images: Sequence[Sequence[str]]) -> str:
    """The template of a sequence of images: letters as literal text,
    variable k as ``{k}``, the images joined by ``sst._sep``."""
    fields = sst._fields
    return sst._sep.join([
        "".join([field[1] if (field := fields.get(tok)) else tok for tok in image])
        for image in images
    ])


def _substitute(sst: Sst, images: Sequence[Sequence[str]], contents: Sequence[tuple],
                tag) -> tuple[tuple, ...]:
    """``images`` applied to variable contents held as item tuples: each
    variable is replaced by its items and each letter by the pair (letter,
    ``tag``).  The initial words are images without variables, so
    ``_substitute(sst, sst._initial, (), tag)`` tags the initial contents."""
    fields, out = sst._fields, []
    for image in images:
        items: list = []
        for tok in image:
            field = fields.get(tok)
            if field is None:
                items.append((tok, tag))
            else:
                items += contents[field[0]]
        out.append(tuple(items))
    return tuple(out)


def _annotate(sst: Sst, start: str, steps: Sequence[int]) -> tuple[tuple[str, int], ...]:
    """The output of the accepting run from ``start`` along ``steps``, each
    letter tagged with the step that produced it: step 0 for
    initial-assignment letters, step t for the t-th transition's letters,
    step n = len(steps) for the final output's constants."""
    transitions = sst.transitions
    contents = _substitute(sst, sst._initial, (), 0)
    for step, i in enumerate(steps, 1):
        contents = _substitute(sst, transitions[i].update.images, contents, step)
    end = transitions[steps[-1]].target if steps else start
    (out,) = _substitute(sst, (sst.final_output[end],), contents, len(steps))
    return out


def _shared_annotations(sst: Sst, runs: Iterable[Run]) -> Iterator[tuple[tuple[str, int], ...]]:
    """The tagged output (``Run.annotated_output``) of each of ``runs``,
    accepting runs of ``sst`` on one input, in turn.  A run shares the
    tagged variable contents of the run before it up to the step where
    their steps part, so each shared step prefix is tagged once."""
    transitions = sst.transitions
    levels = [_substitute(sst, sst._initial, (), 0)]  # the tagged contents along the run before
    before: tuple[int, ...] = ()
    for run in runs:
        steps, shared = run.steps, 0
        while shared < len(before) and steps[shared] == before[shared]:
            shared += 1
        del levels[shared + 1:]
        for k in range(shared, len(steps)):
            levels.append(_substitute(sst, transitions[steps[k]].update.images, levels[-1], k + 1))
        (out,) = _substitute(sst, (sst.final_output[run.end],), levels[-1], len(steps))
        yield out
        before = steps


def _start(sst: Sst) -> dict:
    """The frontier of the empty input, initial states in state order."""
    return dict.fromkeys((q, sst._initial) for q in sst._starts)


def _step(sst: Sst, frontier: dict, letter: str, budget: Budget) -> dict:
    """The frontier one letter further; charges one unit per configuration."""
    budget.charge(len(frontier))
    moves, templates, sep = sst._moves, sst._templates, sst._sep
    a = sst._letter_index[letter]
    return dict.fromkeys([
        (target, tuple(templates[i].format(*values).split(sep)))
        for state, values in frontier
        for i, target in moves[state][a]
    ])


def _count_step(sst: Sst, counts: dict[str, int], a: int) -> dict[str, int]:
    """Run counts per state, one letter (of index ``a``) further; charges
    nothing."""
    moves, fresh = sst._moves, {}
    for state, n in counts.items():
        for _, target in moves[state][a]:
            fresh[target] = fresh.get(target, 0) + n
    return fresh


def _final_outputs(sst: Sst, frontier: dict) -> dict[str, None]:
    """Outputs of the final configurations, in the order of their least
    runs."""
    finals = sst._final_templates
    return {finals[state].format(*values): None for state, values in frontier if state in finals}


def _leaf_outputs(sst: Sst, frontier: dict, letter: str) -> dict[str, None]:
    """``_final_outputs`` of the frontier one letter further, read without
    building it; charges nothing, where building it would charge one unit
    per configuration (``_step``).  Each move into a final state applies
    its composed template (``Sst._leaf_templates``) to the contents it
    leaves; listed per configuration and move in frontier order, the
    outputs keep the order of first occurrences that ``_step`` gives."""
    a, leaves = sst._letter_index[letter], sst._leaf_templates
    return {composite.format(*values): None
            for state, values in frontier for composite in leaves[state][a]}


def _word_outputs(sst: Sst, word: str, budget: Budget | int | None) -> dict[str, None]:
    """The outputs on ``word``, in the order of their least runs.  A
    non-empty word's last letter is read with ``_leaf_outputs`` on the
    frontier of the rest, charged as ``_step`` charges, as the scans read
    it.  The whole word is checked before the budget is charged."""
    _check_word(sst, word)
    b = Budget.ensure(budget)
    frontier = _start(sst)
    if not word:
        return _final_outputs(sst, frontier)
    for letter in word[:-1]:
        frontier = _step(sst, frontier, letter, b)
    b.charge(len(frontier))
    return _leaf_outputs(sst, frontier, word[-1])


def outputs(sst: Sst, word: str, budget: Budget | int | None = None) -> set[str]:
    """The set of words produced on ``word`` (deduplicated)."""
    return set(_word_outputs(sst, word, budget))


def _least_tagged_runs(sst: Sst, word: str, budget: Budget | int | None = None) -> dict:
    """The least accepting run on ``word`` of each distinct tagged output
    (``Run.annotated_output``), by that output, in canonical order, as the
    tuple (start, *steps): no ``Run`` is built here.

    The budget is charged first, as ``enumerate_runs`` charges it: one
    unit per start, then per letter one per partial run one letter longer,
    counted per state (``_count_step``).  If some partial run ends in a
    final state, a frontier of tagged configurations is then stepped: a key
    is a state and its tagged variable contents (``_substitute``), there is
    one dict per input prefix, and each key keeps the least run that
    reaches it.  The last letter takes only moves into final states.  Each
    final key's tagged output is grounded once, and the first key of each
    tagged output gives its run.
    """
    _check_word(sst, word)
    b = Budget.ensure(budget)
    n, finals, moves, transitions = len(word), sst.final_output, sst._moves, sst.transitions
    letters = [sst._letter_index[c] for c in word]
    counts = dict.fromkeys(sst._starts, 1)
    b.charge(len(counts))
    for a in letters:
        counts = _count_step(sst, counts, a)
        b.charge(sum(counts.values()))
    if not any(state in finals for state in counts):
        return {}
    initial = _substitute(sst, sst._initial, (), 0)
    frontier = {(q, initial): (q,) for q in sst._starts if n or q in finals}
    for k, a in enumerate(letters, 1):
        fresh: dict = {}
        for (state, contents), run in frontier.items():
            for i, target in moves[state][a]:
                if k < n or target in finals:
                    key = (target, _substitute(sst, transitions[i].update.images, contents, k))
                    if key not in fresh:
                        fresh[key] = (*run, i)
        frontier = fresh
    least: dict = {}
    for (state, contents), run in frontier.items():
        (out,) = _substitute(sst, (finals[state],), contents, n)
        least.setdefault(out, run)
    return least


def _scan(
    alphabet: Sequence[str],
    min_len: int,
    max_len: int,
    root,
    step: Callable,
    measure: Callable,
    leaf: Callable,
    key: Callable,
    top: int | None = None,
) -> tuple[int, str | None]:
    """Max of ``measure`` over the frontiers of the inputs u with min_len <=
    |u| <= max_len, plus the first such u reaching it in length-lexicographic
    order; (0, None) when there is no such input.

    No input measures below 0, so the least input of length min_len starts
    as the witness, at 0.  Walks the prefix trie depth-first in letter
    order, extending a frontier by one letter with ``step``, so it holds
    one frontier per depth.  A falsy frontier is dead: its extensions
    measure 0 and cannot displace the witness, so it is not extended.  An
    input of length max_len is measured by ``leaf(frontier, letter, need)``
    on its longest proper prefix's live frontier, which must equal
    ``measure(step(frontier, letter), need)`` (0 if dead) and charge the
    budget as ``step`` does, so the deepest frontiers are never built.
    Once the maximum reaches ``top``, only shorter inputs can still
    displace the witness.  A negative ``min_len`` raises ``ParameterError``.

    ``need`` is the least value that displaces the witness at the input's
    length: the maximum so far if the input is shorter than the witness,
    else one more.  Where the true value is below ``need``, ``measure`` and
    ``leaf`` may return any value below ``need``; otherwise they return
    the true value.

    A frontier the walk already holds is not walked again.  ``key`` maps a
    live frontier to a hashable value such that frontiers of equal keys
    measure alike, and so do their extensions by any word: ``step``,
    ``measure`` and ``leaf`` read only what the key holds.  Each depth
    keeps the keys of the children it descended into, unless a shallower
    depth keeps them already; ``held`` maps each key kept to its depth, and
    a depth's keys go when the walk pops it.
    A child v whose key is held at depth d0 is neither measured nor
    extended when d0 >= min_len or d0 = |v|.  This is exact.  Let u be the
    held prefix and w any word: v.w measures as u.w does; u.w is no longer
    than v.w, and at equal length it is lexicographically earlier, because
    the walk visits one depth in letter order; and u.w is measured
    wherever v.w would be, because |u| >= min_len or |u| = |v| (without
    that condition u.w could be shorter than min_len, and never measured).
    So v.w can neither raise the maximum nor become the first witness, and
    ``need`` carries over unchanged.  With ``top``, a child is not skipped
    for the key of its own ancestor, whose subtree is not done: the walk
    that skips nothing could meet a witness below the child before it meets
    the shorter one below the ancestor, and cut by it inputs that this walk
    would then try.

    Units: a skipped child's frontier is built, to read its key, and
    charged as ``step`` charges; nothing below it is built or charged.
    Without ``top`` no charge depends on the maximum or the witness, and
    with ``top`` every subtree whose key skips is done, so the walk charges
    what the walk that skips nothing charges, less the skipped subtrees:
    ``budget.used`` never rises, a result is never changed, and a stop may
    become a result.  Memory: at most len(alphabet) keys per depth, so the
    walk holds one frontier per depth and at most max_len * len(alphabet)
    keys.
    """
    if min_len < 0:
        raise ParameterError(f"min_len must not be negative: {min_len}")
    if min_len > max_len or (min_len and not alphabet):
        return 0, None
    best, witness = (0, alphabet[0] * min_len) if min_len else (measure(root, 0) if root else 0, "")
    held: dict = {}  # the depth of each key held
    # one (prefix, its live frontier, the letters not yet tried after it,
    # the keys of the children it descended into, its own key) per depth
    path = [("", root, iter(alphabet), [], None)] if root and max_len else []
    while path:
        prefix, frontier, letters, kept, _ = path[-1]
        depth = len(prefix) + 1  # the length of the inputs tried here
        for letter in letters:
            if best == top and depth >= len(witness):
                continue  # no input left here can displace the witness
            # depth-first visits inputs of one length in lexicographic order
            need = best + (depth >= len(witness))
            if depth == max_len:
                n = leaf(frontier, letter, need)
                if n >= need:
                    best, witness = n, prefix + letter
                continue
            child = step(frontier, letter)
            if not child:  # dead: it measures 0 and is not extended
                if depth >= min_len and need == 0:
                    witness = prefix + letter
                continue
            k = key(child)
            d0 = held.get(k)
            if d0 is not None:
                # path[d0] is the ancestor at depth d0
                if d0 == depth or d0 >= min_len and (top is None or path[d0][4] != k):
                    continue
            else:
                held[k] = depth
                kept.append(k)
            if depth >= min_len:
                n = measure(child, need)
                if n >= need:
                    best, witness = n, prefix + letter
            path.append((prefix + letter, child, iter(alphabet), [], k))
            break
        else:
            for k in kept:
                del held[k]
            path.pop()
    return best, witness


def valuedness_oracle(
    sst: Sst,
    max_len: int,
    budget: Budget | int | None = None,
    min_len: int = 1,
) -> tuple[int, str | None]:
    """Exhaustive scan: max |outputs(u)| over inputs with min_len <= |u| <=
    max_len, plus the first maximizing input in length-lexicographic order.

    ``min_len`` defaults to 1: the scan probes output growth, and the empty
    input is excluded from the default report.  Pass ``min_len=0`` to
    include it; a negative ``min_len`` raises ``ParameterError``.
    """
    b, finals, leaves = Budget.ensure(budget), sst._final_templates, sst._leaf_templates
    # per letter index, the most moves into final states that leave one state
    most = [max([len(per[a]) for per in leaves.values()], default=0) for a in range(len(sst.alphabet))]

    # Each count below bounds the outputs from above, coarsest first; the
    # outputs are grounded only when no count falls below ``need``.
    def measure(frontier: dict, need: int) -> int:
        n = len(frontier)
        if n >= need:
            n = sum([state in finals for state, _ in frontier])
        return n if n < need else len(_final_outputs(sst, frontier))

    def leaf(frontier: dict, letter: str, need: int) -> int:
        b.charge(len(frontier))
        a = sst._letter_index[letter]
        n = len(frontier) * most[a]
        if n >= need:
            n = sum([len(leaves[state][a]) for state, _ in frontier])
        return n if n < need else len(_leaf_outputs(sst, frontier, letter))

    return _scan(
        sst.alphabet, min_len, max_len, _start(sst),
        lambda frontier, letter: _step(sst, frontier, letter, b), measure, leaf, frozenset,
    )


def ambiguity_oracle(
    sst: Sst,
    max_len: int,
    budget: Budget | int | None = None,
    min_len: int = 1,
) -> tuple[int, str | None]:
    """Like ``valuedness_oracle`` but counting accepting runs."""
    b, moves, finals = Budget.ensure(budget), sst._moves, sst._final_templates

    def step(counts: dict[str, int], letter: str) -> dict[str, int]:
        b.charge(len(counts))
        return _count_step(sst, counts, sst._letter_index[letter])

    def leaf(counts: dict[str, int], letter: str, need: int) -> int:
        """Accepting runs one letter further."""
        b.charge(len(counts))
        a = sst._letter_index[letter]
        return sum(n for state, n in counts.items() for _, t in moves[state][a] if t in finals)

    return _scan(
        sst.alphabet, min_len, max_len, dict.fromkeys(sst.initials, 1), step,
        lambda counts, need: sum(n for state, n in counts.items() if state in finals), leaf,
        lambda counts: frozenset(counts.items()),
    )


# -- reachability ---------------------------------------------------------


def _bfs(adjacency: Mapping[str, Sequence], sources: Iterable[str]) -> dict:
    """Breadth-first search from ``sources`` over a per-state, per-letter
    table of (transition, state) pairs (``Sst._moves`` or
    ``Sst._predecessors``): every state reached, in visiting order, mapped
    to the (state, transition) pair it was first reached by, or to None for
    a source."""
    parents: dict = dict.fromkeys(sources)
    order = list(parents)
    for q in order:
        for per_letter in adjacency[q]:
            for i, nxt in per_letter:
                if nxt not in parents:
                    parents[nxt] = (q, i)
                    order.append(nxt)
    return parents


def reachable_states(sst: Sst) -> tuple[str, ...]:
    """States reachable from some initial state, in declaration order."""
    seen = _bfs(sst._moves, sst.initials)
    return tuple(q for q in sst.states if q in seen)


def coreachable_states(sst: Sst) -> tuple[str, ...]:
    """States from which some final state is reachable, in declaration order."""
    seen = _bfs(sst._predecessors, sst.finals)
    return tuple(q for q in sst.states if q in seen)


def shortest_access_run(sst: Sst, target: str) -> Run | None:
    """A shortest run from an initial state to ``target`` (BFS, deterministic)."""
    parents = _bfs(sst._moves, sst.initials)
    return _rebuild(sst, parents, target) if target in parents else None


def shortest_exit_run(sst: Sst, source: str) -> Run | None:
    """A shortest run from ``source`` to a final state (BFS, deterministic)."""
    parents = _bfs(sst._moves, (source,))
    end = next((q for q in parents if q in sst.finals), None)
    return None if end is None else _rebuild(sst, parents, end)


def _walk_back(parents: dict, node) -> tuple:
    """The source that a breadth-first search reached ``node`` from, and
    the labels along the way, in order, off ``parents``: each node reached
    mapped to the (node, label) pair it was first reached by, or to None
    for a source."""
    labels = []
    while parents[node] is not None:
        node, label = parents[node]
        labels.append(label)
    labels.reverse()
    return node, labels


def _rebuild(sst: Sst, parents: dict, state: str) -> Run:
    start, steps = _walk_back(parents, state)
    return Run(sst, start, tuple(steps))


def concat_runs(sst: Sst, runs: Sequence[Run]) -> Run:
    """Concatenate chained runs of ``sst``, each checked against the end of
    the one before it, and then validate the joined steps again as a whole."""
    if not runs:
        raise RunError("cannot concatenate an empty sequence of runs")
    steps: list[int] = []
    state = runs[0].start
    for r in runs:
        _check_owner(sst, r)
        if r.start != state:
            raise RunError(f"runs do not chain: expected start {state!r}, got {r.start!r}")
        steps.extend(r.steps)
        state = r.end
    return Run(sst, runs[0].start, tuple(steps))
