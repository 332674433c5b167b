"""Ambiguity and valuedness analysis.

Finite ambiguity (a uniform bound on the number of accepting runs per
input) is decided exactly: a transducer is finitely ambiguous iff it
contains no *dumbbell* -- two loop states joined by a bridge, all three
middle runs over the same input, at least two of them distinct.  How many
runs read an input depends on the transitions alone, so the search runs in
the synchronized three-track product of plain states (the IDA/EDA
criterion of Weber & Seidl, TCS 1991), and the triple of runs it finds is
powered until both loops have idempotent skeletons.

Finite valuedness (a uniform bound on the number of distinct outputs per
input) gets a sound partial decision.  The excluded substructure is a
*W-pattern*: three loop stations traversed left to right whose entry, loop,
and exit components are synchronized over shared inputs.  Marking one block
of a pumping sequence selects which station does the "real" work; if two
markings of the same sequence already produce different outputs for some
tuple in {1,2}^5, the pattern is *simply divergent* and the transducer maps
one input to unboundedly many outputs.  The search for one steps plain
states too, and reads whether a loop or a composite has an idempotent
skeleton off the templates of the updates it meets, letters erased.
The analyzer therefore answers:

  Finite    -- no dumbbell (finitely ambiguous, hence finitely valued);
  Infinite  -- a simply divergent W-pattern, re-verified by evaluation;
  Unknown   -- neither certificate found within the search budget.

Every verdict ships evidence.  Infinite witnesses and dumbbells are
re-checked through the core evaluator (``Run``) before they are reported.
A Finite verdict rests on the exhausted dumbbell search itself: nothing
outside the search re-checks the absence of dumbbells.

One analysis derives each fact about the machine once.  ``find_dumbbell``
makes the analysis context (``_Analysis``: the (q1, q2) pairs, the moves
toward each goal state, the shortest access and exit runs), and its
dumbbell carries the context into the W-pattern search.  The search
builds its own update pool; an Infinite witness keeps that pool and its
signature alive for ``amplify_valuedness``, and an Unknown verdict keeps
none.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import chain, product

from .errors import BudgetExceededError, ParameterError, RunError, SstKitError
from .model import (
    Budget,
    DEFAULT_NODE_BUDGET,
    Run,
    Sst,
    _bfs,
    _check_owner,
    _compile_update,
    _rebuild,
    _walk_back,
    concat_runs,
    coreachable_states,
    outputs,
    shortest_exit_run,
    valuedness_oracle,
)
from .skeletons import compose_skeletons, is_idempotent, skeleton_of


# -- dumbbells: exact finite-ambiguity decision -----------------------------


@dataclass(frozen=True)
class Dumbbell:
    """Witness of infinite ambiguity.

    rho0 reaches q1 from an initial state; rho1 loops at q1, rho2 bridges
    q1 to q2, rho3 loops at q2, all three over the same input; rho4 exits
    q2 to a final state.  The loops have idempotent skeletons and at least
    two of rho1, rho2, rho3 are distinct.
    """

    q1: str
    q2: str
    rho0: Run = field(repr=False)
    rho1: Run = field(repr=False)
    rho2: Run = field(repr=False)
    rho3: Run = field(repr=False)
    rho4: Run = field(repr=False)
    # the analysis context that found it, read on by the W-pattern search
    _context: _Analysis | None = field(default=None, repr=False, compare=False)

    def verify(self, sst: Sst) -> None:
        """Raise unless every structural invariant holds."""
        if self.rho0.start not in sst.initials:
            raise SstKitError("dumbbell access run does not start in an initial state")
        if self.rho0.end != self.q1:
            raise SstKitError("dumbbell access run does not reach q1")
        _expect_endpoints(self.rho1, self.q1, self.q1, "rho1")
        _expect_endpoints(self.rho2, self.q1, self.q2, "rho2")
        _expect_endpoints(self.rho3, self.q2, self.q2, "rho3")
        if not (self.rho1.input == self.rho2.input == self.rho3.input):
            raise SstKitError("dumbbell middle runs consume different inputs")
        for name, run in (("rho1", self.rho1), ("rho3", self.rho3)):
            if not is_idempotent(skeleton_of(run.induced_update)):
                raise SstKitError(f"dumbbell {name} is not a loop (skeleton not idempotent)")
        if self.rho1.steps == self.rho2.steps == self.rho3.steps:
            raise SstKitError("dumbbell requires at least two distinct middle runs")
        if self.rho4.start != self.q2:
            raise SstKitError("dumbbell exit run does not start at q2")
        if self.rho4.end not in sst.finals:
            raise SstKitError("dumbbell exit run does not reach a final state")

    def describe(self) -> dict:
        return {
            "q1": self.q1,
            "q2": self.q2,
            "shared_input": self.rho1.input,
            "rho0": self.rho0.describe(),
            "rho1": self.rho1.describe(),
            "rho2": self.rho2.describe(),
            "rho3": self.rho3.describe(),
            "rho4": self.rho4.describe(),
        }


def _expect_endpoints(run: Run, start: str, end: str, name: str) -> None:
    if run.start != start or run.end != end:
        raise SstKitError(
            f"{name} should go {start!r} -> {end!r}, goes {run.start!r} -> {run.end!r}"
        )


class _Memo(dict):
    """A dict that computes the value of a missing key as ``compute(key)``
    and keeps it, so that reading a known key is one dict lookup."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


class _Analysis:
    """The facts about ``sst`` that several steps of one valuedness analysis
    read, each derived once: the (q1, q2) pairs that ``_dumbbell_paths``
    tests, the reachable states times the coreachable ones, in order (one
    BFS of the initial states gives the reachable states and every
    shortest access run); and, on first use, each state's moves toward a
    goal state (``moves_toward``), and its shortest access and exit runs
    (``access_run``, for a reachable state, and ``exit_run``, for a
    coreachable one).  Each memo computes through a module function: one
    that held the context would make a reference cycle."""

    def __init__(self, sst: Sst):
        self.sst = sst
        parents = _bfs(sst._moves, sst.initials)
        self.pairs = list(product([q for q in sst.states if q in parents], coreachable_states(sst)))
        self.moves_toward = _Memo(partial(_moves_toward, sst)).__getitem__
        self.access_run = _Memo(partial(_rebuild, sst, parents)).__getitem__
        self.exit_run = _Memo(partial(shortest_exit_run, sst)).__getitem__


def _moves_toward(sst: Sst, goal: str) -> dict:
    """Each state's moves less those that cannot reach ``goal``."""
    reaching = _bfs(sst._predecessors, (goal,))
    return {q: tuple([m for m in letter if m[1] in reaching] for letter in moves)
            for q, moves in sst._moves.items()}


def find_dumbbell(sst: Sst, node_budget: int = DEFAULT_NODE_BUDGET) -> Dumbbell | None:
    """Exact search for a dumbbell, or None if the transducer has none.

    For each pair (q1, q2), in turn, three tracks consume the same input in
    lockstep: track 1 from q1, track 2 from q1, track 3 from q2.  A node of
    this product of states is (state, state, state, diff), where diff
    records whether the tracks have ever taken different transitions.  The
    pair has a dumbbell iff the product reaches (q1, q2, q2, True) from
    (q1, q1, q2, False): the criterion of Weber & Seidl (TCS 1991) for
    infinite ambiguity (IDA, and EDA when q1 = q2).  How many runs read an
    input depends on the transitions alone, so skeletons play no part in
    the decision, and the product is finite (states cubed, twice), so
    exhaustion is a proof of absence.

    The runs r1 (q1 -> q1), r2 (q1 -> q2) and r3 (q2 -> q2) found over one
    input v are then powered into a dumbbell.  The skeleton monoid is
    finite, so some least e >= 1 makes the skeletons of r1^e and r3^e both
    idempotent; the reported middle runs are r1^e, r1^(e-1) r2 and r3^e,
    over v^e.  Two of them stay distinct: if r1 != r2, the first two
    differ in their last block; if r1 = r2, then q1 = q2 and r3 differs
    from r1, so the first and the third differ.

    The search is trimmed to the goal: a node whose track 1 cannot reach
    q1, or whose track 2 or 3 cannot reach q2, is never queued, since the
    goal is not among its descendants.  ``node_budget`` counts popped
    nodes, at least one per (q1, q2) pair searched.
    """
    context = _Analysis(sst)
    for q1, q2, (r1, r2, r3) in _dumbbell_paths(context, Budget(node_budget)):
        rho1, rho3 = Run(sst, q1, r1), Run(sst, q2, r3)
        s1, s3 = skeleton_of(rho1.induced_update), skeleton_of(rho3.induced_update)
        p1, p3, e = s1, s3, 1
        while not (is_idempotent(p1) and is_idempotent(p3)):
            p1, p3, e = compose_skeletons(p1, s1), compose_skeletons(p3, s3), e + 1
        if e > 1:
            rho1, rho3 = Run(sst, q1, r1 * e), Run(sst, q2, r3 * e)
        dumbbell = Dumbbell(q1, q2, context.access_run(q1), rho1, Run(sst, q1, r1 * (e - 1) + r2),
                            rho3, context.exit_run(q2), context)
        dumbbell.verify(sst)
        return dumbbell
    return None


def _dumbbell_paths(context: _Analysis, budget: Budget, after: tuple | None = None):
    """Each pair (q1, q2) that has a dumbbell, with the three tracks' paths
    that ``_dumbbell_bfs`` finds for it, in turn: the pairs of ``context``
    (``_Analysis.pairs``), each tested only when it is asked for, and only
    the pairs after the pair ``after`` when it is given.  Popped nodes are
    charged to ``budget``; the trimmed moves are the context's."""
    pairs = context.pairs
    for q1, q2 in pairs[pairs.index(after) + 1:] if after else pairs:
        found = _dumbbell_bfs(q1, q2, context.moves_toward(q1), context.moves_toward(q2), budget)
        if found is not None:
            yield q1, q2, found


def _dumbbell_bfs(q1, q2, moves1, moves2, budget):
    """Breadth-first search of the three-track product of states from
    (q1, q1, q2, False) to (q1, q2, q2, True); returns the three tracks'
    paths of transitions, or None.  A node's children are, letter by
    letter in declared order, every combination of one move per track in
    lexicographic rank order.  Track 1 moves by ``moves1``, toward q1, and
    tracks 2 and 3 by ``moves2``, toward q2 (see ``find_dumbbell``).  The
    start node is always popped."""
    start, goal = (q1, q1, q2, False), (q1, q2, q2, True)
    parents: dict = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        budget.charge()
        if node == goal:
            return tuple(zip(*_walk_back(parents, node)[1]))
        p1, p2, p3, diff = node
        for letter1, letter2, letter3 in zip(moves1[p1], moves2[p2], moves2[p3]):
            for i1, v1 in letter1:
                for i2, v2 in letter2:
                    for i3, v3 in letter3:
                        child = (v1, v2, v3, diff or not (i1 == i2 == i3))
                        if child not in parents:
                            parents[child] = (node, (i1, i2, i3))
                            queue.append(child)
    return None


def is_finite_ambiguous(sst: Sst, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Exact: true iff the transducer admits no dumbbell."""
    return find_dumbbell(sst, node_budget=node_budget) is None


# -- W-patterns --------------------------------------------------------------


@dataclass(frozen=True)
class WPattern:
    """Three synchronized loop stations between q1 and q2.

    Component runs, with shared inputs across the three legs:

      entries[i] consume the common entry input   (q1->r1, q1->r2, q2->r3)
      loops[i]   consume the common loop input    (cycles at r1, r2, r3)
      exits[i]   consume the common exit input    (r1->q1, r2->q2, r3->q2)

    Each loops[i] and each composite entries[i] loops[i] exits[i] must have
    an idempotent skeleton.  Any component may be empty, all three loops
    too; such witnesses amplify on the golden corpus: evidence, not proof.
    """

    q1: str
    q2: str
    r1: str
    r2: str
    r3: str
    rho0: Run = field(repr=False)
    rho4: Run = field(repr=False)
    entries: tuple[Run, Run, Run] = field(repr=False)
    loops: tuple[Run, Run, Run] = field(repr=False)
    exits: tuple[Run, Run, Run] = field(repr=False)

    def verify(self, sst: Sst) -> None:
        if self.rho0.start not in sst.initials or self.rho0.end != self.q1:
            raise SstKitError("W-pattern access run must go initial -> q1")
        if self.rho4.start != self.q2 or self.rho4.end not in sst.finals:
            raise SstKitError("W-pattern exit run must go q2 -> final")
        stations = (self.r1, self.r2, self.r3)
        entry_starts = (self.q1, self.q1, self.q2)
        exit_ends = (self.q1, self.q2, self.q2)
        for i in range(3):
            _expect_endpoints(self.entries[i], entry_starts[i], stations[i], f"entry {i + 1}")
            _expect_endpoints(self.loops[i], stations[i], stations[i], f"loop {i + 1}")
            _expect_endpoints(self.exits[i], stations[i], exit_ends[i], f"exit {i + 1}")
        for group, name in ((self.entries, "entry"), (self.loops, "loop"), (self.exits, "exit")):
            if not (group[0].input == group[1].input == group[2].input):
                raise SstKitError(f"W-pattern {name} runs consume different inputs")
        for i in range(3):
            if not is_idempotent(skeleton_of(self.loops[i].induced_update)):
                raise SstKitError(f"W-pattern loop {i + 1} has no idempotent skeleton")
            composite = concat_runs(sst, [self.entries[i], self.loops[i], self.exits[i]])
            if not is_idempotent(skeleton_of(composite.induced_update)):
                raise SstKitError(f"W-pattern composite {i + 1} has no idempotent skeleton")

    @property
    def entry_input(self) -> str:
        return self.entries[0].input

    @property
    def loop_input(self) -> str:
        return self.loops[0].input

    @property
    def exit_input(self) -> str:
        return self.exits[0].input

    def describe(self) -> dict:
        return {
            "q1": self.q1,
            "q2": self.q2,
            "stations": [self.r1, self.r2, self.r3],
            "entry_input": self.entry_input,
            "loop_input": self.loop_input,
            "exit_input": self.exit_input,
            "rho0": self.rho0.describe(),
            "rho4": self.rho4.describe(),
            "entries": [r.describe() for r in self.entries],
            "loops": [r.describe() for r in self.loops],
            "exits": [r.describe() for r in self.exits],
        }


def build_wrun(sst: Sst, pattern: WPattern, values, mark: int) -> Run:
    """The accepting run of a marked pumping sequence.

    ``values`` is a sequence of positive loop counts; ``mark`` (0-based)
    selects which block goes through the middle station.  Blocks before the
    mark cycle at q1 via station r1, the marked block crosses to q2 via r2,
    blocks after it cycle at q2 via r3.  The consumed input depends only on
    the unmarked sequence.

    The segments' steps, each run's owner checked as ``concat_runs`` does,
    form one ``Run``, which validates the whole chain in one walk; the
    endpoints of an empty segment are left to ``WPattern.verify``.
    """
    values = tuple(values)
    if not values:
        raise RunError("marked sequence must be non-empty")
    if not 0 <= mark < len(values):
        raise RunError(f"mark {mark} outside the sequence of length {len(values)}")
    for x in values:
        if x < 1:
            raise RunError(f"loop counts must be positive, got {x}")
    for run in (pattern.rho0, *pattern.entries, *pattern.loops, *pattern.exits, pattern.rho4):
        _check_owner(sst, run)
    steps = list(pattern.rho0.steps)
    for idx, x in enumerate(values):
        leg = 0 if idx < mark else (1 if idx == mark else 2)
        steps += pattern.entries[leg].steps
        steps += pattern.loops[leg].steps * x
        steps += pattern.exits[leg].steps
    steps += pattern.rho4.steps
    return Run(sst, pattern.rho0.start, tuple(steps))


def _build_pattern(context: _Analysis, q1: str, q2: str, stations, entry_paths, loop_paths,
                   exit_paths) -> WPattern:
    """The W-pattern of a candidate shape of ``_pattern_candidates``, with
    the access and exit runs of ``context``."""
    sst, entry_starts = context.sst, (q1, q1, q2)
    return WPattern(
        q1, q2, *stations, context.access_run(q1), context.exit_run(q2),
        tuple(Run(sst, entry_starts[i], entry_paths[i]) for i in range(3)),
        tuple(Run(sst, stations[i], loop_paths[i]) for i in range(3)),
        tuple(Run(sst, stations[i], exit_paths[i]) for i in range(3)),
    )


# The tuples in {1,2}^5, lexicographic
_TUPLES = tuple(product((1, 2), repeat=5))


def _skeleton_idempotent(programs: list[str], sep: str, parts, leg: tuple) -> bool:
    """Whether entry . loop . exit, for ``leg`` the ids in ``programs`` of
    the three updates, has an idempotent skeleton.  ``parts`` keeps the
    fields and separators of a template, erasing its letters; erasing
    letters commutes with composing, so the skeleton templates compose as
    the programs do."""
    entry, loop, exit_ = ("".join(parts(programs[k])) for k in leg)
    skeleton = exit_.format(*loop.format(*entry.split(sep)).split(sep))
    return skeleton.format(*skeleton.split(sep)) == skeleton


class _UpdatePool:
    """The updates met by one W-pattern search, interned as templates (as in
    ``Sst._templates``; id 0 is the identity).  A template spells its
    update out -- letters as text, variables as replacement fields, images
    joined by the separator -- and composing yields the template of the
    composite, so two paths share an id exactly when their induced updates
    are equal.  ``step`` finds a path's id one transition at a time,
    memoized per (update id, transition).  A template with its letters
    erased is that of the update's skeleton, which ``idempotent`` composes
    per leg of a candidate (``_skeleton_idempotent``), memoized per leg.
    The W-runs of a signature (ids of the rho0 update and of three legs'
    (entry, loop, exit) updates, the rho4 update id, the end state) are
    evaluated here (``outputs``, ``first_divergent_tuple``), off tables
    memoized for the whole search:

      block   entry . loop^x . exit, per (leg, x);
      prefix  the contents after rho0 and a sequence of blocks, per (rho0
              update id, legs of the blocks);
      suffix  the image of the output over the contents before a sequence
              of blocks, per (legs of the blocks, rho4 update id, end
              state).
    """

    def __init__(self, sst: Sst):
        self.sst, self.sep = sst, sst._sep
        identity = _compile_update(sst, [(v,) for v in sst.variables])
        self.programs: list[str] = [identity]
        self._ids: dict[str, int] = {identity: 0}
        self._steps: dict[tuple, int] = {}
        # letters hold no braces and never the separator, so keeping the
        # fields and separators of a template erases exactly its letters
        parts = self._skeleton_parts = re.compile(r"\{\d+\}|" + re.escape(self.sep)).findall
        # leg -> whether it has an idempotent skeleton, computed on first read
        self._idempotent = _Memo(partial(_skeleton_idempotent, self.programs, self.sep, parts))
        self.idempotent = self._idempotent.__getitem__
        self._blocks: dict[tuple, str] = {}
        self._prefixes: dict[tuple, list] = {}
        self._suffixes: dict[tuple, list] = {}

    def step(self, k: int, i: int) -> int:
        """Id of update ``k`` followed by that of transition ``i``, memoized
        per (k, i)."""
        key = (k, i)
        if key not in self._steps:
            program = self.sst._templates[i].format(*self.programs[k].split(self.sep))
            if program not in self._ids:
                self._ids[program] = len(self.programs)
                self.programs.append(program)
            self._steps[key] = self._ids[program]
        return self._steps[key]

    def path_id(self, path: tuple) -> int:
        """Id of the update induced by a path of transitions."""
        return reduce(self.step, path, 0)

    def signature(self, pattern: WPattern) -> tuple:
        return (
            self.path_id(pattern.rho0.steps),
            tuple(zip(*([self.path_id(r.steps) for r in group]
                        for group in (pattern.entries, pattern.loops, pattern.exits)))),
            self.path_id(pattern.rho4.steps),
            pattern.rho4.end,
        )

    def block(self, leg: tuple, x: int) -> str:
        """The program of entry . loop^x . exit."""
        key = (leg, x)
        if key not in self._blocks:
            entry, loop, exit_ = (self.programs[k] for k in leg)
            acc = entry
            for _ in range(x):
                acc = loop.format(*acc.split(self.sep))
            self._blocks[key] = exit_.format(*acc.split(self.sep))
        return self._blocks[key]

    def prefix(self, alpha: int, legs: tuple) -> list:
        """Variable contents after the rho0 update ``alpha`` and then one
        block on each of ``legs`` in turn, for every tuple of counts in
        {1,2}^len(legs), lexicographic."""
        key = (alpha, legs)
        if key not in self._prefixes:
            sep = self.sep
            if legs:
                blocks = self.block(legs[-1], 1), self.block(legs[-1], 2)
                contents = [b.format(*c).split(sep)
                            for c in self.prefix(alpha, legs[:-1]) for b in blocks]
            else:
                contents = [self.programs[alpha].format(*self.sst._initial).split(sep)]
            self._prefixes[key] = contents
        return self._prefixes[key]

    def suffix(self, legs: tuple, omega: int, end_state: str) -> list:
        """The image that reads the output off the contents before one block
        on each of ``legs`` in turn, the rho4 update ``omega`` and the final
        output at ``end_state``, for every tuple of counts in
        {1,2}^len(legs), lexicographic."""
        key = (legs, omega, end_state)
        if key not in self._suffixes:
            sep = self.sep
            if legs:
                blocks = [self.block(legs[0], x).split(sep) for x in (1, 2)]
                images = [i.format(*b) for b in blocks
                          for i in self.suffix(legs[1:], omega, end_state)]
            else:
                final = self.sst._final_templates[end_state]
                images = [final.format(*self.programs[omega].split(sep))]
            self._suffixes[key] = images
        return self._suffixes[key]

    def outputs(self, signature: tuple, values) -> list[str]:
        """The output of the run of ``signature`` on the loop counts
        ``values`` marked at each position (0-based) as ``build_wrun``
        builds it, off the contents before each mark and the image after
        it, each built once: O(n) block applications for n counts."""
        alpha, (leg0, leg1, leg2), omega, end_state = signature
        sep, block = self.sep, self.block
        before = [self.prefix(alpha, ())[0]]
        for x in values[:-1]:
            before.append(block(leg0, x).format(*before[-1]).split(sep))
        after = [self.suffix((), omega, end_state)[0]]
        for x in values[:0:-1]:
            after.append(after[-1].format(*block(leg2, x).split(sep)))
        return [image.format(*block(leg1, x).format(*contents).split(sep))
                for contents, image, x in zip(before, reversed(after), values)]

    def first_divergent_tuple(self, signature: tuple) -> tuple[int, ...] | None:
        """The first tuple in {1,2}^5, lexicographic, whose runs of
        ``signature`` marked at position 2 and at position 4 give different
        outputs.

        A run's five blocks take legs 0, 1, 2, 2, 2 when it is marked at 2
        and legs 0, 0, 0, 1, 2 when it is marked at 4.  Each output is met
        in the middle: the suffix image of the trailing blocks, grounded
        on the prefix contents after the leading ones, so no leaf applies
        a block.  The suffix images, joined by the separator, are grounded
        once per prefix, which spells the 32 outputs of each mark in tuple
        order; outputs hold letters only and the separator is never one,
        so the two spellings are equal exactly when no tuple diverges.

        Both runs end with one block on leg 2, at count n5.  When neither
        suffix image of that last block (n5 = 1, 2) holds a ``{``, it
        names no variable, since letters are never braces: the output is
        that image whatever came before it, the same for both marks, and
        no tuple diverges.  This is decided before the other parts are
        built.

        Most divergent signatures diverge at the first tuple, (1,1,1,1,1).
        So when the prefix table of the first two blocks of the mark at 2
        is not built yet, that tuple's outputs at marks 2 and 4, read off
        ``outputs``, are compared first, before any table is built."""
        alpha, (leg0, leg1, leg2), omega, end_state = signature
        last = self.suffix((leg2,), omega, end_state)
        if "{" not in last[0] and "{" not in last[1]:
            return None
        if (alpha, (leg0, leg1)) not in self._prefixes:
            first = self.outputs(signature, _TUPLES[0])
            if first[1] != first[3]:
                return _TUPLES[0]
        mid_prefixes = self.prefix(alpha, (leg0, leg1))
        mid_suffixes = self.suffix((leg2, leg2, leg2), omega, end_state)
        late_prefixes = self.prefix(alpha, (leg0, leg0, leg0))
        late_suffixes = self.suffix((leg1, leg2), omega, end_state)
        sep = self.sep
        mid_images, late_images = sep.join(mid_suffixes), sep.join(late_suffixes)
        mid = sep.join([mid_images.format(*p) for p in mid_prefixes])
        late = sep.join([late_images.format(*p) for p in late_prefixes])
        if mid == late:
            return None
        both = zip(mid.split(sep), late.split(sep))
        return next(tup for tup, (a, b) in zip(_TUPLES, both) if a != b)


def is_simply_divergent(sst: Sst, pattern: WPattern) -> tuple[int, ...] | None:
    """First tuple (n1..n5) in {1,2}^5, lexicographic, whose two marked
    runs (mark at position 4 versus position 2) produce different outputs;
    None when no tuple diverges.

    A positive answer is confirmed by rebuilding both runs and comparing
    their evaluated outputs before it is returned.
    """
    pool = _UpdatePool(sst)
    tup = pool.first_divergent_tuple(pool.signature(pattern))
    if tup is None:
        return None
    _confirm_divergence(sst, pattern, tup)
    return tup


def _confirm_divergence(sst: Sst, pattern: WPattern, tup: tuple[int, ...],
                        pool: _UpdatePool | None = None, signature: tuple | None = None,
                        ) -> DivergentPattern:
    """Rebuild the two marked runs of ``tup`` and check through the core
    evaluator that they read one input and produce different outputs; the
    witness carries ``pool`` and the pattern's ``signature`` in it."""
    run_mid, run_late = build_wrun(sst, pattern, tup, 1), build_wrun(sst, pattern, tup, 3)
    if run_mid.input != run_late.input:
        raise SstKitError("marked runs consumed different inputs; pattern is broken")
    mid, late = run_mid.output, run_late.output
    if mid == late:
        raise SstKitError("evaluator disagrees with update composition on a witness")
    return DivergentPattern(pattern, tup, run_mid.input, mid, late, pool, signature)


@dataclass(frozen=True)
class DivergentPattern:
    """A W-pattern with a verified divergence tuple and the two outputs."""

    pattern: WPattern
    values: tuple[int, ...]
    input: str
    output_mark_mid: str  # mark at position 2 of 5
    output_mark_late: str  # mark at position 4 of 5
    # the search's update pool and the pattern's signature in it, which
    # ``amplify_valuedness`` reads on
    _pool: _UpdatePool | None = field(default=None, repr=False, compare=False)
    _signature: tuple | None = field(default=None, repr=False, compare=False)

    def describe(self) -> dict:
        return {
            "pattern": self.pattern.describe(),
            "tuple": list(self.values),
            "input": self.input,
            "outputs": [self.output_mark_mid, self.output_mark_late],
        }


# -- the W-pattern search ----------------------------------------------------


@dataclass(frozen=True)
class SearchBudget:
    """Knobs for the valuedness analysis.

    Defaults are desk-scale: they make small machines terminate quickly and
    are not completeness bounds of any kind.  A field that is not an
    ``int`` (a ``bool`` included) or is negative raises ``ParameterError``;
    zero is allowed.
    """

    component_length: int = 4
    candidates: int = 1_000_000
    node_budget: int = DEFAULT_NODE_BUDGET
    oracle_max_len: int = 6

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ParameterError(f"SearchBudget.{name} must be an int: {value!r}")
            if value < 0:
                raise ParameterError(f"SearchBudget.{name} must not be negative: {value}")

    def describe(self) -> dict:
        return dict(vars(self))


class _TripleLevels:
    """Synchronized run triples from a fixed start triple of states,
    generated level by level: level d holds every triple over one shared
    input of length exactly d, in lexicographic path order, as (paths, ids
    in ``pool`` of the updates they induce, end states).  Lazy, so shallow
    candidates are tested before deeper triples are ever generated.  A new
    level is charged, one unit per triple, before it is generated; a level
    that would cross the limit is never built."""

    def __init__(self, pool: _UpdatePool, starts: tuple, budget: Budget):
        self.moves, self.step, self.budget = pool.sst._moves, pool.step, budget
        self.idempotent, self.starts = pool.idempotent, starts
        budget.charge()
        self.levels: list[list[tuple]] = [[(((), (), ()), (0, 0, 0), starts)]]
        self._loops: list[list[tuple]] = []
        self._ends: dict[tuple, tuple] = {}

    def level(self, depth: int) -> list[tuple]:
        moves, step = self.moves, self.step
        while len(self.levels) <= depth:
            last = self.levels[-1]
            # each parent triple's children
            size = sum(len(a) * len(b) * len(c)
                       for _, _, ends in last for a, b, c in zip(*map(moves.get, ends)))
            self.budget.charge(size)
            fresh: list[tuple] = []
            for (p1, p2, p3), (k1, k2, k3), (s1, s2, s3) in last:
                for letter1, letter2, letter3 in zip(moves[s1], moves[s2], moves[s3]):
                    # each track's (path, update id, target) after one move,
                    # shared by every triple that takes the move
                    t2 = [(p2 + (i,), step(k2, i), v) for i, v in letter2]
                    t3 = [(p3 + (i,), step(k3, i), v) for i, v in letter3]
                    for i1, v1 in letter1:
                        a1, j1 = p1 + (i1,), step(k1, i1)
                        for a2, j2, v2 in t2:
                            for a3, j3, v3 in t3:
                                fresh.append(((a1, a2, a3), (j1, j2, j3), (v1, v2, v3)))
            self.levels.append(fresh)
        return self.levels[depth]

    def upto(self, max_len: int):
        """Levels 0..max_len in turn; level d+1 is generated once level d is read."""
        return chain.from_iterable(map(self.level, range(max_len + 1)))

    def loops(self, max_len: int):
        """The (paths, ids) of the triples of levels 0..max_len that end at
        the start triple and whose three updates have idempotent skeletons,
        in level order; each level is filtered once."""
        idempotent = self.idempotent
        for depth in range(max_len + 1):
            if depth == len(self._loops):
                self._loops.append([
                    (paths, ids) for paths, ids, ends in self.level(depth)
                    if ends == self.starts and all(idempotent((0, k, 0)) for k in ids)])
            yield from self._loops[depth]

    def ending_at(self, depth: int, goal: tuple) -> tuple[list[tuple], int]:
        """The first triple of each triple of update ids among those of
        level ``depth`` that end at ``goal``, in level order, as (position,
        triple) pairs, the position counted from 1; and the level's size.
        A later triple with the same ids gives every candidate the
        signature of an earlier one.  Found once per (depth, goal)."""
        key = (depth, goal)
        if key not in self._ends:
            level, found, ids = self.level(depth), [], set()
            for at, triple in enumerate(level, 1):
                if triple[2] == goal and triple[1] not in ids:
                    ids.add(triple[1])
                    found.append((at, triple))
            self._ends[key] = found, len(level)
        return self._ends[key]

    def size(self, max_len: int) -> int:
        """The count of the triples of levels 0..max_len."""
        return sum(len(self.level(depth)) for depth in range(max_len + 1))


def _pattern_candidates(context: _Analysis, pool: _UpdatePool, max_len: int, budget: Budget,
                        pairs):
    """Candidate W-pattern shapes at each (q1, q2) of ``pairs`` in turn, in a
    fixed, deterministic order, as tuples (signature, q1, q2, stations,
    entry_paths, loop_paths, exit_paths); ``_build_pattern`` takes the
    shape, the tuple less its signature.  The signature is what the
    divergence test depends on: ids in ``pool`` of the rho0 update, of the
    three legs' (entry, loop, exit) updates, read off the level entries,
    and of the rho4 update, and the end state.  For each (entry, loop)
    pair, every exit triple of the station levels is charged one unit, but
    only the first of each update-id triple among those ending at (q1, q2,
    q2) is read, and none when a pair of the same stations, entry ids and
    loop ids was met before at this (q1, q2); the triples before a read
    one are charged with it.  Each signature is yielded once: a later
    triple with the signature of a yielded candidate is skipped untested,
    though its budget is charged all the same.

    The search calls this with the pairs that have a dumbbell: at any other
    pair, the three composite runs of a candidate, over one input, go
    q1 -> q1, q1 -> q2 and q2 -> q2 and are all equal (else they would be
    a path to (q1, q2, q2, True) in ``_dumbbell_bfs``'s product), so every
    leg is the same and no mark can diverge.  Skipping such a pair costs no
    unit and loses no candidate, so a search that ends without a budget
    stop (``exhausted: false``) has tested every candidate whose
    components are at most ``max_len`` transitions long.

    Station shapes are pruned by the loop/composite idempotency
    requirements, read off the update templates by ``pool.idempotent``
    (a loop k as the leg (0, k, 0)), before any pattern object is built.
    The access and exit runs are those of ``context``.
    """
    idempotent, charge = pool.idempotent, budget.charge
    levels = _Memo(lambda starts: _TripleLevels(pool, starts, budget))
    yielded: set[tuple] = set()
    for q1, q2 in pairs:
        rho4, goal, classes = context.exit_run(q2), (q1, q2, q2), set()
        alpha, omega = pool.path_id(context.access_run(q1).steps), pool.path_id(rho4.steps)
        for e_paths, e_ids, stations in levels[q1, q1, q2].upto(max_len):
            station_levels = levels[stations]
            for l_paths, l_ids in station_levels.loops(max_len):
                if (stations, e_ids, l_ids) in classes:  # every signature met before
                    charge(station_levels.size(max_len))
                    continue
                classes.add((stations, e_ids, l_ids))
                for depth in range(max_len + 1):
                    exits, size = station_levels.ending_at(depth, goal)
                    done = 0  # the triples of the level charged so far
                    for at, (x_paths, x_ids, _) in exits:
                        charge(at - done)
                        done = at
                        legs = tuple(zip(e_ids, l_ids, x_ids))
                        signature = (alpha, legs, omega, rho4.end)
                        if signature in yielded or not all(map(idempotent, legs)):
                            continue
                        if legs[0] == legs[1] == legs[2]:
                            continue  # every mark gives the same output
                        yielded.add(signature)
                        yield (signature, q1, q2, stations, e_paths, l_paths, x_paths)
                    charge(size - done)


def _search_divergent_pattern(sst: Sst, sb: SearchBudget, dumbbell: Dumbbell | None = None):
    """The first candidate with a divergent tuple, in candidate order, over
    the (q1, q2) pairs that have a dumbbell, each tested when the search
    reaches it, with nodes popped under ``sb.node_budget``; a stop there
    is a budget stop of the search.  ``dumbbell``, ``find_dumbbell``'s on
    ``sst``, tells that the pairs before its own have none and that its own
    has one, so only the later pairs are tested; the search reads on its
    analysis context.  The search builds its own update pool, which the
    witness carries, so that a search that finds none keeps none."""
    budget = Budget(sb.candidates)
    report = {
        "component_length": sb.component_length,
        "candidate_budget": sb.candidates,
        "exhausted": False,
    }
    context = _Analysis(sst) if dumbbell is None else dumbbell._context
    known = [] if dumbbell is None else [(dumbbell.q1, dumbbell.q2)]
    tested = _dumbbell_paths(context, Budget(sb.node_budget), *known)
    pairs = chain(known, ((q1, q2) for q1, q2, _ in tested))
    pool = _UpdatePool(sst)
    try:
        for signature, *shape in _pattern_candidates(context, pool, sb.component_length, budget,
                                                     pairs):
            tup = pool.first_divergent_tuple(signature)
            if tup is None:
                continue
            pattern = _build_pattern(context, *shape)
            pattern.verify(sst)
            witness = _confirm_divergence(sst, pattern, tup, pool, signature)
            report["candidates_used"] = budget.used
            return witness, report
    except BudgetExceededError:
        report["exhausted"] = True
    report["candidates_used"] = budget.used
    return None, report


# -- verdicts ----------------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of the valuedness analysis, with verifiable evidence.

    kind is "Finite", "Infinite", or "Unknown".  Infinite verdicts carry a
    divergent W-pattern whose two marked runs were re-evaluated and found
    unequal; Finite verdicts certify the absence of dumbbells; Unknown
    verdicts carry the budget report and an exhaustive small-input oracle
    reading.
    """

    kind: str
    witness: DivergentPattern | None
    dumbbell: Dumbbell | None
    details: dict
    budgets: dict
    oracle_reading: dict | None

    def to_json(self) -> dict:
        evidence: dict = dict(self.details)
        if self.witness is not None:
            evidence["witness"] = self.witness.describe()
        if self.dumbbell is not None:
            evidence["dumbbell"] = self.dumbbell.describe()
        return {
            "kind": self.kind,
            "evidence": evidence,
            "budgets": self.budgets,
            "oracle_readings": self.oracle_reading,
        }


def analyze_valuedness(sst: Sst, budget: SearchBudget | None = None) -> Verdict:
    """Sound partial decision of finite valuedness.

    1. No dumbbell: finitely ambiguous, hence finitely valued -> Finite.
    2. Otherwise search for a simply divergent W-pattern within the budget;
       a verified witness -> Infinite.
    3. Otherwise -> Unknown (budget report plus oracle reading); budget
       exhaustion never produces a wrong verdict.
    """
    sb = budget or SearchBudget()
    budgets = sb.describe()
    try:
        dumbbell = find_dumbbell(sst, node_budget=sb.node_budget)
    except BudgetExceededError as err:
        return Verdict(
            "Unknown", None, None,
            {"reason": f"dumbbell search aborted: {err}"},
            budgets, _oracle_reading(sst, sb),
        )
    if dumbbell is None:
        return Verdict(
            "Finite", None, None,
            {"certificate": "no dumbbell: the transducer is finitely ambiguous"},
            budgets, None,
        )
    witness, report = _search_divergent_pattern(sst, sb, dumbbell)
    if witness is not None:
        return Verdict(
            "Infinite", witness, dumbbell,
            {"search": report},
            budgets, None,
        )
    return Verdict(
        "Unknown", None, dumbbell,
        {
            "reason": "dumbbell present but no simply divergent W-pattern found",
            "search": report,
        },
        budgets, _oracle_reading(sst, sb),
    )


def _oracle_reading(sst: Sst, sb: SearchBudget) -> dict | None:
    try:
        count, witness = valuedness_oracle(sst, sb.oracle_max_len, Budget(sb.node_budget))
    except BudgetExceededError:
        return None
    return {"max_len": sb.oracle_max_len, "max_outputs": count, "witness": witness}


# -- amplification -----------------------------------------------------------


def amplify_valuedness(
    sst: Sst,
    divergent: DivergentPattern,
    m: int,
    budget: Budget | int | None = None,
) -> tuple[str, list[str]] | None:
    """Produce one input with m pairwise distinct outputs.

    Scans marked-sequence families of the divergent pattern: for a common
    unmarked sequence t_1..t_n, the runs marked at each position all read
    the same input.  Lengths n = m, m+1, ..., 2m are scanned in turn.  For
    each length, loop counts range over 1..c, with c = m plus the larger of
    2 and the largest count of the divergence tuple, and sequences are
    scanned by increasing largest count, then lexicographically.  The scan
    stops at the first sequence whose n marked runs give at least m
    distinct outputs, and returns its input with the outputs of the marks
    that first produce m distinct outputs, in mark order.  The budget is
    charged one unit per sequence scanned, and the final check
    ``outputs(sst, word, b)`` charges its configuration expansions to it.
    The outputs are read off the update pool of the search that found
    ``divergent`` when it carries one of ``sst``, else off a fresh one.

    Returns None when the budget runs out, and when no sequence in that
    range gives m distinct outputs.  All reported outputs are re-verified
    by rebuilding their runs and against the output set of the input.  An
    ``m`` below 1, and a witness not found by an analysis of this very
    ``sst`` instance, raise ``ParameterError`` before any unit is charged.
    """
    if m < 1:
        raise ParameterError("need m >= 1 outputs")
    pattern = divergent.pattern
    if pattern.rho0.sst is not sst:
        raise ParameterError("the witness must come from an analysis of this Sst instance")
    b = Budget.ensure(budget)
    pool, signature = divergent._pool, divergent._signature
    if pool is None or pool.sst is not sst:
        pool = _UpdatePool(sst)
        signature = pool.signature(pattern)
    top = max(2, max(divergent.values))
    try:
        for n in range(m, 2 * m + 1):
            for vmax in range(1, top + m + 1):
                for values in product(range(1, vmax + 1), repeat=n):
                    if max(values) < vmax:
                        continue  # already scanned under a smaller cap
                    b.charge()
                    marked = pool.outputs(signature, values)
                    outs = list(dict.fromkeys(marked))[:m]
                    if len(outs) < m:
                        continue
                    runs = [build_wrun(sst, pattern, values, marked.index(o)) for o in outs]
                    word = runs[0].input
                    real = [run.output for run in runs]
                    if real != outs or any(r.input != word for r in runs):
                        raise SstKitError("amplified runs failed re-evaluation")
                    if not set(real) <= outputs(sst, word, b):
                        raise SstKitError("amplified outputs not realized by the transducer")
                    return word, real
    except BudgetExceededError:
        return None
    return None
