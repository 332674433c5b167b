"""Ambiguity and valuedness analysis.

Finite ambiguity (a uniform bound on the number of accepting runs per
input) is decided exactly: a transducer is finitely ambiguous iff it
contains no *dumbbell* -- two loop states joined by a bridge, all three
middle runs over the same input, at least two of them distinct.  The search
runs in a synchronized three-track product whose tracks accumulate
skeletons, so loop idempotency is checked on the fly.

Finite valuedness (a uniform bound on the number of distinct outputs per
input) gets a sound partial decision.  The excluded substructure is a
*W-pattern*: three loop stations traversed left to right whose entry, loop,
and exit components are synchronized over shared inputs.  Marking one block
of a pumping sequence selects which station does the "real" work; if two
markings of the same sequence already produce different outputs for some
tuple in {1,2}^5, the pattern is *simply divergent* and the transducer maps
one input to unboundedly many outputs.  The analyzer therefore answers:

  Finite    -- no dumbbell (finitely ambiguous, hence finitely valued);
  Infinite  -- a simply divergent W-pattern, re-verified by evaluation;
  Unknown   -- neither certificate found within the search budget.

Every verdict ships evidence; nothing is reported without re-checking it
through the core evaluator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product

from .errors import BudgetExceededError, RunError, SstKitError
from .model import (
    Budget,
    DEFAULT_NODE_BUDGET,
    Run,
    Sst,
    Update,
    _apply,
    _compile_image,
    _compile_update,
    _ground,
    compose_updates,
    concat_runs,
    coreachable_states,
    outputs,
    reachable_states,
    shortest_access_run,
    shortest_exit_run,
    valuedness_oracle,
)
from .skeletons import (
    SKELETON_MONOID_CAP,
    _monoid_table,
    is_idempotent,
    skeleton_monoid,
    skeleton_of,
)


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


def find_dumbbell(
    sst: Sst,
    monoid_cap: int = SKELETON_MONOID_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Dumbbell | None:
    """Exact search for a dumbbell, or None if the transducer has none.

    Three tracks consume the same input in lockstep: track 1 must loop at
    q1, track 2 must move q1 -> q2, track 3 must loop at q2.  Each track
    accumulates the skeleton of its induced update, as an element id of the
    numbered skeleton monoid; a boolean records whether the tracks have ever
    disagreed.  The product is finite (states times skeleton monoid, cubed),
    so exhaustion is a proof of absence.
    """
    skeleton_monoid(sst, monoid_cap)  # loud failure if the monoid is oversized
    table = _monoid_table(sst, monoid_cap)  # cached by the call above
    budget = Budget(node_budget)
    reach = reachable_states(sst)
    coreach = set(coreachable_states(sst))

    for q1 in reach:
        for q2 in (q for q in sst.states if q in coreach):
            found = _dumbbell_bfs(sst, q1, q2, table, budget)
            if found is None:
                continue
            path1, path2, path3 = found
            rho0 = shortest_access_run(sst, q1)
            rho4 = shortest_exit_run(sst, q2)
            assert rho0 is not None and rho4 is not None
            dumbbell = Dumbbell(
                q1,
                q2,
                rho0,
                Run(sst, q1, path1),
                Run(sst, q1, path2),
                Run(sst, q2, path3),
                rho4,
            )
            dumbbell.verify(sst)
            return dumbbell
    return None


def _sync_moves(sst, times, states, accs):
    """One synchronized step of the tracks at ``states``, whose runs so far
    have skeletons ``accs``: for each letter in declared order, every
    combination of one transition per track reading it, in lexicographic
    order, as one (transition, target, skeleton after it) triple per track.
    Skeletons are element ids of the numbered skeleton monoid, whose table
    by transitions is ``times``."""
    transitions = sst.transitions
    for a in sst.alphabet:
        yield from product(*(
            [(i, transitions[i].target, times[i][acc]) for i in sst.transitions_from(q, a)]
            for q, acc in zip(states, accs)
        ))


def _dumbbell_bfs(sst, q1, q2, table, budget):
    start = ((q1, q1, q2), (0, 0, 0), False)
    goal = (q1, q2, q2)
    times, idempotent = table.times, table.idempotent
    parents: dict = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        budget.charge()
        states, accs, diff = node
        if diff and states == goal and idempotent[accs[0]] and idempotent[accs[2]]:
            return _rebuild_triple(parents, node)
        for moves in _sync_moves(sst, times, states, accs):
            ids, targets, skeletons = zip(*moves)
            child = (targets, skeletons, diff or not (ids[0] == ids[1] == ids[2]))
            if child not in parents:
                parents[child] = (node, ids)
                queue.append(child)
    return None


def _rebuild_triple(parents, node):
    paths: tuple[list[int], list[int], list[int]] = ([], [], [])
    while parents[node] is not None:
        node, ids = parents[node]
        for path, i in zip(paths, ids):
            path.append(i)
    return tuple(tuple(reversed(p)) for p in paths)


def is_finite_ambiguous(
    sst: Sst,
    monoid_cap: int = SKELETON_MONOID_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Exact: true iff the transducer admits no dumbbell."""
    return find_dumbbell(sst, monoid_cap=monoid_cap, node_budget=node_budget) is None


# -- W-patterns --------------------------------------------------------------


@dataclass(frozen=True)
class WPattern:
    """Three synchronized loop stations between q1 and q2.

    Component runs, with shared inputs across the three legs:

      entries[i] consume the common entry input   (q1->r1, q1->r2, q2->r3)
      loops[i]   consume the common loop input    (cycles at r1, r2, r3)
      exits[i]   consume the common exit input    (r1->q1, r2->q2, r3->q2)

    Each loops[i] and each composite entries[i] loops[i] exits[i] must have
    an idempotent skeleton.  Components may be empty.
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
    """
    values = tuple(values)
    if not values:
        raise RunError("marked sequence must be non-empty")
    if not 0 <= mark < len(values):
        raise RunError(f"mark {mark} outside the sequence of length {len(values)}")
    for x in values:
        if x < 1:
            raise RunError(f"loop counts must be positive, got {x}")
    segments = [pattern.rho0]
    for idx, x in enumerate(values):
        leg = 0 if idx < mark else (1 if idx == mark else 2)
        segments.append(pattern.entries[leg])
        segments.extend([pattern.loops[leg]] * x)
        segments.append(pattern.exits[leg])
    segments.append(pattern.rho4)
    return concat_runs(sst, segments)


_TUPLES: tuple[tuple[int, ...], ...] = tuple(product((1, 2), repeat=5))


class _PatternEvaluator:
    """Fast W-run outputs for a pattern.

    The per-leg block updates (entry . loop^x . exit) are composed once and
    compiled into the configuration engine's index programs; marked runs
    are then evaluated over tuples of concrete variable contents instead of
    being materialized, sharing common prefixes across the tuple scan.
    """

    def __init__(self, sst: Sst, alpha: Update, legs, omega: Update, end_state: str):
        # legs: three (entry, loop, exit) update triples
        self._var_pos = sst._var_index
        self._legs = legs
        self._block_progs: dict[tuple[int, int], tuple] = {}
        base = tuple(sst.initial_assignment[v] for v in sst.variables)
        self._base = _apply(_compile_update(self._var_pos, alpha), base)
        # the exit run and the final output, as one image
        self._final = _compile_image(self._var_pos, omega.apply_to(sst.final_output[end_state]))

    @classmethod
    def for_pattern(cls, sst: Sst, pattern: WPattern) -> "_PatternEvaluator":
        legs = tuple(
            (
                pattern.entries[i].induced_update,
                pattern.loops[i].induced_update,
                pattern.exits[i].induced_update,
            )
            for i in range(3)
        )
        return cls(
            sst,
            pattern.rho0.induced_update,
            legs,
            pattern.rho4.induced_update,
            pattern.rho4.end,
        )

    def block_prog(self, leg: int, x: int) -> tuple:
        key = (leg, x)
        if key not in self._block_progs:
            entry, loop, exit_ = self._legs[leg]
            acc = entry
            for _ in range(x):
                acc = compose_updates(loop, acc)
            acc = compose_updates(exit_, acc)
            self._block_progs[key] = _compile_update(self._var_pos, acc)
        return self._block_progs[key]

    def output(self, values, mark: int) -> str:
        contents = self._base
        for idx, x in enumerate(values):
            leg = 0 if idx < mark else (1 if idx == mark else 2)
            contents = _apply(self.block_prog(leg, x), contents)
        return self._finish(contents)

    def _finish(self, contents: tuple[str, ...]) -> str:
        return _ground(self._final, contents)

    def outputs_for_all_tuples(self, mark: int) -> dict[tuple[int, ...], str]:
        """Outputs of every tuple in {1,2}^5 for one mark, sharing content
        prefixes along the enumeration tree."""
        legs = tuple(0 if i < mark else (1 if i == mark else 2) for i in range(5))
        out: dict[tuple[int, ...], str] = {}

        def rec(idx: int, contents: tuple[str, ...], prefix: tuple[int, ...]):
            if idx == 5:
                out[prefix] = self._finish(contents)
                return
            for x in (1, 2):
                rec(
                    idx + 1,
                    _apply(self.block_prog(legs[idx], x), contents),
                    prefix + (x,),
                )

        rec(0, self._base, ())
        return out

    def first_divergent_tuple(self) -> tuple[int, ...] | None:
        late = self.outputs_for_all_tuples(3)
        mid = self.outputs_for_all_tuples(1)
        for tup in _TUPLES:
            if late[tup] != mid[tup]:
                return tup
        return None


def is_simply_divergent(sst: Sst, pattern: WPattern) -> tuple[int, ...] | None:
    """First tuple (n1..n5) in {1,2}^5, lexicographic, whose two marked
    runs (mark at position 4 versus position 2) produce different outputs;
    None when no tuple diverges.

    A positive answer is confirmed by rebuilding both runs and comparing
    their evaluated outputs before it is returned.
    """
    groups = (pattern.entries, pattern.loops, pattern.exits)
    if _legs_identical(*([r.steps for r in group] for group in groups)):
        return None
    tup = _PatternEvaluator.for_pattern(sst, pattern).first_divergent_tuple()
    if tup is None:
        return None
    _confirm_divergence(sst, pattern, tup)
    return tup


def _legs_identical(*components) -> bool:
    """All three legs follow the same transitions in every component
    (entry, loop, exit paths), so every pair of marked runs coincides and
    divergence is impossible."""
    return all(paths[0] == paths[1] == paths[2] for paths in components)


def _confirm_divergence(sst: Sst, pattern: WPattern, tup: tuple[int, ...]) -> "DivergentPattern":
    """Rebuild the two marked runs of ``tup`` and check through the core
    evaluator that they read one input and produce different outputs."""
    run_mid = build_wrun(sst, pattern, tup, 1)
    run_late = build_wrun(sst, pattern, tup, 3)
    if run_mid.input != run_late.input:
        raise SstKitError("marked runs consumed different inputs; pattern is broken")
    if run_mid.output == run_late.output:
        raise SstKitError("evaluator disagrees with update composition on a witness")
    return DivergentPattern(pattern, tup, run_mid.input, run_mid.output, run_late.output)


@dataclass(frozen=True)
class DivergentPattern:
    """A W-pattern with a verified divergence tuple and the two outputs."""

    pattern: WPattern
    values: tuple[int, ...]
    input: str
    output_mark_mid: str  # mark at position 2 of 5
    output_mark_late: str  # mark at position 4 of 5

    def describe(self) -> dict:
        return {
            "pattern": self.pattern.describe(),
            "tuple": list(self.values),
            "input": self.input,
            "outputs": [self.output_mark_mid, self.output_mark_late],
        }


# -- the W-pattern search ----------------------------------------------------


@dataclass
class SearchBudget:
    """Knobs for the valuedness analysis.

    Defaults are desk-scale: they make small machines terminate quickly and
    are not completeness bounds of any kind.
    """

    component_length: int = 4
    candidates: int = 1_000_000
    node_budget: int = DEFAULT_NODE_BUDGET
    monoid_cap: int = SKELETON_MONOID_CAP
    oracle_max_len: int = 6

    def describe(self) -> dict:
        return {
            "component_length": self.component_length,
            "candidates": self.candidates,
            "node_budget": self.node_budget,
            "monoid_cap": self.monoid_cap,
            "oracle_max_len": self.oracle_max_len,
        }


class _TripleLevels:
    """Synchronized run triples from a fixed start triple, generated level
    by level: level d holds every triple over one shared input of length
    exactly d, in lexicographic path order, as (paths, end states, skeleton
    ids in the numbered monoid whose table by transitions is ``times``).
    Lazy, so shallow candidates are tested before deeper triples are ever
    generated."""

    def __init__(self, sst: Sst, starts, budget: Budget, times):
        self.sst = sst
        self.budget = budget
        self.times = times
        self.budget.charge()
        self.levels: list[list[tuple]] = [[(((), (), ()), tuple(starts), (0, 0, 0))]]

    def level(self, depth: int) -> list[tuple]:
        sst, times = self.sst, self.times
        while len(self.levels) <= depth:
            fresh: list[tuple] = []
            for paths, states, accs in self.levels[-1]:
                for moves in _sync_moves(sst, times, states, accs):
                    self.budget.charge()
                    ids, targets, skeletons = zip(*moves)
                    fresh.append((tuple(p + (i,) for p, i in zip(paths, ids)), targets, skeletons))
            self.levels.append(fresh)
        return self.levels[depth]


@dataclass(frozen=True)
class _RawCandidate:
    """A W-pattern shape before any Run object is materialized."""

    q1: str
    q2: str
    stations: tuple[str, str, str]
    entry_paths: tuple
    loop_paths: tuple
    exit_paths: tuple
    legs: tuple  # three (entry, loop, exit) update triples
    rho0: Run = field(repr=False)
    rho4: Run = field(repr=False)
    # what the divergence test depends on: ids of the rho0 update, the nine
    # leg updates and the rho4 update, and the end state
    signature: tuple = field(repr=False)

    def build_pattern(self, sst: Sst) -> WPattern:
        entry_starts = (self.q1, self.q1, self.q2)
        return WPattern(
            self.q1, self.q2, *self.stations,
            self.rho0, self.rho4,
            tuple(Run(sst, entry_starts[i], self.entry_paths[i]) for i in range(3)),
            tuple(Run(sst, self.stations[i], self.loop_paths[i]) for i in range(3)),
            tuple(Run(sst, self.stations[i], self.exit_paths[i]) for i in range(3)),
        )


def _pattern_candidates(
    sst: Sst, max_len: int, budget: Budget, monoid_cap: int = SKELETON_MONOID_CAP
):
    """Candidate W-pattern shapes in a fixed, deterministic order.

    Station shapes are pruned by the loop/composite idempotency
    requirements before any pattern object is built.
    """
    reach = reachable_states(sst)
    coreach = set(coreachable_states(sst))
    table = _monoid_table(sst, monoid_cap)
    idempotent, product = table.idempotent, table.product
    levels_memo: dict = {}
    step_updates = tuple(t.update for t in sst.transitions)
    identity = Update.identity(sst.variables)
    # updates are interned: equal updates get one id
    update_ids: dict[Update, int] = {}
    updates: list[Update] = []
    path_ids: dict[tuple, int] = {}

    def levels(starts) -> _TripleLevels:
        if starts not in levels_memo:
            levels_memo[starts] = _TripleLevels(sst, starts, budget, table.times)
        return levels_memo[starts]

    def intern(update: Update) -> int:
        if update not in update_ids:
            update_ids[update] = len(updates)
            updates.append(update)
        return update_ids[update]

    def path_id(path: tuple) -> int:
        # one fold per distinct path; combinations share the cache
        if path not in path_ids:
            acc = identity
            for i in path:
                acc = compose_updates(step_updates[i], acc)
            path_ids[path] = intern(acc)
        return path_ids[path]

    for q1 in reach:
        rho0 = shortest_access_run(sst, q1)
        alpha = intern(rho0.induced_update)
        for q2 in (q for q in sst.states if q in coreach):
            rho4 = shortest_exit_run(sst, q2)
            omega = intern(rho4.induced_update)
            for len_e in range(max_len + 1):
                for e_paths, e_ends, e_accs in levels((q1, q1, q2)).level(len_e):
                    stations = e_ends
                    station_levels = levels(stations)
                    for len_l in range(max_len + 1):
                        for l_paths, l_ends, l_accs in station_levels.level(len_l):
                            if l_ends != stations:
                                continue
                            if not all(idempotent[s] for s in l_accs):
                                continue
                            for len_x in range(max_len + 1):
                                for x_paths, x_ends, x_accs in station_levels.level(len_x):
                                    budget.charge()
                                    if x_ends != (q1, q2, q2):
                                        continue
                                    composite_ok = all(
                                        idempotent[product(x_accs[i], product(l_accs[i], e_accs[i]))]
                                        for i in range(3)
                                    )
                                    if not composite_ok:
                                        continue
                                    if not any(e_paths[0] + l_paths[0] + x_paths[0]
                                               + e_paths[1] + l_paths[1] + x_paths[1]
                                               + e_paths[2] + l_paths[2] + x_paths[2]):
                                        continue  # fully empty pattern cannot diverge
                                    if _legs_identical(e_paths, l_paths, x_paths):
                                        continue
                                    leg_ids = tuple(
                                        (path_id(e_paths[i]), path_id(l_paths[i]), path_id(x_paths[i]))
                                        for i in range(3)
                                    )
                                    yield _RawCandidate(
                                        q1, q2, stations,
                                        e_paths, l_paths, x_paths,
                                        tuple(tuple(updates[k] for k in leg) for leg in leg_ids),
                                        rho0, rho4,
                                        (alpha, leg_ids, omega, rho4.end),
                                    )


def _search_divergent_pattern(sst: Sst, sb: SearchBudget):
    """The first candidate with a divergent tuple, in candidate order.  The
    divergence test depends on the candidate's signature only, so a
    signature already found non-divergent is skipped untested; the budget
    is charged for it all the same."""
    budget = Budget(sb.candidates)
    report = {
        "component_length": sb.component_length,
        "candidate_budget": sb.candidates,
        "exhausted": False,
    }
    non_divergent: set[tuple] = set()
    try:
        for raw in _pattern_candidates(sst, sb.component_length, budget, sb.monoid_cap):
            if raw.signature in non_divergent:
                continue
            ev = _PatternEvaluator(
                sst, raw.rho0.induced_update, raw.legs,
                raw.rho4.induced_update, raw.rho4.end,
            )
            tup = ev.first_divergent_tuple()
            if tup is None:
                non_divergent.add(raw.signature)
                continue
            pattern = raw.build_pattern(sst)
            pattern.verify(sst)
            witness = _confirm_divergence(sst, pattern, tup)
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
        dumbbell = find_dumbbell(sst, monoid_cap=sb.monoid_cap, node_budget=sb.node_budget)
    except BudgetExceededError as err:
        return Verdict(
            "Unknown", None, None,
            {"reason": f"dumbbell search aborted: {err}"},
            budgets, _oracle_reading(sst, sb),
        )
    if dumbbell is None:
        return Verdict(
            "Finite", None, None,
            {
                "certificate": "no dumbbell: the transducer is finitely ambiguous",
                "skeleton_monoid_size": len(skeleton_monoid(sst, sb.monoid_cap)),
            },
            budgets, None,
        )
    witness, report = _search_divergent_pattern(sst, sb)
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
    """Produce one input with at least m pairwise distinct outputs.

    Scans marked-sequence families of the divergent pattern: for a common
    unmarked sequence t_1..t_m, the runs marked at each position all read
    the same input; the scan stops at the first assignment making their
    outputs pairwise distinct.  Returns None only on budget exhaustion.
    All reported outputs are re-verified against the output set of the
    input.
    """
    if m < 1:
        raise SstKitError("need m >= 1 outputs")
    pattern = divergent.pattern
    b = Budget.ensure(budget)
    ev = _PatternEvaluator.for_pattern(sst, pattern)
    top = max(2, max(divergent.values))
    try:
        for vmax in range(1, top + m + 1):
            for values in product(range(1, vmax + 1), repeat=m):
                if max(values) != vmax and vmax > 1:
                    continue  # already scanned under a smaller cap
                b.charge()
                outs = [ev.output(values, h) for h in range(m)]
                if len(set(outs)) == m:
                    runs = [build_wrun(sst, pattern, values, h) for h in range(m)]
                    word = runs[0].input
                    real = [r.output for r in runs]
                    if real != outs or any(r.input != word for r in runs):
                        raise SstKitError("amplified runs failed re-evaluation")
                    full = outputs(sst, word, b)
                    if not set(real) <= full:
                        raise SstKitError("amplified outputs not realized by the transducer")
                    return word, real
    except BudgetExceededError:
        return None
    return None
