"""Skeletons, loops, and pumping.

The skeleton of an update is the update with every letter erased; only the
flow of variables into variables remains.  Skeletons compose like updates
and there are finitely many of them, so they form a finite monoid, which
``skeleton_monoid`` closes under a cap of ``SKELETON_MONOID_CAP``
elements; no analysis numbers its elements.  A loop
of a run is an interval that starts and ends in the same state and whose
induced update has an idempotent skeleton; repeating (pumping) a loop keeps
the run valid and changes the output in a very disciplined way: each pumped
loop contributes at most two repeated factors per variable, which this
module materializes as a symbolic parameterized word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    BudgetExceededError,
    CopylessError,
    NotIdempotentError,
    RunError,
    SstKitError,
)
from .model import Run, Sst, Update, _check_owner, _substitute
from .wordcomb import ParamWord

SKELETON_MONOID_CAP = 1_000_000


@dataclass(frozen=True)
class Skeleton(Update):
    """An update without letters: a copyless mapping from variables to words
    of variables.  A skeleton equals only skeletons, never an update."""

    def __post_init__(self):
        """``Update.__post_init__``'s checks and the non-variable check in
        one pass over the tokens: a token raises for the first fault it
        shows, so of two faults the earlier token's is raised."""
        if len(self.images) != len(self.variables):
            raise SstKitError("update must define an image for every variable")
        varset, seen = set(self.variables), set()
        for image in self.images:
            for tok in image:
                if tok not in varset:
                    raise SstKitError(f"skeleton image contains non-variable {tok!r}")
                if tok in seen:
                    raise CopylessError(tok)
                seen.add(tok)


def skeleton_of(update: Update) -> Skeleton:
    """Erase all letters from the images of ``update``.  An update is
    copyless and erasing letters keeps it so, so the skeleton skips the
    check that a direct ``Skeleton(...)`` runs; it shares the update's
    variable index, a function of the variables alone."""
    index = update._index
    skeleton = object.__new__(Skeleton)
    skeleton.__dict__.update(
        variables=update.variables,
        images=tuple([tuple([t for t in image if t in index]) for image in update.images]),
        _index=index,
    )
    return skeleton


def compose_skeletons(a: Skeleton, b: Skeleton) -> Skeleton:
    """Same orientation as ``compose_updates``: b applied to a's images."""
    if a.variables != b.variables:
        raise SstKitError("cannot compose skeletons over different variable sets")
    return Skeleton(a.variables, tuple(b.apply_to(image) for image in a.images))


def is_idempotent(s: Skeleton) -> bool:
    """``compose_skeletons(s, s) == s`` without building the square, which
    as a composite of copyless skeletons needs no copyless check."""
    return all([s.apply_to(image) == image for image in s.images])


def skeleton_monoid(sst: Sst, cap: int = SKELETON_MONOID_CAP) -> frozenset[Skeleton]:
    """Closure of the transition skeletons under composition, plus the
    identity.  A monoid with more than ``cap`` elements raises
    ``BudgetExceededError``; the closure stops at the first element it
    multiplies once it has found more than ``cap``.
    """
    # every element is a product of generators, so multiplying each element
    # by every generator from the identity on reaches them all
    generators = tuple(dict.fromkeys(transition_skeletons(sst)))
    elements = [Skeleton.identity(sst.variables)]
    seen = set(elements)
    for s in elements:
        # each element found is multiplied in a later turn, so this check
        # sees every count; the identity alone exceeds a cap of 0
        if len(elements) > cap:
            raise BudgetExceededError(f"skeleton monoid exceeded the cap of {cap} elements")
        for g in generators:
            prod = compose_skeletons(g, s)
            if prod not in seen:
                seen.add(prod)
                elements.append(prod)
    return frozenset(elements)


def transition_skeletons(sst: Sst) -> tuple[Skeleton, ...]:
    return tuple(skeleton_of(t.update) for t in sst.transitions)


# -- loops ------------------------------------------------------------------


def interval_update(sst: Sst, run: Run, i: int, j: int) -> Update:
    """Induced update of the interval [i, j] of ``run`` (steps i+1..j)."""
    _check_owner(sst, run)
    if not (0 <= i <= j <= len(run)):
        raise RunError(f"interval [{i}, {j}] outside run of length {len(run)}")
    return Run(sst, run.states[i], run.steps[i:j]).induced_update


def find_loops(sst: Sst, run: Run) -> list[tuple[int, int]]:
    """All intervals [i, j] with i < j that are loops of ``run``: equal
    states at both ends and a skeleton-idempotent induced update."""
    _check_owner(sst, run)
    skels = transition_skeletons(sst)
    states = run.states
    loops: list[tuple[int, int]] = []
    for i in range(len(run)):
        acc = Skeleton.identity(sst.variables)
        for j in range(i + 1, len(run) + 1):
            acc = compose_skeletons(skels[run.steps[j - 1]], acc)
            if states[i] == states[j] and is_idempotent(acc):
                loops.append((i, j))
    return loops


@dataclass(frozen=True)
class LoopSet:
    """Pairwise disjoint loops of one run, with their induced updates.

    Intervals may touch ([i, j] followed by [j, k]) but not overlap; empty
    intervals [i, i] are allowed and carry the identity update.
    """

    run: Run = field(repr=False)
    intervals: tuple[tuple[int, int], ...]
    updates: tuple[Update, ...] = field(repr=False)

    @classmethod
    def build(cls, sst: Sst, run: Run, intervals: Sequence[tuple[int, int]]) -> "LoopSet":
        _check_owner(sst, run)
        ordered = tuple(tuple(iv) for iv in intervals)
        prev_end = None
        states = run.states
        updates = []
        for i, j in ordered:
            if not (0 <= i <= j <= len(run)):
                raise RunError(f"interval [{i}, {j}] outside run of length {len(run)}")
            if prev_end is not None and i < prev_end:
                raise RunError("loop intervals overlap")
            prev_end = j
            if states[i] != states[j]:
                raise RunError(f"interval [{i}, {j}] does not return to the same state")
            update = interval_update(sst, run, i, j)
            if not is_idempotent(skeleton_of(update)):
                raise NotIdempotentError(f"interval [{i}, {j}] is not a loop")
            updates.append(update)
        return cls(run, ordered, tuple(updates))

    def __len__(self) -> int:
        return len(self.intervals)


def pump(sst: Sst, run: Run, loops: LoopSet, counts: Sequence[int]) -> Run:
    """Repeat each loop's transition block ``counts[k]`` times.

    Counts are positive; count 1 leaves the block untouched, so an
    all-ones vector reproduces the original run.
    """
    _check_owner(sst, run)
    if loops.run != run:
        raise RunError("loop set was built for a different run")
    if len(counts) != len(loops.intervals):
        raise RunError("need exactly one count per loop")
    for n in counts:
        if n < 1:
            raise RunError(f"pump counts must be positive, got {n}")
    steps: list[int] = []
    pos = 0
    for (i, j), n in zip(loops.intervals, counts):
        steps.extend(run.steps[pos:i])
        steps.extend(run.steps[i:j] * n)
        pos = j
    steps.extend(run.steps[pos:])
    return Run(sst, run.start, tuple(steps))


# -- the shape of pumped outputs ---------------------------------------------


def idempotent_power_words(u: Update, x: str) -> tuple[str, str]:
    """For a skeleton-idempotent update u and a variable x, the two letter
    words (left, right) with

        u^n(x) = left^(n-1) . u(x) . right^(n-1)      for all n >= 1

    as exact words over letters and variables.  If u(x) contains no
    variable, both sides are empty.
    """
    if not is_idempotent(skeleton_of(u)):
        raise NotIdempotentError("update does not have an idempotent skeleton")
    image = u.image(x)
    if all(tok not in u._index for tok in image):
        return ("", "")
    # idempotency forces x itself to occur in u(x) whenever any variable does
    if x not in image:
        raise NotIdempotentError(
            f"variable {x!r} does not recur in its own image; update is not a loop body"
        )
    pos = image.index(x)
    left = u.apply_to(image[:pos])
    right = u.apply_to(image[pos + 1:])
    for tok in left + right:
        if tok in u._index:
            raise NotIdempotentError(
                f"context of {x!r} keeps variable {tok!r}; update is not a loop body"
            )
    return ("".join(left), "".join(right))


@dataclass(frozen=True)
class PumpedOutputExpr:
    """Symbolic output of a run under pumping: a parameterized word whose
    parameters are pump exponents shifted by one (parameter value n-1
    corresponds to pumping a loop n times)."""

    word: ParamWord
    loop_params: tuple[str, ...]

    def output_for_counts(self, counts: Sequence[int]) -> str:
        """Concrete output for pumping loop k ``counts[k]`` times."""
        if len(counts) != len(self.loop_params):
            raise SstKitError("need exactly one count per loop")
        for n in counts:
            if n < 1:
                raise SstKitError(f"pump counts must be positive, got {n}")
        assignment = {p: n - 1 for p, n in zip(self.loop_params, counts)}
        return self.word.instantiate(assignment)


def pumped_output_expr(sst: Sst, run: Run, loops: LoopSet) -> PumpedOutputExpr:
    """Closed form for the outputs of all simultaneous pumpings of ``loops``.

    The result is a word  w0 u1^p_{i1} w1 ... ur^p_{ir} wr  with one
    parameter per loop such that substituting n_k - 1 for loop k's parameter
    yields out(pump(run, loops, (n_1, ..., n_m))) exactly, for every vector
    of positive counts.  At most 2 * len(loops) * len(variables) repeated
    factors appear.
    """
    _check_owner(sst, run)
    if loops.run != run:
        raise RunError("loop set was built for a different run")
    if not run.accepting:
        raise RunError("pumped outputs are only defined for accepting runs")
    params = tuple(f"p{k + 1}" for k in range(len(loops.intervals)))

    # items are (word, param) pairs: a power word^param, or a literal letter
    # when param is None
    contents = _substitute(sst, sst._initial, (), None)

    def apply(update: Update, sides=(), param: str | None = None) -> None:
        """One step; a pumped loop puts its repeated side words around each
        image, a plain step has no sides."""
        nonlocal contents
        contents = _substitute(sst, update.images, contents, None)
        if sides:
            contents = tuple(
                (((left, param),) if left else ()) + items + (((right, param),) if right else ())
                for items, (left, right) in zip(contents, sides))

    pos = 0
    for (i, j), update, param in zip(loops.intervals, loops.updates, params):
        for idx in run.steps[pos:i]:
            apply(sst.transitions[idx].update)
        sides = [idempotent_power_words(update, v) for v in sst.variables]
        apply(update, sides, param)
        pos = j
    for idx in run.steps[pos:]:
        apply(sst.transitions[idx].update)

    (items,) = _substitute(sst, (sst.final_output[run.end],), contents, None)
    constants: list[str] = []
    factors: list[tuple[str, str]] = []
    buf: list[str] = []
    for word, param in items:
        if param is None:
            buf.append(word)
        else:
            constants.append("".join(buf))
            buf = []
            factors.append((word, param))
    constants.append("".join(buf))
    return PumpedOutputExpr(ParamWord(tuple(constants), tuple(factors)), params)
