"""Primitive roots, periodic cuts, and word inequalities with repetitions.

A parameterized word is a template  s0 t1^x1 s1 ... tm^xm sm  whose formal
exponents range over the naturals; an inequality is a pair of such templates
asserting that their instantiations differ.  Satisfiability questions about
single-parameter inequalities are remarkably tame: the non-solutions of a
satisfiable inequality number at most m + n (the repeating factors on the
two sides), which the test suite checks empirically over randomized corpora.
All searches here are explicitly bounded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Sequence

from .errors import ParameterError


def _border_table(w: str) -> list[int]:
    """fail[k] = length of the longest proper border of w[:k]."""
    fail = [0] * (len(w) + 1)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = fail[k]
        if w[i] == w[k]:
            k += 1
        fail[i + 1] = k
    return fail


def primitive_root(w: str) -> str:
    """Shortest word r with w in r*.

    Computed via the border table: the root is w[:p] when the smallest
    period p divides |w|, and w itself otherwise.
    """
    if not w:
        raise ParameterError("the empty word has no primitive root")
    fail = _border_table(w)
    p = len(w) - fail[len(w)]
    return w[:p] if len(w) % p == 0 else w


def cuts(w: str, C: int) -> list[int]:
    """Greedy factorization positions: each cut is the largest j such that
    the factor since the previous cut has a primitive root of length <= C.

    Single letters always qualify, so the factorization consumes the whole
    word and the last cut equals |w|.  Empty word -> no cuts.
    """
    if C < 1:
        raise ParameterError("C must be at least 1")
    out: list[int] = []
    start = 0
    while start < len(w):
        segment = w[start:]
        fail = _border_table(segment)
        best = 1
        for k in range(1, len(segment) + 1):
            p = k - fail[k]
            if k <= C or (p <= C and k % p == 0):
                best = k
        out.append(start + best)
        start += best
    return out


@dataclass(frozen=True)
class ParamWord:
    """s0 t1^x1 s1 ... tm^xm sm with m factors and m+1 constants.

    Parameter ids may repeat across factors (shared exponents).
    """

    constants: tuple[str, ...]
    factors: tuple[tuple[str, str], ...]  # (repeated word, parameter id)

    def __post_init__(self):
        if len(self.constants) != len(self.factors) + 1:
            raise ParameterError(
                f"{len(self.factors)} factors need {len(self.factors) + 1} constants, "
                f"got {len(self.constants)}"
            )

    @classmethod
    def constant(cls, word: str) -> "ParamWord":
        return cls((word,), ())

    @property
    def parameters(self) -> tuple[str, ...]:
        """Distinct parameter ids in order of first occurrence."""
        return tuple(dict.fromkeys(p for _, p in self.factors))

    def instantiate(self, assignment: Mapping[str, int]) -> str:
        pieces = [self.constants[0]]
        for (t, p), s in zip(self.factors, self.constants[1:]):
            if p not in assignment:
                raise ParameterError(f"assignment is missing parameter {p!r}")
            n = assignment[p]
            if n < 0:
                raise ParameterError(f"parameter {p!r} instantiated negatively ({n})")
            pieces.append(t * n)
            pieces.append(s)
        return "".join(pieces)

    def render(self) -> str:
        pieces = [self.constants[0]]
        for (t, p), s in zip(self.factors, self.constants[1:]):
            pieces.append(f"({t})^{p}")
            pieces.append(s)
        return "".join(pieces)


def instantiate(word: ParamWord, assignment: Mapping[str, int]) -> str:
    return word.instantiate(assignment)


@dataclass(frozen=True)
class Inequality:
    """A pair of parameterized words asserted to instantiate differently."""

    left: ParamWord
    right: ParamWord

    @property
    def parameters(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.left.parameters + self.right.parameters))

    def render(self) -> str:
        return f"{self.left.render()} != {self.right.render()}"


def is_solution(e: Inequality, assignment: Mapping[str, int]) -> bool:
    return e.left.instantiate(assignment) != e.right.instantiate(assignment)


def nonsolutions_single(e: Inequality, bound: int) -> list[int]:
    """Exhaustive scan of a one-parameter inequality: the values in
    [0, bound] whose instantiations make both sides equal."""
    params = e.parameters
    if len(params) != 1:
        raise ParameterError(f"expected exactly one parameter, got {params}")
    x = params[0]
    return [n for n in range(bound + 1) if not is_solution(e, {x: n})]


def find_system_solution(
    system: Sequence[Inequality],
    box: Mapping[str, tuple[int, int]],
) -> dict[str, int] | None:
    """First assignment (lexicographic over the box, parameters in box
    order) that solves every inequality of the system, or None."""
    system = list(system)
    if not system:
        raise ParameterError("a system of inequalities must be non-empty")
    for e in system:
        missing = set(e.parameters) - set(box)
        if missing:
            raise ParameterError(f"box is missing parameters {sorted(missing)}")
    for assignment in _assignments(box):
        if all(is_solution(e, assignment) for e in system):
            return assignment
    return None


def find_solution_box(
    e: Inequality,
    seed: Mapping[str, int],
    sizes: Mapping[str, int],
    bound: int,
    order: Sequence[str] | None = None,
) -> dict[str, tuple[int, int]] | None:
    """A per-parameter interval box, each side at least ``sizes[p]`` wide,
    inside [0, bound], whose whole Cartesian product solves ``e``.

    ``seed`` must itself be a solution.  Lower ends are searched in
    lexicographic order over the parameters (``order`` defaults to the
    inequality's declared parameter order), upper ends are pinned at
    lower + size, and every candidate box is verified exhaustively before
    being returned.  None if no box fits within the bound.
    """
    params = tuple(order) if order is not None else e.parameters
    if set(params) != set(e.parameters):
        raise ParameterError("order must cover exactly the inequality's parameters")
    if not is_solution(e, seed):
        raise ParameterError("seed assignment is not a solution")
    for p in params:
        if p not in sizes:
            raise ParameterError(f"sizes is missing parameter {p!r}")

    tops = [bound - sizes[p] for p in params]
    if any(t < 0 for t in tops):
        return None
    for lows in product(*(range(t + 1) for t in tops)):
        box = {p: (lo, lo + sizes[p]) for p, lo in zip(params, lows)}
        if _box_is_solution(e, box):
            return box
    return None


def _box_is_solution(e: Inequality, box: Mapping[str, tuple[int, int]]) -> bool:
    return all(is_solution(e, assignment) for assignment in _assignments(box))


def _assignments(box: Mapping[str, tuple[int, int]]) -> Iterator[dict[str, int]]:
    """Every assignment in ``box``, lexicographic with parameters in box
    order."""
    names = list(box)
    for values in product(*(range(lo, hi + 1) for lo, hi in box.values())):
        yield dict(zip(names, values))
