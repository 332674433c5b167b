"""Weight and delay: how differently two runs build the same output.

Two accepting runs on the same input that produce the same output may still
assemble it in very different orders (one from the left, one from the
right).  The weight of a run at input position t and output position j
counts how many of the first j output letters were already produced by the
first t steps.  The delay aggregates weight differences, but only at the
cut positions of the output's periodic factorization: inside a factor of
small period the assembly order is immaterial.

``_weight_columns`` holds the one formula of the weights, a run's table
as one flat tuple: ``weight`` reads one entry off it, ``weight_table``
its rows, which ``delay`` compares, and ``semantic_cover`` compares the
flat tables of its runs, at the cuts of their output.
The three public functions accept any object exposing
``annotated_output`` (a sequence of (letter, producing step) pairs) and
``input_length``, so worked examples can be checked without building a
transducer; ``RunProfile`` is the plain carrier for that.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .errors import InputMismatchError, OutputMismatchError, ParameterError
from .wordcomb import cuts


@dataclass(frozen=True)
class RunProfile:
    """Annotated output plus input length, detached from any transducer."""

    annotated_output: tuple[tuple[str, int], ...]
    input_length: int

    @property
    def output(self) -> str:
        return "".join(c for c, _ in self.annotated_output)


def weight(run, t: int, j: int) -> int:
    """Number of output positions j' <= j produced by the first t steps."""
    annotated = run.annotated_output
    if not 0 <= t <= run.input_length:
        raise ParameterError(f"step {t} outside 0..{run.input_length}")
    if not 1 <= j <= len(annotated):
        raise ParameterError(f"output position {j} outside 1..{len(annotated)}")
    return _weight_columns(annotated, run.input_length, (j,))[t]


@dataclass(frozen=True)
class DelayReport:
    """Weight tables of two runs at every (step, cut) pair, and their
    maximal difference."""

    C: int
    cuts: tuple[int, ...]
    weights1: tuple[tuple[int, ...], ...]  # rows t = 0..|input|, one column per cut
    weights2: tuple[tuple[int, ...], ...]
    delay: int
    argmax: tuple[int, int]  # (t, cut) attaining the delay

    def table_lines(self) -> list[str]:
        header = "t \\ cut | " + "  ".join(f"{j:>4}" for j in self.cuts)
        lines = [header, "-" * len(header)]
        for t, (row1, row2) in enumerate(zip(self.weights1, self.weights2)):
            cells = "  ".join(f"{a:>2}/{b:<2}" for a, b in zip(row1, row2))
            lines.append(f"{t:>7} | {cells}")
        return lines


def delay(r1, r2, C: int) -> DelayReport:
    """Max over steps t and cuts j of |weight(r1, t, j) - weight(r2, t, j)|.

    Defined only for runs with equal input and equal output; an output with
    no cuts (the empty word) yields delay 0.
    """
    if r1.input_length != r2.input_length or _inputs_differ(r1, r2):
        raise InputMismatchError("delay requires runs with the same input")
    out1 = "".join(c for c, _ in r1.annotated_output)
    out2 = "".join(c for c, _ in r2.annotated_output)
    if out1 != out2:
        raise OutputMismatchError("delay requires runs with the same output")

    positions = tuple(cuts(out1, C))
    table1 = weight_table(r1, positions)
    table2 = weight_table(r2, positions)

    best = 0
    argmax = (0, positions[0]) if positions else (0, 0)
    for t, (row1, row2) in enumerate(zip(table1, table2)):
        for col, j in enumerate(positions):
            d = abs(row1[col] - row2[col])
            if d > best:
                best = d
                argmax = (t, j)
    return DelayReport(C, positions, table1, table2, best, argmax)


def _inputs_differ(r1, r2) -> bool:
    in1 = getattr(r1, "input", None)
    in2 = getattr(r2, "input", None)
    if in1 is None or in2 is None:
        return False  # profiles carry no input word; length equality suffices
    return in1 != in2


def weight_table(run, positions: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """``weight(run, t, j)`` for t = 0..input_length (the rows) and j in the
    increasing output positions ``positions`` (the columns)."""
    n = run.input_length
    columns = _weight_columns(run.annotated_output, n, positions)
    return tuple(columns[t::n + 1] for t in range(n + 1))


def _weight_columns(annotated, n: int, positions: Sequence[int]) -> tuple[int, ...]:
    """The weight table of a run of n steps with the tagged output
    ``annotated`` at the increasing output positions ``positions``, column
    after column in one tuple.  ``counts[t]`` holds how many of the output
    letters before a column's position were produced at step t (a step
    below 0 counts as 0, one past n nowhere), and the column is its
    running sum."""
    counts = [0] * (n + 1)
    columns, done = [], 0
    for j in positions:
        for _, step in annotated[done:j]:
            if step <= n:
                counts[max(step, 0)] += 1
        done = j
        columns += accumulate(counts)
    return tuple(columns)
