"""Seeded transducer corpus and a text renderer for the benchmark.

``random_spec`` draws a machine with exactly the random calls, in exactly
the order, of ``random_sst`` in the test helpers, so ``Random(s)`` gives the
same machine here and there.  A draw is kept as a plain ``Spec`` (tuples of
names and tokens), which the renderer turns into a document and ``build``
turns into an ``Sst``.  ``check_roundtrip`` confirms that parsing a
rendered document reproduces every field of the machine.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from sstkit import Sst, Transition, Update, parse_sst


class Spec(NamedTuple):
    alphabet: tuple[str, ...]
    variables: tuple[str, ...]
    states: tuple[str, ...]
    initials: tuple[str, ...]
    finals: tuple[str, ...]
    final_output: dict[str, tuple[str, ...]]
    # (source, letter, images aligned with variables, target)
    transitions: tuple[tuple[str, str, tuple[tuple[str, ...], ...], str], ...]
    initial_assignment: dict[str, str]


def _random_images(rng: random.Random, variables, alphabet: str, max_image_len: int):
    dealt: dict[str, list[str]] = {v: [] for v in variables}
    pool = [v for v in variables if rng.random() < 0.75]
    rng.shuffle(pool)
    for v in pool:
        dealt[rng.choice(variables)].append(v)
    images = []
    for v in variables:
        img: list[str] = []
        for tok in dealt[v]:
            img.extend(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
            img.append(tok)
        img.extend(rng.choice(alphabet) for _ in range(rng.randint(0, 2)))
        if len(img) > max_image_len:
            img = [t for t in img if t in variables][:max_image_len]
        images.append(tuple(img))
    return tuple(images)


def random_spec(rng: random.Random, max_states: int = 3, max_vars: int = 2) -> Spec:
    """Small random transducer over {a, b} with random copyless updates."""
    states = tuple(f"s{i}" for i in range(rng.randint(1, max_states)))
    variables = tuple(f"X{i + 1}" for i in range(rng.randint(1, max_vars)))
    alphabet = ("a", "b")
    transitions = []
    for q in states:
        for a in alphabet:
            for _ in range(rng.randint(0, 2)):
                images = _random_images(rng, variables, "ab", 3)
                transitions.append((q, a, images, rng.choice(states)))
    initials = tuple(q for q in states if rng.random() < 0.7) or (states[0],)
    finals = tuple(q for q in states if rng.random() < 0.7) or (states[-1],)
    final_output = {}
    for q in finals:
        expr: list[str] = []
        for v in variables:
            if rng.random() < 0.85:
                if rng.random() < 0.25:
                    expr.append(rng.choice(alphabet))
                expr.append(v)
        final_output[q] = tuple(expr)
    initial_assignment = {}
    if rng.random() < 0.35:
        initial_assignment[rng.choice(variables)] = "".join(
            rng.choice(alphabet) for _ in range(rng.randint(1, 2))
        )
    return Spec(alphabet, variables, states, initials, finals,
                final_output, tuple(transitions), initial_assignment)


def build(spec: Spec) -> Sst:
    return Sst(
        spec.alphabet, spec.variables, spec.states, spec.initials, spec.finals,
        spec.final_output,
        [Transition(src, a, Update(spec.variables, images), tgt)
         for src, a, images, tgt in spec.transitions],
        spec.initial_assignment,
    )


def spec_of(sst: Sst) -> Spec:
    """The fields of a built machine, read back into a ``Spec``."""
    return Spec(
        sst.alphabet, sst.variables, sst.states, sst.initials, sst.finals,
        dict(sst.final_output),
        tuple((t.source, t.letter, t.update.images, t.target) for t in sst.transitions),
        {v: w for v, w in sst.initial_assignment.items() if w},
    )


def render(spec: Spec) -> str:
    """The document for ``spec`` in the sstkit text format."""
    lines = [
        "alphabet: " + " ".join(spec.alphabet),
        "vars: " + " ".join(spec.variables),
        "states: " + " ".join(spec.states),
        "initial: " + " ".join(spec.initials),
    ]
    for v in spec.variables:
        word = spec.initial_assignment.get(v, "")
        if word:
            lines.append(f"init {v} = " + " ".join(word))
    for q in spec.finals:
        lines.append(" ".join(["final", q, "->", *spec.final_output[q]]))
    for src, a, images, tgt in spec.transitions:
        body = " ; ".join(
            " ".join([v, ":=", *image]) for v, image in zip(spec.variables, images)
        )
        lines.append(f"trans {src} {a} {tgt} {{ {body} }}")
    return "\n".join(lines) + "\n"


def check_roundtrip(spec: Spec, sst: Sst) -> None:
    """Raise unless ``parse_sst(render(spec))`` and ``sst`` both carry
    every field of ``spec``."""
    for label, machine in (("built", sst), ("parsed", parse_sst(render(spec)))):
        got = spec_of(machine)
        if got != spec:
            fields = [f for f in Spec._fields if getattr(got, f) != getattr(spec, f)]
            raise AssertionError(f"{label} machine differs from its draw in {fields}")
