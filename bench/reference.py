"""Reference answers, computed apart from sstkit's own evaluators.

Everything here reads only the fields of an ``Sst`` (alphabet, variables,
states, initials, finals, final outputs, transitions and their update
images, initial assignment) and shares no code with ``enumerate_runs``,
``Run`` or the pattern evaluator in ``analysis``.  Output sets come from a
forward pass over configurations (state, variable contents), run counts
from a forward pass over states with multiplicities.
"""

from __future__ import annotations

from itertools import product


class Machine:
    """The fields of an ``Sst`` compiled into plain index tables."""

    def __init__(self, sst):
        self.alphabet = tuple(sst.alphabet)
        var_pos = {v: i for i, v in enumerate(sst.variables)}
        state_pos = {q: i for i, q in enumerate(sst.states)}
        letter_pos = {a: i for i, a in enumerate(self.alphabet)}

        def compile_image(tokens):
            return tuple(var_pos.get(tok, tok) for tok in tokens)

        self.state_pos = state_pos
        self.initials = tuple(sst.initials)
        self.finals = {q: compile_image(expr) for q, expr in sst.final_output.items()}
        self.start_values = tuple(sst.initial_assignment.get(v, "") for v in sst.variables)
        # moves[(state, letter)] = [(rank, target, program)], rank order
        self.moves: dict[tuple[str, str], list] = {}
        # steps[i] = (source, letter, target, program, rank) of transition i
        self.steps = []
        for i, t in enumerate(sst.transitions):
            program = tuple(compile_image(image) for image in t.update.images)
            rank = (state_pos[t.source], letter_pos[t.letter], state_pos[t.target], i)
            self.moves.setdefault((t.source, t.letter), []).append((rank, t.target, program))
            self.steps.append((t.source, t.letter, t.target, program, rank))
        for options in self.moves.values():
            options.sort()


def _apply(program, values):
    return tuple(
        "".join(values[op] if type(op) is int else op for op in image)
        for image in program
    )


def _final(machine: Machine, state, values) -> str:
    return "".join(values[op] if type(op) is int else op for op in machine.finals[state])


def outputs(machine: Machine, word: str) -> set[str]:
    configs = {(q, machine.start_values) for q in machine.initials}
    for letter in word:
        configs = {
            (target, _apply(program, values))
            for state, values in configs
            for _, target, program in machine.moves.get((state, letter), ())
        }
    return {_final(machine, q, values) for q, values in configs if q in machine.finals}


def run_count(machine: Machine, word: str) -> int:
    counts = {q: 1 for q in machine.initials}
    for letter in word:
        fresh: dict[str, int] = {}
        for state, n in counts.items():
            for _, target, _ in machine.moves.get((state, letter), ()):
                fresh[target] = fresh.get(target, 0) + n
        counts = fresh
    return sum(n for q, n in counts.items() if q in machine.finals)


def ranked_outputs(machine: Machine, word: str) -> list[str]:
    """Distinct outputs ordered by their least run, runs compared by their
    rank sequences and, for the empty input, by start-state position.

    Equal-length rank sequences compare lexicographically, so keeping the
    least prefix per configuration keeps the least run through it.
    """
    best = {}
    for q in machine.initials:
        key = ((), machine.state_pos[q])
        config = (q, machine.start_values)
        if config not in best or key < best[config]:
            best[config] = key
    for letter in word:
        fresh = {}
        for (state, values), (prefix, tie) in best.items():
            for rank, target, program in machine.moves.get((state, letter), ()):
                config = (target, _apply(program, values))
                key = (prefix + (rank,), tie)
                if config not in fresh or key < fresh[config]:
                    fresh[config] = key
        best = fresh
    least: dict[str, tuple] = {}
    for (q, values), key in best.items():
        if q in machine.finals:
            out = _final(machine, q, values)
            if out not in least or key < least[out]:
                least[out] = key
    return sorted(least, key=least.__getitem__)


def run_output(machine: Machine, start: str, steps) -> str:
    """Output of one accepting run given as a start state and transition
    indices; raises ValueError if the steps do not chain or accept."""
    state, values = start, machine.start_values
    if start not in machine.initials:
        raise ValueError(f"run starts in non-initial state {start!r}")
    for i in steps:
        source, _, target, program, _ = machine.steps[i]
        if source != state:
            raise ValueError(f"step {i} does not leave {state!r}")
        state, values = target, _apply(program, values)
    if state not in machine.finals:
        raise ValueError(f"run ends in non-final state {state!r}")
    return _final(machine, state, values)


def _words(alphabet, min_len: int, max_len: int):
    for n in range(min_len, max_len + 1):
        for letters in product(alphabet, repeat=n):
            yield "".join(letters)


def _extremal(machine: Machine, measure, max_len: int, min_len: int):
    best, witness = -1, None
    for u in _words(machine.alphabet, min_len, max_len):
        n = measure(machine, u)
        if n > best:
            best, witness = n, u
    return (0, None) if best < 0 else (best, witness)


def valuedness_oracle(machine: Machine, max_len: int, min_len: int = 1):
    return _extremal(machine, lambda m, u: len(outputs(m, u)), max_len, min_len)


def ambiguity_oracle(machine: Machine, max_len: int, min_len: int = 1):
    return _extremal(machine, run_count, max_len, min_len)


def rank_key(machine: Machine, start: str, steps) -> tuple:
    """The position of a run in the canonical run order."""
    return (tuple(machine.steps[i][4] for i in steps), machine.state_pos[start])


def _walk(machine: Machine, start: str, steps) -> tuple[str, str]:
    """(end state, input) of a chained transition sequence."""
    state, letters = start, []
    for i in steps:
        source, letter, target, _, _ = machine.steps[i]
        if source != state:
            raise ValueError(f"step {i} does not leave {state!r}")
        state = target
        letters.append(letter)
    return state, "".join(letters)


def _flow(machine: Machine, steps) -> tuple:
    """Variable flow of a run: for each variable, the variables its final
    content is built from, in order (letters erased)."""
    n = len(machine.start_values)
    flow = tuple((v,) for v in range(n))
    for i in steps:
        program = machine.steps[i][3]
        flow = tuple(
            tuple(v for op in image if type(op) is int for v in flow[op])
            for image in program
        )
    return flow


def _idempotent(flow: tuple) -> bool:
    twice = tuple(tuple(v for u in image for v in flow[u]) for image in flow)
    return twice == flow


def check_dumbbell(machine: Machine, evidence: dict) -> None:
    """Raise ValueError unless ``evidence`` (a dumbbell as the CLI reports
    it) is a dumbbell of the machine."""
    q1, q2 = evidence["q1"], evidence["q2"]
    legs = {}
    for name, start, end in (("rho0", None, q1), ("rho1", q1, q1), ("rho2", q1, q2),
                             ("rho3", q2, q2), ("rho4", q2, None)):
        run = evidence[name]
        if start is not None and run["start"] != start:
            raise ValueError(f"dumbbell {name} starts in {run['start']!r}, not {start!r}")
        reached, word = _walk(machine, run["start"], run["steps"])
        if end is not None and reached != end:
            raise ValueError(f"dumbbell {name} ends in {reached!r}, not {end!r}")
        if word != run["input"]:
            raise ValueError(f"dumbbell {name} reads {word!r}, reported {run['input']!r}")
        legs[name] = (run["start"], reached, tuple(run["steps"]), word)
    if legs["rho0"][0] not in machine.initials:
        raise ValueError("dumbbell access run does not start in an initial state")
    if legs["rho4"][1] not in machine.finals:
        raise ValueError("dumbbell exit run does not reach a final state")
    if not legs["rho1"][3] == legs["rho2"][3] == legs["rho3"][3] == evidence["shared_input"]:
        raise ValueError("dumbbell middle runs read different inputs")
    if len({legs["rho1"][2], legs["rho2"][2], legs["rho3"][2]}) < 2:
        raise ValueError("dumbbell middle runs are all the same run")
    for name in ("rho1", "rho3"):
        if not _idempotent(_flow(machine, legs[name][2])):
            raise ValueError(f"dumbbell {name} is not a loop: its variable flow is not idempotent")
