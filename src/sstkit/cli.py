"""Command-line front end.

Subcommands: validate, eval, runs, ambiguity, valuedness, delay, decompose,
equiv, oracle.  Exit codes are machine-checkable: 0 for success / Finite /
equal, 1 for Infinite / counterexample, 2 for usage, parse, or budget
problems (Unknown verdicts included).  ``--json`` switches to a key-sorted,
schema-stable report; repeated invocations on the same inputs produce
byte-identical reports except for the wall_time_s field.

Each subcommand is declared once in ``_build_parser``, with its handler
and its document arguments; the parsers are built once per process.  An
argv whose first word names a subcommand is read by that subcommand's own
parser alone; any other argv goes through the top-level parser.  Each
document is read once: its bytes are decoded as UTF-8 and parsed before
the handler runs, and only a ``--json`` report hashes them for its sha256
digests.  A document that is not UTF-8 is a parse error.

The digests come from the SHA-256 of the interpreter's built-in hash
module (``_sha2`` from Python 3.12 on, ``_sha256`` before), the way
CPython's own ``random`` takes its SHA-512: ``hashlib`` maps OpenSSL,
which adds megabytes to a fresh process's peak memory, so it is imported
only by a build without built-in hashes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from . import __version__
from .analysis import (
    SearchBudget,
    amplify_valuedness,
    analyze_valuedness,
    find_dumbbell,
)
from .decompose import (
    check_equivalence_bounded,
    ranked_outputs,
    semantic_cover,
)
from .delay import delay as run_delay
from .errors import ParseError, SstKitError
from .model import (
    DEFAULT_NODE_BUDGET,
    Budget,
    Sst,
    _shared_annotations,
    ambiguity_oracle,
    enumerate_runs,
    outputs,
    valuedness_oracle,
    words_over,
)
from .sstformat import parse_sst

EXIT_OK = 0
EXIT_WITNESS = 1
EXIT_ERROR = 2
# the help of each document argument, by its name
_DOCUMENTS = {
    "file": "transducer document",
    "file_a": "first transducer document",
    "file_b": "second transducer document",
}


def _count(text: str, low: int = 0) -> int:
    """The argparse type of ``--budget``, ``--component-len``, ``--max-len``,
    ``--min-len``, ``--amplify``, ``--D``, ``--run1`` and ``--run2``: an
    integer, ``low`` or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(
            f"must be at least {low}: {value}" if low else f"must not be negative: {value}")
    return value


def _positive(text: str) -> int:
    """The argparse type of ``--C``, the cut period bound, and of ``--k``,
    the number of selectors: an integer, one or more, checked before any
    document is read."""
    return _count(text, low=1)


# the JSON text of a scalar, by its type, as ``json.dumps`` writes it
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _to_json(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for a report value:
    dicts with ``str`` keys, lists, tuples and the scalars of ``_SCALARS``.
    Any other type raises ``TypeError``.  Each item's text is looked up in
    ``_SCALARS`` in place, and only containers are recursed into."""
    scalars, inner = _SCALARS, indent + "  "
    kind = type(value)
    if kind is dict:
        items = [f"{encode_basestring_ascii(key)}: "
                 f"{text(item) if (text := scalars.get(type(item))) else _to_json(item, inner)}"
                 for key, item in sorted(value.items())]
        brackets = "{}"
    elif kind is list or kind is tuple:
        items = [text(item) if (text := scalars.get(type(item))) else _to_json(item, inner)
                 for item in value]
        brackets = "[]"
    elif kind in scalars:
        return scalars[kind](value)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{indent}{brackets[1]}"


@functools.cache
def _sha256():
    """The SHA-256 constructor of the built-in hash module, resolved once
    per process (see the module docstring)."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256  # a build without built-in hashes
    return sha256


def _check_lengths(low: int, high: int) -> None:
    """An empty range of input lengths is a usage error."""
    if high < low:
        raise SstKitError(f"empty length range {low}..{high}: --max-len must be at least {low}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The top-level parser.  Its ``commands`` attribute maps each
    subcommand's name to the subcommand's parser (see ``_parse_args``)."""
    parser = argparse.ArgumentParser(
        prog="sstkit",
        description="Analyze copyless streaming string transducers.",
    )
    parser.add_argument("--version", action="version", version=f"sstkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def add(name: str, handler, helptext: str, files=("file",)) -> argparse.ArgumentParser:
        """A subcommand whose handler gets the parsed documents named by
        ``files`` after ``(args, report)``."""
        p = parser.commands[name] = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler, files=files)
        for dest in files:
            p.add_argument(dest, help=_DOCUMENTS[dest])
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    add("validate", _cmd_validate, "parse and validate a document")

    p = add("eval", _cmd_eval, "print the set of outputs for one input")
    p.add_argument("--input", required=True, help="input word")
    p.add_argument("--budget", type=_count, default=DEFAULT_NODE_BUDGET)

    p = add("runs", _cmd_runs, "list the accepting runs on one input")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=_count, default=DEFAULT_NODE_BUDGET)

    p = add("ambiguity", _cmd_ambiguity, "exact finite-ambiguity decision (dumbbell search)")
    p.add_argument("--budget", type=_count, default=DEFAULT_NODE_BUDGET)

    p = add("valuedness", _cmd_valuedness, "sound partial finite-valuedness analysis")
    defaults = SearchBudget()
    p.add_argument("--budget", type=_count, default=defaults.candidates,
                   help="candidate budget of the W-pattern search, also the --amplify scan's budget")
    p.add_argument("--component-len", type=_count, default=defaults.component_length,
                   help="max transitions per W-pattern component")
    p.add_argument("--max-len", type=_count, default=defaults.oracle_max_len,
                   help="oracle scan length for Unknown verdicts")
    p.add_argument("--amplify", type=_count, default=0, metavar="M",
                   help="on Infinite, also search for M pairwise distinct outputs")

    p = add("delay", _cmd_delay, "weight tables and delay of two runs on one input")
    p.add_argument("--input", required=True)
    p.add_argument("--C", type=_positive, default=2, help="cut period bound")
    p.add_argument("--run1", type=_count, default=None, help="index into the run list")
    p.add_argument("--run2", type=_count, default=None)
    p.add_argument("--budget", type=_count, default=DEFAULT_NODE_BUDGET)

    p = add("decompose", _cmd_decompose, "selector table (and cover sizes) up to a length")
    p.add_argument("--k", type=_positive, required=True, help="number of selectors")
    p.add_argument("--max-len", type=_count, default=3)
    p.add_argument("--C", type=_positive, default=2)
    p.add_argument("--D", type=_count, default=10, help="delay bound of the semantic cover")
    p.add_argument("--budget", type=_count, default=DEFAULT_NODE_BUDGET)

    p = add("equiv", _cmd_equiv, "bounded equivalence check of two documents",
            files=("file_a", "file_b"))
    p.add_argument("--max-len", type=_count, default=6)
    p.add_argument("--min-len", type=_count, default=1)
    p.add_argument("--budget", type=_count, default=DEFAULT_NODE_BUDGET)

    p = add("oracle", _cmd_oracle, "exhaustive valuedness and ambiguity readings")
    p.add_argument("--max-len", type=_count, default=6)
    p.add_argument("--budget", type=_count, default=DEFAULT_NODE_BUDGET)

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``.  An argv whose first word names
    a subcommand goes straight to that subcommand's parser, which is all
    the top-level parser would do with it; only when words are left over is
    it parsed the two-level way, for the top-level parser to report them."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def _parse_document(path: str, raw: bytes) -> Sst:
    """The machine of one document; a parse error names the document first."""
    try:
        return parse_sst(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 ({err.reason} at byte {err.start})") from None
    except ParseError as err:
        raise ParseError(f"{path}: {err}") from None


class _Report:
    """The report of one command.  Opens each of the command's documents
    once, for its parsed machine (``machines``) and, in a ``--json``
    report, its digest."""

    _KNOBS = ("budget", "component_len", "max_len", "min_len", "C", "D", "k", "amplify")

    def __init__(self, args: argparse.Namespace):
        paths = [getattr(args, dest) for dest in args.files]
        raws = []
        for path in paths:
            with open(path, "rb") as handle:
                raws.append(handle.read())
        self.documents = dict(zip(paths, raws))
        self.data: dict = {
            "command": args.command,
            "knobs": {
                name: getattr(args, name)
                for name in self._KNOBS
                if getattr(args, name, None) is not None
            },
        }
        self.json = args.json
        self.started = time.monotonic()
        self.lines: list[str] = []
        self.machines = [_parse_document(path, raw) for path, raw in zip(paths, raws)]

    def say(self, line: str) -> None:
        self.lines.append(line)

    def emit(self, payload: dict, exit_code: int) -> int:
        if self.json:
            sha256 = _sha256()
            self.data["files"] = {path: sha256(raw).hexdigest()
                                  for path, raw in self.documents.items()}
            self.data.update(payload)
            self.data["exit_code"] = exit_code
            self.data["wall_time_s"] = round(time.monotonic() - self.started, 6)
            print(_to_json(self.data))
        else:
            for line in self.lines:
                print(line)
        return exit_code


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        report = _Report(args)
        return args.handler(args, report, *report.machines)
    except (SstKitError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


def _cmd_validate(args, report, sst: Sst) -> int:
    summary = sst.describe()
    report.say(f"ok: {args.file}")
    for key, value in summary.items():
        report.say(f"  {key}: {value}")
    return report.emit({"result": summary}, EXIT_OK)


def _cmd_eval(args, report, sst: Sst) -> int:
    values = sorted(outputs(sst, args.input, Budget(args.budget)))
    report.say(f"input: {args.input!r}")
    report.say(f"outputs ({len(values)}):")
    for v in values:
        report.say(f"  {v!r}")
    return report.emit({"result": {"input": args.input, "outputs": values}}, EXIT_OK)


def _cmd_runs(args, report, sst: Sst) -> int:
    runs = enumerate_runs(sst, args.input, Budget(args.budget))
    report.say(f"input: {args.input!r}, accepting runs: {len(runs)}")
    payload = []
    for idx, (run, annotated) in enumerate(zip(runs, _shared_annotations(sst, runs))):
        output = "".join([c for c, _ in annotated])
        payload.append({"index": idx, "start": run.start,
                        "steps": list(run.steps), "output": output})
        report.say(f"  [{idx}] start={run.start} steps={list(run.steps)} output={output!r}")
    return report.emit({"result": {"input": args.input, "runs": payload}}, EXIT_OK)


def _cmd_ambiguity(args, report, sst: Sst) -> int:
    dumbbell = find_dumbbell(sst, node_budget=args.budget)
    if dumbbell is None:
        report.say("finitely ambiguous: no dumbbell")
        return report.emit(
            {"kind": "Finite", "evidence": {"certificate": "no dumbbell"}},
            EXIT_OK,
        )
    report.say(f"not finitely ambiguous: dumbbell at q1={dumbbell.q1} q2={dumbbell.q2} "
               f"on input {dumbbell.rho1.input!r}")
    return report.emit(
        {"kind": "Infinite", "evidence": {"dumbbell": dumbbell.describe()}},
        EXIT_WITNESS,
    )


def _cmd_valuedness(args, report, sst: Sst) -> int:
    _check_lengths(1, args.max_len)
    budget = SearchBudget(
        component_length=args.component_len,
        candidates=args.budget,
        oracle_max_len=args.max_len,
    )
    verdict = analyze_valuedness(sst, budget)
    payload = verdict.to_json()
    report.say(f"valuedness: {verdict.kind}")
    if verdict.kind == "Infinite":
        w = verdict.witness
        report.say(f"  witness input {w.input!r} with outputs "
                   f"{w.output_mark_mid!r} and {w.output_mark_late!r}")
        if args.amplify > 1:
            amplified = amplify_valuedness(sst, w, args.amplify, Budget(args.budget))
            if amplified is not None:
                word, outs = amplified
                report.say(f"  amplified: input {word!r} has {len(outs)} distinct outputs")
                payload["amplified"] = {"input": word, "outputs": outs}
    elif verdict.kind == "Unknown" and verdict.oracle_reading:
        report.say(f"  oracle reading: {verdict.oracle_reading}")
    exit_code = {"Finite": EXIT_OK, "Infinite": EXIT_WITNESS, "Unknown": EXIT_ERROR}[verdict.kind]
    return report.emit(payload, exit_code)


def _cmd_delay(args, report, sst: Sst) -> int:
    runs = enumerate_runs(sst, args.input, Budget(args.budget))
    first = args.run1 if args.run1 is not None else 0
    second = args.run2 if args.run2 is not None else (1 if len(runs) > 1 else 0)
    if not (first < len(runs) and second < len(runs)):
        raise SstKitError(
            f"run indices {first}, {second} out of range: {len(runs)} accepting runs"
        )
    result = run_delay(runs[first], runs[second], args.C)
    report.say(f"runs {first} and {second} on {args.input!r}, output {runs[first].output!r}")
    report.say(f"C={result.C}  cuts={list(result.cuts)}  delay={result.delay}  "
               f"argmax={result.argmax}")
    for line in result.table_lines():
        report.say(line)
    return report.emit({"result": dataclasses.asdict(result)}, EXIT_OK)


def _cmd_decompose(args, report, sst: Sst) -> int:
    table = []
    header = "input      | cover | " + " | ".join(f"sel_{i + 1}" for i in range(args.k))
    report.say(header)
    for u in words_over(sst.alphabet, 0, args.max_len):
        cover = semantic_cover(sst, u, args.C, args.D, Budget(args.budget))
        ranked = ranked_outputs(sst, u, Budget(args.budget))
        picks = [ranked[i] if i < len(ranked) else None for i in range(args.k)]
        if not cover and all(p is None for p in picks):
            continue
        row = {"input": u, "cover_size": len(cover), "selected": picks}
        table.append(row)
        rendered = " | ".join("-" if p is None else repr(p) for p in picks)
        report.say(f"{u!r:<10} | {len(cover):>5} | {rendered}")
    return report.emit({"result": {"k": args.k, "C": args.C, "D": args.D, "table": table}}, EXIT_OK)


def _cmd_equiv(args, report, a: Sst, b: Sst) -> int:
    _check_lengths(args.min_len, args.max_len)
    counterexample = check_equivalence_bounded(
        a, b, args.max_len, Budget(args.budget), min_len=args.min_len
    )
    if counterexample is None:
        span = "up to length " if args.min_len == 1 else f"on lengths {args.min_len}.."
        report.say(f"equal {span}{args.max_len}")
        return report.emit(
            {"result": {"equal": True, "max_len": args.max_len}}, EXIT_OK
        )
    out_a = sorted(outputs(a, counterexample))
    out_b = sorted(outputs(b, counterexample))
    report.say(f"counterexample: {counterexample!r}")
    report.say(f"  first file outputs:  {out_a}")
    report.say(f"  second file outputs: {out_b}")
    return report.emit(
        {"result": {"equal": False, "counterexample": counterexample,
                    "outputs_a": out_a, "outputs_b": out_b}},
        EXIT_WITNESS,
    )


def _cmd_oracle(args, report, sst: Sst) -> int:
    _check_lengths(1, args.max_len)
    val, val_witness = valuedness_oracle(sst, args.max_len, Budget(args.budget))
    amb, amb_witness = ambiguity_oracle(sst, args.max_len, Budget(args.budget))
    report.say(f"inputs of length 1..{args.max_len}:")
    report.say(f"  max outputs per input: {val} (at {val_witness!r})")
    report.say(f"  max runs per input:    {amb} (at {amb_witness!r})")
    payload = {
        "result": {
            "max_len": args.max_len,
            "valuedness": {"max_outputs": val, "witness": val_witness},
            "ambiguity": {"max_runs": amb, "witness": amb_witness},
        }
    }
    return report.emit(payload, EXIT_OK)


if __name__ == "__main__":
    raise SystemExit(main())
