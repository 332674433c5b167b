"""Command-line front end.

Subcommands: validate, eval, runs, ambiguity, valuedness, delay, decompose,
equiv, oracle.  Exit codes are machine-checkable: 0 for success / Finite /
equal, 1 for Infinite / counterexample, 2 for usage, parse, or budget
problems (Unknown verdicts included).  ``--json`` switches to a key-sorted,
schema-stable report; repeated invocations on the same inputs produce
byte-identical reports except for the wall_time_s field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

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
from .errors import SstKitError
from .model import (
    Budget,
    Sst,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sstkit",
        description="Analyze copyless streaming string transducers.",
    )
    parser.add_argument("--version", action="version", version=f"sstkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, helptext: str, files: int = 1) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=helptext)
        if files == 1:
            p.add_argument("file", help="transducer document")
        elif files == 2:
            p.add_argument("file_a", help="first transducer document")
            p.add_argument("file_b", help="second transducer document")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        return p

    add("validate", "parse and validate a document")

    p = add("eval", "print the set of outputs for one input")
    p.add_argument("--input", required=True, help="input word")
    p.add_argument("--budget", type=int, default=10_000_000)

    p = add("runs", "list the accepting runs on one input")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=10_000_000)

    p = add("ambiguity", "exact finite-ambiguity decision (dumbbell search)")
    p.add_argument("--budget", type=int, default=10_000_000)

    p = add("valuedness", "sound partial finite-valuedness analysis")
    p.add_argument("--budget", type=int, default=1_000_000,
                   help="candidate budget for the W-pattern search")
    p.add_argument("--component-len", type=int, default=4,
                   help="max transitions per W-pattern component")
    p.add_argument("--max-len", type=int, default=6,
                   help="oracle scan length for Unknown verdicts")
    p.add_argument("--amplify", type=int, default=0, metavar="M",
                   help="on Infinite, also search for M pairwise distinct outputs")

    p = add("delay", "weight tables and delay of two runs on one input")
    p.add_argument("--input", required=True)
    p.add_argument("--C", type=int, default=2, help="cut period bound")
    p.add_argument("--run1", type=int, default=None, help="index into the run list")
    p.add_argument("--run2", type=int, default=None)
    p.add_argument("--budget", type=int, default=10_000_000)

    p = add("decompose", "selector table (and cover sizes) up to a length")
    p.add_argument("--k", type=int, required=True, help="number of selectors")
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--C", type=int, default=2)
    p.add_argument("--D", type=int, default=10)
    p.add_argument("--budget", type=int, default=10_000_000)

    p = add("equiv", "bounded equivalence check of two documents", files=2)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--min-len", type=int, default=1)
    p.add_argument("--budget", type=int, default=10_000_000)

    p = add("oracle", "exhaustive valuedness and ambiguity readings")
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--budget", type=int, default=10_000_000)

    return parser


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _load(path: str) -> Sst:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_sst(handle.read())


class _Report:
    _KNOBS = ("budget", "component_len", "max_len", "min_len", "C", "D", "k", "amplify")

    def __init__(self, args: argparse.Namespace, files: list[str]):
        self.data: dict = {
            "command": args.command,
            "files": {path: _digest(path) for path in files},
            "knobs": {
                name: getattr(args, name)
                for name in self._KNOBS
                if getattr(args, name, None) is not None
            },
        }
        self.json = args.json
        self.started = time.monotonic()
        self.lines: list[str] = []

    def say(self, line: str) -> None:
        self.lines.append(line)

    def emit(self, payload: dict, exit_code: int) -> int:
        if self.json:
            self.data.update(payload)
            self.data["exit_code"] = exit_code
            self.data["wall_time_s"] = round(time.monotonic() - self.started, 6)
            print(json.dumps(self.data, sort_keys=True, indent=2))
        else:
            for line in self.lines:
                print(line)
        return exit_code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except SstKitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


def _dispatch(args: argparse.Namespace) -> int:
    files = [args.file] if hasattr(args, "file") else [args.file_a, args.file_b]
    report = _Report(args, files)
    handler = {
        "validate": _cmd_validate,
        "eval": _cmd_eval,
        "runs": _cmd_runs,
        "ambiguity": _cmd_ambiguity,
        "valuedness": _cmd_valuedness,
        "delay": _cmd_delay,
        "decompose": _cmd_decompose,
        "equiv": _cmd_equiv,
        "oracle": _cmd_oracle,
    }[args.command]
    return handler(args, report)


def _cmd_validate(args, report) -> int:
    sst = _load(args.file)
    summary = sst.describe()
    report.say(f"ok: {args.file}")
    for key, value in summary.items():
        report.say(f"  {key}: {value}")
    return report.emit({"result": summary}, EXIT_OK)


def _cmd_eval(args, report) -> int:
    sst = _load(args.file)
    values = sorted(outputs(sst, args.input, Budget(args.budget)))
    report.say(f"input: {args.input!r}")
    report.say(f"outputs ({len(values)}):")
    for v in values:
        report.say(f"  {v!r}")
    return report.emit({"result": {"input": args.input, "outputs": values}}, EXIT_OK)


def _cmd_runs(args, report) -> int:
    sst = _load(args.file)
    runs = enumerate_runs(sst, args.input, Budget(args.budget))
    report.say(f"input: {args.input!r}, accepting runs: {len(runs)}")
    payload = []
    for idx, run in enumerate(runs):
        payload.append({"index": idx, "start": run.start,
                        "steps": list(run.steps), "output": run.output})
        report.say(f"  [{idx}] start={run.start} steps={list(run.steps)} output={run.output!r}")
    return report.emit({"result": {"input": args.input, "runs": payload}}, EXIT_OK)


def _cmd_ambiguity(args, report) -> int:
    sst = _load(args.file)
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


def _cmd_valuedness(args, report) -> int:
    sst = _load(args.file)
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


def _cmd_delay(args, report) -> int:
    sst = _load(args.file)
    runs = enumerate_runs(sst, args.input, Budget(args.budget))
    if args.run1 is None and args.run2 is None and len(runs) == 2:
        first, second = 0, 1
    else:
        first = args.run1 if args.run1 is not None else 0
        second = args.run2 if args.run2 is not None else (1 if len(runs) > 1 else 0)
    if not (0 <= first < len(runs) and 0 <= second < len(runs)):
        raise SstKitError(
            f"run indices {first}, {second} out of range: {len(runs)} accepting runs"
        )
    result = run_delay(runs[first], runs[second], args.C)
    report.say(f"runs {first} and {second} on {args.input!r}, output {runs[first].output!r}")
    report.say(f"C={result.C}  cuts={list(result.cuts)}  delay={result.delay}  "
               f"argmax={result.argmax}")
    for line in result.table_lines():
        report.say(line)
    payload = {
        "result": {
            "C": result.C,
            "cuts": list(result.cuts),
            "delay": result.delay,
            "argmax": list(result.argmax),
            "weights1": [list(r) for r in result.weights1],
            "weights2": [list(r) for r in result.weights2],
        }
    }
    return report.emit(payload, EXIT_OK)


def _cmd_decompose(args, report) -> int:
    sst = _load(args.file)
    if args.k < 1:
        raise SstKitError("need at least one selector")
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


def _cmd_equiv(args, report) -> int:
    a = _load(args.file_a)
    b = _load(args.file_b)
    counterexample = check_equivalence_bounded(
        a, b, args.max_len, Budget(args.budget), min_len=args.min_len
    )
    if counterexample is None:
        report.say(f"equal up to length {args.max_len}")
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


def _cmd_oracle(args, report) -> int:
    sst = _load(args.file)
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
