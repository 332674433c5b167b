"""The benchmark's tracer still finds every name it traces in sstkit, wraps
it while installed and puts the original back afterwards, so a refactor
that drops or renames a traced function fails here rather than only in a
traced benchmark run."""

import importlib.util
import pathlib
import sys

import sstkit
import sstkit.cli  # noqa: F401  (the tracer reads every layer module)

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """Every attribute of every sstkit module, and the traced methods, as
    (owner, attribute) -> object."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "sstkit" or name.startswith("sstkit."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    out[("Sst", "__init__")] = sstkit.model.Sst.__dict__["__init__"]
    out[("WPattern", "verify")] = sstkit.analysis.WPattern.__dict__["verify"]
    return out


def test_every_traced_name_resolves_and_is_restored():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    before = namespaces()
    targets = list(tracer._targets())
    names = {name for name, *_ in targets}
    for layer, methods in tracing.METHODS.items():
        for dotted in methods:
            cls_name, attr = dotted.split(".")
            assert (f"{layer}.{cls_name}" if attr == "__init__" else f"{layer}.{dotted}") in names
    assert set(tracing.COUNT_ONLY) <= names
    assert set(tracing._OBSERVERS) <= names

    with tracer.installed():
        for name, owner, attr, original in targets:
            assert getattr(owner, attr) is not original, name
        tracer.active = True
        # the parser builds its machine without ``Sst.__init__``, so the
        # method's wrapper is reached by building one from code
        m = sstkit.parse_sst(sstkit.fixtures.source("FIX-AMB"))
        sstkit.Sst(m.alphabet, m.variables, m.states, m.initials, m.finals,
                   m.final_output, m.transitions, m.initial_assignment)
        tracer.active = False
    calls = tracer.summary()["calls"]
    assert calls["sstformat.parse_sst"] == 1 and calls["model.Sst"] == 1

    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_valuedness_chain_is_traced_once_per_call():
    """The analysis hands its context on from the dumbbell to amplification
    without bypassing a traced name: one Infinite verdict and its
    amplification record one call each of the chain's public steps."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.active = True
        sst = sstkit.fixtures.load("FIX-TSC1")
        verdict = sstkit.analyze_valuedness(sst)
        assert verdict.kind == "Infinite"
        assert sstkit.amplify_valuedness(sst, verdict.witness, 3) is not None
        tracer.active = False
    calls = tracer.summary()["calls"]
    for name in ("analysis.find_dumbbell", "analysis.analyze_valuedness",
                 "analysis.amplify_valuedness", "analysis.WPattern.verify"):
        assert calls[name] == 1, name
