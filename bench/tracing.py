"""Runtime tracing of sstkit's layers, without changing any file under src/.

``Tracer.installed()`` replaces the public functions of each layer module
(and a few methods) with wrappers, in every sstkit module namespace that
holds them, and puts the originals back on exit.  Wrappers record only
while ``active`` is set, which the workload's recorder does around each
timed call, so preparing inputs and checking answers leave no trace.  A wrapper either records
a span (name, start, end, parent) or, for functions called so often that a
span would distort the timings, only counts calls.  Spans stay in memory
until ``write_spans``; ``summary`` turns them into per-layer self times,
call counts and work counts.  Span times are the calling thread's CPU
time, like the latencies of the untraced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("sstformat", "model", "skeletons", "analysis", "decompose", "delay", "wordcomb", "cli")

# Methods traced besides the module-level functions.
METHODS = {"model": ("Sst.__init__",), "analysis": ("WPattern.verify",)}

# Called tens to hundreds of thousands of times in one pass (compose_skeletons
# about 4 * 10^5 times in valuedness-corpus), where a span would cost more than
# the call: these are counted, and their time stays in the caller's self time.
COUNT_ONLY = {
    "model.compose_updates",
    "skeletons.compose_skeletons",
    "skeletons.is_idempotent",
    "skeletons.skeleton_of",
    "skeletons.transition_skeletons",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, parent, name, start_ns, end_ns, op)
        self.counts: Counter = Counter()
        self.op = -1
        self.active = False  # set by Recorder.call around each timed call
        self._stack: list[int] = []
        self._names: list[str] = []

    # -- installing wrappers --------------------------------------------------

    def _targets(self):
        """(qualified name, owner, attribute, original) for every traced
        callable."""
        for layer in LAYERS:
            module = sys.modules[f"sstkit.{layer}"]
            for attr, obj in sorted(vars(module).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    yield f"{layer}.{attr}", module, attr, obj
            for dotted in METHODS.get(layer, ()):
                cls_name, attr = dotted.split(".")
                cls = getattr(module, cls_name)
                name = f"{layer}.{cls_name}" if attr == "__init__" else f"{layer}.{dotted}"
                yield name, cls, attr, cls.__dict__[attr]

    @contextmanager
    def installed(self):
        modules = [m for n, m in sys.modules.items() if n == "sstkit" or n.startswith("sstkit.")]
        replaced = []  # (namespace owner, attribute, original)
        for name, owner, attr, original in self._targets():
            if name in COUNT_ONLY or inspect.isgeneratorfunction(original):
                wrapper = self._counter(name, original)
            else:
                wrapper = self._span(name, original)
            if inspect.isclass(owner):
                replaced.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, key, original))
                        setattr(module, key, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        spans, stack, names, counts = self.spans, self._stack, self._names, self.counts
        observe = _OBSERVERS.get(name)
        clock = time.thread_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                names.pop()
                spans[sid] = (sid, parent, name, start, end, self.op)
            if observe is not None:
                observe(counts, result, names[-1] if names else None)
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, plus the
        work counts gathered by the observers and by the workload."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, name, start, end, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for sid, parent, name, start, end, op in self.spans:
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[sid]
        names = sorted(calls)
        return {
            "calls": {n: calls[n] for n in names},
            "total_s": {n: total_ns[n] / 1e9 for n in names},
            "self_s": {n: self_ns[n] / 1e9 for n in names},
            "counts": dict(sorted(self.counts.items())),
        }

    def work_counts(self) -> dict:
        """Everything that must repeat exactly across two traced passes."""
        out = dict(self.counts)
        for sid, parent, name, start, end, op in self.spans:
            key = name + ".calls"
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def children_ns(self, parent_name: str, child_names) -> tuple[int, int]:
        """(inclusive ns of ``parent_name`` spans, ns of their direct
        children named in ``child_names``)."""
        wanted = set(child_names)
        ids = {sid for sid, parent, name, *_ in self.spans if name == parent_name}
        total = sum(end - start for sid, parent, name, start, end, op in self.spans if sid in ids)
        inner = sum(end - start for sid, parent, name, start, end, op in self.spans
                    if parent in ids and name in wanted)
        return total, inner

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# -- observers: work counts read off results ----------------------------------


def _enumerate_runs(counts, runs, parent):
    counts["model.enumerate_runs.runs"] += len(runs)
    if parent == "model.outputs":
        counts["model.outputs.runs"] += len(runs)


def _outputs(counts, values, parent):
    counts["model.outputs.distinct"] += len(values)


def _skeleton_monoid(counts, monoid, parent):
    counts["skeletons.skeleton_monoid.size"] += len(monoid)


def _amplify(counts, result, parent):
    if result is None:
        counts["analysis.amplify_valuedness.none"] += 1


_OBSERVERS = {
    "model.enumerate_runs": _enumerate_runs,
    "model.outputs": _outputs,
    "skeletons.skeleton_monoid": _skeleton_monoid,
    "analysis.amplify_valuedness": _amplify,
}
