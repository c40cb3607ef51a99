"""Span tracing of projlin's layers from outside the package.

``install`` wraps every public function of the traced modules and puts the
wrapper in each ``projlin.*`` namespace that holds the original, so callers
that look a function up through another module (``projlin.cli`` calling
``parse_head_vector``, ``projlin.treebank`` calling ``build_tree``) reach the
wrapper too.  Each call records one span: name, start, end and parent.
Generator functions record one span per item they produce, because their
work happens while the caller iterates.  A layer's self time is its spans'
time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

TRACED_MODULES = ("tree", "expectation", "arrangement", "montecarlo", "treebank", "extrema")


class Tracer:
    """Spans kept in flat arrays, so that half a million of them stay small."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def summary(self) -> dict:
        """Per name: calls, inclusive seconds and self seconds; plus the
        top-level spans in order."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        layers: dict[str, dict] = {}
        top = []
        for i in range(count):
            name = self.names[self.name_of[i]]
            duration = self.end[i] - self.start[i]
            entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child[i]
            if self.parent[i] < 0:
                top.append({"name": name, "start": self.start[i], "end": self.end[i]})
        return {"spans": count, "layers": layers, "top_level": top, "counters": dict(self.counters)}


def _plain_wrapper(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return wrapper


def _generator_wrapper(tracer: Tracer, name: str, fn, on_item=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        items = name + ".items"
        while True:
            index = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            tracer.counters[items] += 1
            if on_item is not None:
                on_item(tracer, item)
            yield item

    return wrapper


def _expectation_wrapper(tracer: Tracer, fn):
    """Name the span after the method, so the closed form and the
    recurrence are separate layers."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        method = signature.bind(*args, **kwargs).arguments.get("method", "closed_form")
        index = tracer.open(f"expectation.{method}")
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _count_vertex_samples(tracer, args, kwargs, result):
    tree = args[0] if args else kwargs["tree"]
    tracer.counters["montecarlo.vertex_samples"] += tree.n * result.z


def _count_bootstrap_cells(resamples_default):
    def after(tracer, args, kwargs, result):
        resamples = args[1] if len(args) > 1 else kwargs.get("resamples", resamples_default)
        tracer.counters["montecarlo.bootstrap_cells"] += resamples * sum(s.samples for s in result)

    return after


def _count_sentence(tracer, item):
    reason = getattr(item, "reason", None)
    if reason is None:
        tracer.counters["treebank.sentences_accepted"] += 1
    else:
        tracer.counters[f"treebank.skipped.{reason}"] += 1


def _csv_writer_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(report, fp):
        before = fp.tell()
        index = tracer.open("treebank.write_csv")
        try:
            return fn(report, fp)
        finally:
            tracer.close(index)
            tracer.counters["treebank.write_csv.bytes"] += fp.tell() - before

    return wrapper


def _make_wrapper(tracer: Tracer, module: str, attr: str, fn):
    name = f"{module}.{attr}"
    if name == "expectation.expected_sum_projective":
        return _expectation_wrapper(tracer, fn)
    if name in ("treebank.write_sentence_csv", "treebank.write_summary_csv"):
        return _csv_writer_wrapper(tracer, fn)
    if inspect.isgeneratorfunction(fn):
        on_item = _count_sentence if name == "treebank.parse_conllu" else None
        return _generator_wrapper(tracer, name, fn, on_item)
    after = None
    if name == "montecarlo.estimate_expected_sum":
        after = _count_vertex_samples
    elif name == "montecarlo.aggregate_errors":
        after = _count_bootstrap_cells(inspect.signature(fn).parameters["resamples"].default)
    return _plain_wrapper(tracer, name, fn, after)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the traced modules."""
    import projlin  # noqa: F401  (loads every submodule)

    replacements = {}
    for short in TRACED_MODULES:
        module = sys.modules[f"projlin.{short}"]
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ == module.__name__:
                replacements[id(value)] = _make_wrapper(tracer, short, attr, value)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "projlin" and not mod_name.startswith("projlin."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
