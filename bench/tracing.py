"""In-memory spans around the public functions of each mergelearn layer.

The program itself records nothing; the benchmark wraps the functions from
the outside. A wrapped function is replaced at every module attribute that
binds it (``synth.build_pattern_dictionary`` is the same function as
``dsl.build_pattern_dictionary``), so calls are caught whichever name the
caller uses. A function that no longer exists marks its layer absent.

Spans are ``[layer, start, end, parent index]``. They are folded into
per-layer totals after every item, so memory stays bounded by one item's
spans. A layer's total time is its spans' time, and its self time that
minus the time of their direct child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

ROOT = "bench"


def _kind_counter(counts, layer, args, result):
    kind = getattr(result, "kind", None)
    if kind is not None:
        counts[f"{layer}.{kind.replace('-', '_')}"] += 1


def _len_counter(name):
    def count(counts, layer, args, result):
        try:
            counts[f"{layer}.{name}"] += len(result)
        except TypeError:
            pass
    return count


def _candidates_counter(counts, layer, args, result):
    counts[f"{layer}.programs"] += len(getattr(result, "programs", ()))
    counts[f"{layer}.truncated"] += bool(getattr(result, "truncated", False))


def _intersection_counter(counts, layer, args, result):
    sets = args[0] if args else ()
    try:
        counts[f"{layer}.programs_in"] += sum(len(getattr(s, "programs", ())) for s in sets)
    except TypeError:
        pass
    counts[f"{layer}.programs_out"] += len(getattr(result, "programs", ()))


def _align_counter(counts, layer, args, result):
    counts[f"{layer}.unusable"] += sum(1 for chunk in result if getattr(chunk, "nodes", None) is None)


# (layer, module, attribute, counter). A class attribute is written
# "Class.method". Several functions may feed one layer when none of them
# calls another.
LAYER_FUNCTIONS = (
    ("conflicts.parse", "mergelearn.conflicts", "ConflictedFile.parse", None),
    ("conflicts.tokenize", "mergelearn.conflicts", "tokenize_nodes", _len_counter("nodes")),
    ("dsl.pattern_dictionary", "mergelearn.dsl", "build_pattern_dictionary", None),
    ("dsl.run_program", "mergelearn.dsl", "run_program", _kind_counter),
    ("dsl.serialization", "mergelearn.dsl", "program_to_json", None),
    ("dsl.serialization", "mergelearn.dsl", "program_from_json", None),
    ("synth.condition", "mergelearn.synth", "learn_condition", None),
    ("synth.candidates", "mergelearn.synth", "learn_transformation", _candidates_counter),
    ("synth.intersection", "mergelearn.synth", "intersect_program_sets", _intersection_counter),
    ("synth.guard_ranking", "mergelearn.synth", "learn", _len_counter("programs_out")),
    ("corpus.load", "mergelearn.corpus", "load_corpus", None),
    ("corpus.align", "mergelearn.corpus", "align_resolution", _align_counter),
    ("corpus.evaluate", "mergelearn.corpus", "evaluate", None),
    ("cli", "mergelearn.cli", "main", None),
)
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in LAYER_FUNCTIONS))


class NestingError(AssertionError):
    """Spans of one item do not nest inside their parents."""


class Tracer:
    """Wraps the layer functions while installed; records while active."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.chunks_built = 0  # distinct chunks a dictionary was built for, summed over items
        self._item_chunks: set[int] = set()
        self.absent: list[str] = []
        self._undo: list[tuple] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mergelearn" or name.startswith("mergelearn."))]
        present = set()
        for layer, module_name, attr, counter in LAYER_FUNCTIONS:
            module = sys.modules.get(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None:
                continue
            present.add(layer)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__, counter))
                self._set(owner, name, wrapped, raw)
                continue
            wrapper = self._wrap(layer, raw, counter)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is raw:
                        self._set(m, binding, wrapper, raw)
        self.absent = [layer for layer in LAYERS if layer not in present]

    def _set(self, owner, name, new, old) -> None:
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    def _wrap(self, layer, fn, counter):
        tracer = self
        chunk_ids = layer == "dsl.pattern_dictionary"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [layer, 0.0, 0.0, tracer._stack[-1]]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer.counts, layer, args, result)
            if chunk_ids and args:
                tracer._item_chunks.add(id(args[0]))
            return result

        return traced

    # --- recording ----------------------------------------------------------

    def run(self, fn, *args):
        """Call ``fn`` under a root span; returns (result, root duration)."""
        self.spans = [[ROOT, 0.0, 0.0, -1]]
        self._stack = [0]
        self._item_chunks = set()
        self.active = True
        root = self.spans[0]
        root[1] = perf_counter()
        try:
            result = fn(*args)
        finally:
            root[2] = perf_counter()
            self.active = False
        self._fold()
        return result, root[2] - root[1]

    def _fold(self) -> None:
        """Check nesting, then add the item's spans to the layer totals."""
        if self._stack != [0]:
            raise NestingError(f"unclosed spans at the end of an item: {self._stack}")
        self_s = [span[2] - span[1] for span in self.spans]
        for i, (layer, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                continue
            self.calls[layer] += 1
            self.total_s[layer] += end - start
            p = self.spans[parent]
            if not (p[1] <= start <= end <= p[2]) or parent >= i:
                raise NestingError(f"span {layer} [{start}, {end}] escapes its parent {p[0]} [{p[1]}, {p[2]}]")
            self_s[parent] -= end - start
        for (layer, *_), value in zip(self.spans, self_s):
            self.self_s[layer] += value
        self.chunks_built += len(self._item_chunks)
        self.spans = []
