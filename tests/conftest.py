"""Shared fixtures: the four worked-example conflicts, corpus builders and
random conflict/program generators used by the fuzz and acceptance suites."""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import os
import random
import re
from collections import Counter
from pathlib import Path, PurePosixPath

import pytest

import mergelearn
from mergelearn.conflicts import START_MARKER, ConflictedFile, ConflictInput, parse_conflict_file, tokenize_nodes
from mergelearn.corpus import CorpusCase, EmptyCorpusError, align_resolution, load_corpus
from mergelearn.dsl import (
    DSL_VERSION,
    PATTERN_KEYS,
    Concat,
    Condition,
    ParseError,
    PatternDictionary,
    Predicate,
    Program,
    Remove,
    Select,
    Selection,
    build_pattern_dictionary,
    rank_entry,
    run_program,
    selections_in,
)
from mergelearn.synth import _Stream, wf_concat, wf_remove

OUTSIDE_BEFORE = ("// Copyright 2020 The Sample Authors.", "")
OUTSIDE_AFTER = ("", "namespace sample {", "void Run() {}", "}  // namespace sample")

FIG1_REGIONS = {
    "a": {
        "fork": (
            '#include "ui/base/anonymous_ui_base_features.h"',
            '#include "ui/base/mojom/cursor_type.mojom-shared.h"',
        ),
        "main": ('#include "ui/base/cursor/mojom/cursor_type.mojom-shared.h"',),
        "resolution": (
            '#include "ui/base/anonymous_ui_base_features.h"',
            '#include "ui/base/mojom/cursor_type.mojom-shared.h"',
        ),
        "label": "RD",
    },
    "b": {
        "fork": (
            '#include "ui/base/anonymous_ui_base_features.h"',
            '#include "ui/base/mojom/cursor_type.mojom-blink.h"',
        ),
        "main": ('#include "ui/base/cursor/mojom/cursor_type.mojom-blink.h"',),
        "resolution": (
            '#include "ui/base/anonymous_ui_base_features.h"',
            '#include "ui/base/mojom/cursor_type.mojom-blink.h"',
        ),
        "label": "RD",
    },
    "c": {
        "fork": ('#include "base/logging.h"', '#include "base/scoped_native_library.h"'),
        "main": ('#include "base/notreached.h"',),
        "resolution": ('#include "base/notreached.h"', '#include "base/scoped_native_library.h"'),
        "label": "FB",
    },
    "d": {
        "fork": ('#include "base/command_line.h"', '#include "base/logging.h"'),
        "main": ('#include "base/check_op.h"',),
        "resolution": ('#include "base/check_op.h"', '#include "base/command_line.h"'),
        "label": "FB",
    },
}

FB_PROGRAM = Program(
    Condition((Predicate("FrequentPattern", path="base/logging.h"),)),
    Concat(
        Select(Selection("Main")),
        Remove(Selection("Fork"), Selection("ForkByPath", path="base/logging.h")),
    ),
)

DUP_PROGRAM = Program(
    Condition((Predicate("DuplicateMainFork"),)),
    Concat(
        Select(Selection("Fork")),
        Remove(Selection("Main"), Selection("Pattern", key="DuplicateMainFork")),
    ),
)

# Fires where DUP_PROGRAM does, on figures a and b, and fails there: their
# main regions hold one node.
FAILING_PROGRAM = Program(Condition((Predicate("DuplicateMainFork"),)), Select(Selection("MainByIndex", k=9)))
FAILING_ERROR = "IndexOutOfRange: MainByIndex(9) on a 1-node region"


def marker_text(fork_lines, main_lines, before=OUTSIDE_BEFORE, after=OUTSIDE_AFTER,
                fork_label="fork", main_label="main"):
    lines = [
        *before,
        f"<<<<<<< {fork_label}",
        *fork_lines,
        "=======",
        *main_lines,
        f">>>>>>> {main_label}",
        *after,
    ]
    return "\n".join(lines) + "\n"


def fig_file_text(name: str) -> str:
    spec = FIG1_REGIONS[name]
    return marker_text(spec["fork"], spec["main"])


def fig_resolved_text(name: str) -> str:
    spec = FIG1_REGIONS[name]
    lines = [*OUTSIDE_BEFORE, *spec["resolution"], *OUTSIDE_AFTER]
    return "\n".join(lines) + "\n"


def fig_chunk(name: str, file_path: str | None = None) -> ConflictInput:
    path = file_path or f"ui/base/sample_{name}.cc"
    chunks = parse_conflict_file(fig_file_text(name), path)
    assert len(chunks) == 1
    return chunks[0]


def fig_resolution_nodes(name: str):
    return tokenize_nodes(FIG1_REGIONS[name]["resolution"])


@pytest.fixture
def fig1a():
    return fig_chunk("a")


@pytest.fixture
def fig1b():
    return fig_chunk("b")


@pytest.fixture
def fig1c():
    return fig_chunk("c")


@pytest.fixture
def fig1d():
    return fig_chunk("d")


def checkout_env() -> dict:
    """The environment for a Python subprocess that imports this checkout's
    package and these test helpers."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(mergelearn.__file__).parents[1]),
                                                      str(Path(__file__).parent), env.get("PYTHONPATH"))))
    return env


def write_fig_corpus(root: Path) -> Path:
    """Encode the four worked examples in the on-disk corpus layout."""
    merges = {"a": "merge-001", "b": "merge-001", "c": "merge-002", "d": "merge-002"}
    for name, spec in FIG1_REGIONS.items():
        case_dir = root / merges[name] / f"case-{name}"
        case_dir.mkdir(parents=True)
        (case_dir / "conflict.txt").write_text(fig_file_text(name), encoding="utf-8")
        (case_dir / "resolved.txt").write_text(fig_resolved_text(name), encoding="utf-8")
        meta = {"file_path": f"ui/base/sample_{name}.cc", "label": spec["label"]}
        (case_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return root



# --- the reference corpus loader --------------------------------------------

_corpus_logger = logging.getLogger("mergelearn.corpus")


def _reference_header_reader(case_dir: Path):
    headers = case_dir / "headers"
    if not headers.is_dir():
        return None

    def read(path: str) -> str | None:
        include = PurePosixPath(path)
        if not include.is_absolute() and ".." not in include.parts and (headers / include).is_file():
            return (headers / include).read_text(encoding="utf-8")
        by_name = headers / path.rsplit("/", 1)[-1]
        return by_name.read_text(encoding="utf-8") if by_name.is_file() else None
    return read


def _reference_load_case_dir(merge_id: str, case_dir: Path) -> list[CorpusCase]:
    conflict_file = case_dir / "conflict.txt"
    resolved_file = case_dir / "resolved.txt"
    meta_file = case_dir / "meta.json"
    try:
        if not conflict_file.is_file():
            raise ValueError("no conflict.txt")
        if not resolved_file.is_file():
            raise ValueError("missing resolution")
        meta = json.loads(meta_file.read_text(encoding="utf-8")) if meta_file.is_file() else {}
        if not isinstance(meta, dict) or not all(
            isinstance(meta.get(key, ""), str) for key in ("file_path", "label", "side_order")
        ):
            raise ValueError("meta.json must be an object whose file_path, label and side_order are strings")
        file_path = meta.get("file_path") or case_dir.name
        conflict_text = conflict_file.read_text(encoding="utf-8")
        resolved_text = resolved_file.read_text(encoding="utf-8")
        if re.search(f"^{START_MARKER}", resolved_text, flags=re.M):
            raise ValueError("resolved file still contains markers")
        parsed = ConflictedFile.parse(conflict_text, file_path, side_order=meta.get("side_order", "fork-first"),
                                      header_text=_reference_header_reader(case_dir))
        aligned = align_resolution(parsed, resolved_text)
    except (OSError, ValueError, RecursionError) as exc:
        _corpus_logger.warning("skipping %s: %s", case_dir, exc)
        return []
    out = []
    for index, (chunk, res) in enumerate(zip(parsed.chunks, aligned)):
        if res.nodes is None:
            _corpus_logger.warning("skipping %s chunk %d: %s", case_dir, index, res.reason)
            continue
        out.append(CorpusCase(chunk, res.nodes, merge_id, file_path, index, meta.get("label")))
    return out


def reference_load_corpus(root) -> list[CorpusCase]:
    """``corpus.load_corpus`` as it was before it listed each directory
    once: a ``pathlib`` stat for every probe and a ``Path`` for every file.
    The reference that the listing loader must equal, in its cases and in
    the skip messages it logs to the ``mergelearn.corpus`` logger."""
    root = Path(root)
    if not root.is_dir():
        raise EmptyCorpusError(f"corpus root {root} {'is not a directory' if root.exists() else 'does not exist'}")
    cases: list[CorpusCase] = []
    for merge_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        for case_dir in sorted(p for p in merge_dir.iterdir() if p.is_dir()):
            cases.extend(_reference_load_case_dir(merge_dir.name, case_dir))
    if not cases:
        raise EmptyCorpusError(f"no usable cases under {root}")
    return cases


def corpus_case_record(case: CorpusCase) -> tuple:
    """A corpus case as plain values: the chunks of two parses of one file
    are never equal, since a chunk's equality includes its parsed file's
    identity."""
    context = case.conflict.context
    return (case.merge_id, case.file_path, case.chunk_index, case.label, case.human_resolution,
            case.conflict.index, context.file_path, context.lines, context.spans, context.trailing_newline,
            tuple((c.main_nodes, c.fork_nodes, c.main_lines, c.fork_lines) for c in context.chunks),
            dict(context.header_contents))


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.seen: list[str] = []

    def emit(self, record):
        self.seen.append(record.getMessage())


def load_both(root) -> dict:
    """The corpus under ``root`` as ``load_corpus`` and as
    ``reference_load_corpus`` load it: for each, the ``corpus_case_record``
    of every case and the messages it logged."""
    out = {}
    for name, load in (("listing", load_corpus), ("reference", reference_load_corpus)):
        handler = _Messages()
        level = _corpus_logger.level
        _corpus_logger.addHandler(handler)
        _corpus_logger.setLevel(logging.WARNING)
        try:
            cases = load(root)
        finally:
            _corpus_logger.removeHandler(handler)
            _corpus_logger.setLevel(level)
        out[name] = {"cases": [corpus_case_record(case) for case in cases], "messages": handler.seen}
    return out

# --- random generation for fuzz suites --------------------------------------

PATH_POOL = (
    "base/alpha.h",
    "base/beta.h",
    "base/gamma.h",
    "ui/delta.h",
    "ui/epsilon.h",
    "net/zeta.h",
)
MACRO_NAMES = ("IN_PROC_BROWSER_TEST_F", "IN_PROC_BROWSER_TEST_P", "RUN_SUITE")
IDENTS = ("CheckDownloadUrl", "CheckResourceUrl", "MalwareScan", "V4")
RAW_LINES = ("", "int counter = 0;", "return;")


def gen_region_lines(rng, count, pool=PATH_POOL, force_paths=(), macros=True, raws=True):
    lines = [f'#include "{p}"' for p in force_paths]
    while len(lines) < count:
        roll = rng.random()
        if macros and roll < 0.12:
            lines.append(f"{rng.choice(MACRO_NAMES)}({rng.choice(IDENTS)}, {rng.choice(IDENTS)}) {{")
        elif raws and roll < 0.22:
            lines.append(rng.choice(RAW_LINES))
        else:
            lines.append(f'#include "{rng.choice(pool)}"')
    rng.shuffle(lines)
    return lines


def gen_conflict(rng, max_nodes=3, pool=PATH_POOL, force_paths=(), macros=True, raws=True,
                 file_path="src/generated.cc"):
    """A random single-chunk conflict built through the real parser."""
    n_fork = rng.randint(1, max_nodes)
    n_main = rng.randint(1, max_nodes)
    fork = gen_region_lines(rng, n_fork, pool, force_paths, macros, raws)
    main = gen_region_lines(rng, n_main, pool, force_paths, macros, raws)
    text = marker_text(fork, main)
    return parse_conflict_file(text, file_path)[0]


def true_predicates(conflict: ConflictInput, pdict: PatternDictionary):
    preds = [Predicate(tag) for tag in pdict]
    preds.extend(Predicate("FrequentPattern", path=p) for p in sorted(pdict.frequent))
    return preds


def gen_transformation(rng, selections, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.35:
        return Concat(gen_transformation(rng, selections, depth - 1),
                      gen_transformation(rng, selections, depth - 1))
    if roll < 0.65:
        source = Selection(rng.choice(("Main", "Fork")))
        removed, _ = rng.choice(selections)
        return Remove(source, removed)
    sel, _ = rng.choice(selections)
    return Select(sel)


def gen_program_with_output(rng, conflict, depth, config=None, attempts=30):
    """A random program whose guard holds and evaluation succeeds, plus its
    output; None when no attempt lands."""
    from mergelearn.dsl import DEFAULT_CONFIG

    config = config or DEFAULT_CONFIG
    pdict = build_pattern_dictionary(conflict, config)
    preds = true_predicates(conflict, pdict)
    if not preds:
        return None
    selections = canonical_selections(conflict, pdict)
    for _ in range(attempts):
        guard = rng.sample(preds, rng.randint(1, min(3, len(preds))))
        program = Program(Condition(tuple(guard)), gen_transformation(rng, selections, depth))
        result = run_program(program, conflict, config)
        if result.is_resolved:
            return program, result.nodes
    return None


def criterion3_cases(rng):
    """One-example cases drawn by acceptance criterion 3's recipe: a conflict,
    a program of concat depth <= 3 that resolves it, and its output of at
    most 10 nodes. Yields ``((conflict, output),)`` forever."""
    while True:
        conflict = gen_conflict(rng)
        generated = gen_program_with_output(rng, conflict, depth=3)
        if generated is not None and len(generated[1]) <= 10:
            yield ((conflict, generated[1]),)


def multi_example_cases(rng, sizes=(2, 3), depth=2, max_output=6, attempts=40):
    """Cases of ``sizes`` examples that one random program produces: the program
    resolves its first conflict, and later conflicts carry every include
    path the program names so its guard can hold there too. Yields forever."""
    while True:
        first = gen_conflict(rng)
        generated = gen_program_with_output(rng, first, depth)
        if generated is None or len(generated[1]) > max_output:
            continue
        program, output = generated
        paths = {p.path for p in program.condition.predicates if p.path is not None}
        paths |= {s.path for s in selections_in(program.transformation) if s.path is not None}
        want = rng.choice(sizes)
        cases = [(first, output)]
        for _ in range(attempts):
            if len(cases) == want:
                break
            other = gen_conflict(rng, force_paths=tuple(sorted(paths)))
            result = run_program(program, other)
            if result.is_resolved and len(result.nodes) <= max_output:
                cases.append((other, result.nodes))
        if len(cases) == want:
            yield tuple(cases)


def cut_by_guard_pairing():
    """Specs whose ranked list the default cap cuts: criterion-3
    spec 6 (over MAX_PROGRAMS transformations), criterion-3 spec 113 (2 196)
    and a two-example spec (800)."""
    single = list(itertools.islice(criterion3_cases(random.Random(0xC0FFEE)), 114))
    return [single[6], single[113], next(itertools.islice(multi_example_cases(random.Random(0x5EC0)), 76, None))]


def canonical_selections(conflict: ConflictInput, pdict: PatternDictionary):
    """Every selection the synthesizer may use on this input, with its value,
    computed on ``Node``s: the reference for the learner's selection table.

    Index selections stay in range, path selections name a path that
    matches, pattern selections name a non-empty dictionary entry; the
    whole-branch selections are always present.
    """
    out: list[tuple[Selection, tuple]] = [
        (Selection("Main"), conflict.main_nodes),
        (Selection("Fork"), conflict.fork_nodes),
    ]
    for k in range(len(conflict.main_nodes)):
        out.append((Selection("MainByIndex", k=k), (conflict.main_nodes[k],)))
    for k in range(len(conflict.fork_nodes)):
        out.append((Selection("ForkByIndex", k=k), (conflict.fork_nodes[k],)))
    for tag, region in (("MainByPath", conflict.main_nodes), ("ForkByPath", conflict.fork_nodes)):
        for path in sorted({n.include_path for n in region if n.include_path is not None}):
            out.append((Selection(tag, path=path), tuple(n for n in region if n.include_path == path)))
    for key in PATTERN_KEYS:
        entry = pdict.get(key)
        if entry:
            out.append((Selection("Pattern", key=key), entry))
    return out


def _matching(selections, value):
    """The selections paired with exactly this value."""
    return tuple(sel for sel, v in selections if v == value)


def _multiset(nodes) -> frozenset:
    return frozenset(Counter(nodes).items())


def reference_base_candidates(conflicts, targets, pdicts):
    """The depth-0 candidates that map each conflict to its own target, as
    rank entries in rank order, computed on ``Node``s: a Select of each
    selection whose value is the target, and a Remove of each non-empty
    selection whose value, as a multiset, is what ``wf_remove`` deletes from
    a source; only what every example emits is kept."""
    shared = None
    for conflict, target, pdict in zip(conflicts, targets, pdicts):
        selections = canonical_selections(conflict, pdict)
        removable = [(sel, _multiset(value)) for sel, value in selections if value]
        emitted = {Select(sel) for sel in _matching(selections, tuple(target))}
        for source, removed in wf_remove(conflict, target):
            emitted.update(Remove(source, sel) for sel in _matching(removable, _multiset(removed)))
        shared = emitted if shared is None else shared & emitted
    return sorted(map(rank_entry, shared))


def eager_full(learner, targets, depth):
    """The root stream as ``_TransformationLearner.full`` built it before it
    deferred one product: the padded splits include the one that keeps
    every example's target whole on the left, and every product's arms are
    built up front. The reference for the deferred product."""
    if depth == 0 or not all(targets):
        return learner.core(targets, depth)

    def grow(left, right):
        k = len(left)
        if k == len(targets):
            yield left, right
            return
        for l, r in (*wf_concat(targets[k]), (targets[k], ())):
            l, r = (*left, l), (*right, r)
            if learner._feasible(l, depth - 1) and learner._feasible(r, depth - 1):
                yield from grow(l, r)

    return _Stream(learner._base(targets), learner._products(grow((), ()), depth - 1))


def reference_struct_key(obj) -> tuple:
    """The structural key as a nested tuple ``(tag, *arguments)``, each
    argument a literal or a child's tuple: what ``dsl.struct_key`` encoded
    before it became one flat string, and the order that string must keep."""
    if isinstance(obj, Selection):
        if obj.tag in ("Main", "Fork"):
            return (obj.tag,)
        if obj.k is not None:
            return (obj.tag, str(obj.k))
        return (obj.tag, obj.path if obj.path is not None else obj.key)
    if isinstance(obj, Select):
        return ("Select", reference_struct_key(obj.selection))
    if isinstance(obj, Remove):
        return ("Remove", reference_struct_key(obj.source), reference_struct_key(obj.removed))
    if isinstance(obj, Concat):
        return ("Concat", reference_struct_key(obj.left), reference_struct_key(obj.right))
    if isinstance(obj, Condition):
        return ("And",) + tuple((p.tag,) if p.path is None else (p.tag, p.path) for p in obj.predicates)
    return ("Apply", reference_struct_key(obj.condition), reference_struct_key(obj.transformation))


def deep_program_text(depth: int) -> str:
    """Program JSON whose transformation is a chain of ``depth`` Concats,
    built as text because ``json.dumps`` cannot nest that deep."""
    t = '{"select": {"tag": "Main"}}'
    for _ in range(depth):
        t = '{"concat": [' + t + ', {"select": {"tag": "Fork"}}]}'
    return '{"dslv": 1, "apply": {"condition": [{"tag": "Rename"}], "transform": ' + t + "}}"


# The program decoder as it was before it built literals positionally: the
# reference ``dsl.program_from_json`` must agree with, value for value and
# message for message.

def _reference_expect_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object, got {type(value).__name__}")
    return value


_REFERENCE_FIELD_NAMES = {
    cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in (Predicate, Selection)
}


def _reference_literal_node(cls, obj, where: str):
    obj = _reference_expect_dict(obj, where)
    names = _REFERENCE_FIELD_NAMES[cls]
    extra = obj.keys() - names
    if extra:
        raise ParseError(f"{where}: unexpected fields {sorted(extra)}")
    try:
        return cls(**{name: obj.get(name) for name in names})
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _reference_transformation_from_json(obj, where: str):
    obj = _reference_expect_dict(obj, where)
    if len(obj) != 1:
        raise ParseError(f"{where}: expected exactly one of concat/remove/select")
    (op, payload), = obj.items()
    if op == "concat":
        if not isinstance(payload, list) or len(payload) != 2:
            raise ParseError(f"{where}.concat: expected a pair")
        return Concat(
            _reference_transformation_from_json(payload[0], f"{where}.concat[0]"),
            _reference_transformation_from_json(payload[1], f"{where}.concat[1]"),
        )
    if op == "remove":
        if not isinstance(payload, list) or len(payload) != 2:
            raise ParseError(f"{where}.remove: expected a pair")
        return Remove(
            _reference_literal_node(Selection, payload[0], f"{where}.remove[0]"),
            _reference_literal_node(Selection, payload[1], f"{where}.remove[1]"),
        )
    if op == "select":
        return Select(_reference_literal_node(Selection, payload, f"{where}.select"))
    raise ParseError(f"{where}: unknown operator {op!r}")


def reference_program_from_json(obj) -> Program:
    obj = _reference_expect_dict(obj, "program")
    dslv = obj.get("dslv")
    if type(dslv) is not int or dslv != DSL_VERSION:
        raise ParseError(f"program: unsupported dslv {dslv!r}")
    apply_obj = _reference_expect_dict(obj.get("apply"), "apply")
    preds = apply_obj.get("condition")
    if not isinstance(preds, list) or not preds:
        raise ParseError("apply.condition: expected a non-empty array")
    predicates = tuple(_reference_literal_node(Predicate, p, f"apply.condition[{i}]") for i, p in enumerate(preds))
    try:
        condition = Condition(predicates)
    except ValueError as exc:
        raise ParseError(f"apply.condition: {exc}") from exc
    return Program(condition, _reference_transformation_from_json(apply_obj.get("transform"), "apply.transform"))
