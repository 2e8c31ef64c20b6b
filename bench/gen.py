"""Seeded input generators for the benchmark workloads.

These live beside the benchmark rather than in the test suite so that
editing a test cannot shift a workload. Every generator draws from the
``random.Random`` it is given and from nothing else.

The learn generators follow the recipe of acceptance criterion 3: a random
single-chunk conflict (1-3 nodes per region), a random guarded program of
concat depth <= 3 whose guard holds and whose evaluation succeeds, and its
output, kept when it has at most 10 nodes. The apply and eval generators
build their expected outputs with plain list operations, never with
mergelearn code, so they can serve as oracles. They return file contents
in a ``{path: text}`` dict rather than writing them, so that the runner can
keep the file system's time out of its set-up figure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from mergelearn import (
    Concat,
    Condition,
    Predicate,
    Program,
    Remove,
    Select,
    Selection,
    build_pattern_dictionary,
    parse_conflict_file,
    run_program,
)

# --- the criterion-3 recipe -------------------------------------------------

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
OUTSIDE_BEFORE = ("// Copyright 2020 The Sample Authors.", "")
OUTSIDE_AFTER = ("", "namespace sample {", "void Run() {}", "}  // namespace sample")

# The pattern names a Pattern selection may address, in the learner's order.
PATTERN_KEYS = (
    "DuplicateMainFork",
    "DuplicateMainOutside",
    "DuplicateForkOutside",
    "MainSpecific",
    "ForkSpecific",
    "Dependency",
    "Rename",
)
MAX_OUTPUT_NODES = 10
MAX_DEPTH = 3


def marker_text(fork_lines, main_lines, before=OUTSIDE_BEFORE, after=OUTSIDE_AFTER) -> str:
    lines = [*before, "<<<<<<< fork", *fork_lines, "=======", *main_lines, ">>>>>>> main", *after]
    return "\n".join(lines) + "\n"


def _region_lines(rng, count, force_paths=()):
    lines = [f'#include "{p}"' for p in force_paths]
    while len(lines) < count:
        roll = rng.random()
        if roll < 0.12:
            lines.append(f"{rng.choice(MACRO_NAMES)}({rng.choice(IDENTS)}, {rng.choice(IDENTS)}) {{")
        elif roll < 0.22:
            lines.append(rng.choice(RAW_LINES))
        else:
            lines.append(f'#include "{rng.choice(PATH_POOL)}"')
    rng.shuffle(lines)
    return lines


def draw_conflict(rng, max_nodes=3, force_paths=()):
    """A random single-chunk conflict, built through the real parser."""
    fork = _region_lines(rng, rng.randint(1, max_nodes), force_paths)
    main = _region_lines(rng, rng.randint(1, max_nodes), force_paths)
    return parse_conflict_file(marker_text(fork, main), "src/generated.cc")[0]


def selection_space(conflict, pdict) -> list[Selection]:
    """The selections the learner draws on for this input.

    Mirrors the learner's space by definition rather than by calling it, so
    a change to the learner cannot shift the generated workload.
    """
    out = [Selection("Main"), Selection("Fork")]
    out += [Selection("MainByIndex", k=k) for k in range(len(conflict.main_nodes))]
    out += [Selection("ForkByIndex", k=k) for k in range(len(conflict.fork_nodes))]
    for tag, region in (("MainByPath", conflict.main_nodes), ("ForkByPath", conflict.fork_nodes)):
        paths = sorted({n.include_path for n in region if n.include_path is not None})
        out += [Selection(tag, path=p) for p in paths]
    out += [Selection("Pattern", key=key) for key in PATTERN_KEYS if pdict.entry(key)]
    return out


def _true_predicates(pdict) -> list[Predicate]:
    preds = [Predicate(key) for key in PATTERN_KEYS if pdict.entry(key)]
    preds += [Predicate("FrequentPattern", path=p) for p in sorted(pdict.frequent)]
    return preds


def _random_transformation(rng, selections, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.35:
        return Concat(_random_transformation(rng, selections, depth - 1),
                      _random_transformation(rng, selections, depth - 1))
    if roll < 0.65:
        return Remove(Selection(rng.choice(("Main", "Fork"))), rng.choice(selections))
    return Select(rng.choice(selections))


def draw_program(rng, conflict, depth=MAX_DEPTH, attempts=30):
    """A random program whose guard holds and whose evaluation succeeds on
    the conflict, with its output; None when no attempt lands."""
    pdict = build_pattern_dictionary(conflict)
    preds = _true_predicates(pdict)
    if not preds:
        return None
    selections = selection_space(conflict, pdict)
    for _ in range(attempts):
        guard = rng.sample(preds, rng.randint(1, min(3, len(preds))))
        program = Program(Condition(tuple(guard)), _random_transformation(rng, selections, depth))
        result = run_program(program, conflict)
        if result.is_resolved:
            return program, result.nodes
    return None


def learn_single_specs(rng, count):
    """``count`` one-example specs drawn with the criterion-3 recipe.

    Slow and truncating specs are kept: the natural mix is the workload.
    """
    specs = []
    while len(specs) < count:
        conflict = draw_conflict(rng)
        drawn = draw_program(rng, conflict)
        if drawn is not None and len(drawn[1]) <= MAX_OUTPUT_NODES:
            specs.append(((conflict, drawn[1]),))
    return specs


def _selections_of(t):
    if isinstance(t, Select):
        return [t.selection]
    if isinstance(t, Remove):
        return [t.source, t.removed]
    return _selections_of(t.left) + _selections_of(t.right)


def _arms_non_empty(program, t, conflict, is_root) -> bool:
    """No Concat arm evaluates to empty, except the root's right arm."""
    if not isinstance(t, Concat):
        return True
    left = run_program(Program(program.condition, t.left), conflict)
    right = run_program(Program(program.condition, t.right), conflict)
    if not left.nodes or (not right.nodes and not is_root):
        return False
    return (_arms_non_empty(program, t.left, conflict, False)
            and _arms_non_empty(program, t.right, conflict, False))


def in_learner_space(program, conflict) -> bool:
    """Whether the learner can express ``program`` on this example.

    Every selection must be one the learner enumerates for the example
    (a by-path selection whose path is absent is not), and the program must
    be in the learner's normal form.
    """
    space = set(selection_space(conflict, build_pattern_dictionary(conflict)))
    if any(sel not in space for sel in _selections_of(program.transformation)):
        return False
    return _arms_non_empty(program, program.transformation, conflict, True)


def _paths_of(program):
    paths = {p.path for p in program.condition.predicates if p.path is not None}
    paths |= {s.path for s in _selections_of(program.transformation) if s.path is not None}
    return tuple(sorted(paths))


def learn_multi_specs(rng, count, attempts=40):
    """``count`` specs of 2-3 examples produced by one generating program.

    An example is kept only when the generating program lies inside the
    learner's space on it, so that a spec without a learned program points
    at the learner, not at the generator.
    """
    specs = []
    while len(specs) < count:
        first = draw_conflict(rng)
        drawn = draw_program(rng, first)
        if drawn is None:
            continue
        program, output = drawn
        if len(output) > MAX_OUTPUT_NODES or not in_learner_space(program, first):
            continue
        want = rng.choice((2, 3))
        paths = _paths_of(program)
        cases = [(first, output)]
        for _ in range(attempts):
            if len(cases) == want:
                break
            conflict = draw_conflict(rng, force_paths=paths)
            result = run_program(program, conflict)
            if (result.is_resolved and len(result.nodes) <= MAX_OUTPUT_NODES
                    and in_learner_space(program, conflict)):
                cases.append((conflict, result.nodes))
        if len(cases) == want:
            specs.append(tuple(cases))
    return specs


# --- programs replayed by apply and eval -----------------------------------
#
# Each program is given as DSL JSON together with a plain-Python model of
# what it does, which is the oracle for apply-large and eval-corpus. All
# region lines are generated in canonical form (single spaces, quoted
# includes), so a node renders back to exactly the line it came from.

FORK_KEYWORDS = ("ANONYMOUS", "DISABLED")
TRIGGER = "fail/trigger.h"


def include(path: str) -> str:
    return f'#include "{path}"'


def _frequent(path):
    return [{"tag": "FrequentPattern", "path": path}]


def _has_include(path):
    line = include(path)
    return lambda main, fork: line in main or line in fork


def _remove_each(source, removed):
    out = list(source)
    for line in removed:
        if line not in out:
            return None
        out.remove(line)
    return out


def _keyword_line(line):
    return any(kw in line for kw in FORK_KEYWORDS)


@dataclass(frozen=True)
class ReplayProgram:
    name: str
    json: dict
    guard: object  # (main, fork) -> bool
    apply: object  # (main, fork) -> list of lines, or None when evaluation fails


def _program(name, condition, transform, guard, apply):
    return ReplayProgram(name, {"dslv": 1, "apply": {"condition": condition, "transform": transform}},
                         guard, apply)


_SEL_MAIN = {"tag": "Main"}
_SEL_FORK = {"tag": "Fork"}

# Order matters: three guards that never hold come first, then a program
# that fails with RemoveMismatch wherever its guard holds, then the four
# programs that resolve chunks.
REPLAY_PROGRAMS = (
    *(
        _program(f"miss-{i}", _frequent(f"gone/legacy_{i}.h"), {"select": _SEL_MAIN},
                 _has_include(f"gone/legacy_{i}.h"), lambda main, fork: list(main))
        for i in range(3)
    ),
    _program("fail", _frequent(TRIGGER), {"remove": [_SEL_MAIN, _SEL_FORK]},
             _has_include(TRIGGER), lambda main, fork: _remove_each(main, fork)),
    _program("concat", _frequent("res/concat.h"),
             {"concat": [{"select": _SEL_MAIN}, {"select": _SEL_FORK}]},
             _has_include("res/concat.h"), lambda main, fork: list(main) + list(fork)),
    _program("fork", _frequent("res/fork.h"), {"select": _SEL_FORK},
             _has_include("res/fork.h"), lambda main, fork: list(fork)),
    _program("drop", _frequent("res/drop.h"),
             {"remove": [_SEL_FORK, {"tag": "ForkByPath", "path": "res/drop.h"}]},
             _has_include("res/drop.h"),
             lambda main, fork: [line for line in fork if line != include("res/drop.h")]),
    _program("keyword", [{"tag": "ForkSpecific"}],
             {"remove": [_SEL_FORK, {"tag": "Pattern", "key": "ForkSpecific"}]},
             lambda main, fork: any(_keyword_line(line) for line in fork),
             lambda main, fork: [line for line in fork if not _keyword_line(line)]),
)
RESOLVING = ("concat", "fork", "drop", "keyword")


def expected_resolution(main, fork):
    """The lines of the first program that resolves the chunk, or None."""
    for program in REPLAY_PROGRAMS:
        if program.guard(main, fork):
            out = program.apply(main, fork)
            if out is not None:
                return out
    return None


_NEUTRAL_PATHS = tuple(f"{d}/{n}.h" for d in ("base", "ui", "net", "content")
                       for n in ("util", "types", "logging", "strings", "files", "metrics"))
_NEUTRAL_MACROS = ("DEFINE_FLAG(kFeature, true) {", "RUN_SUITE(Check, Scan) {", "DCHECK(ready_) {")
_NEUTRAL_RAW = ("return;", "int counter = 0;", "// keep in sync")


def _neutral_line(rng):
    roll = rng.random()
    if roll < 0.7:
        return include(rng.choice(_NEUTRAL_PATHS))
    if roll < 0.85:
        return rng.choice(_NEUTRAL_MACROS)
    return rng.choice(_NEUTRAL_RAW)


def chunk_regions(rng, kind, max_neutral=3):
    """(main, fork) lines of a chunk that the replay programs treat as
    ``kind``: one of RESOLVING, "fail-<resolving kind>" or "none"."""
    main = [_neutral_line(rng) for _ in range(rng.randint(1, max_neutral))]
    fork = [_neutral_line(rng) for _ in range(rng.randint(1, max_neutral))]
    if kind.startswith("fail-"):
        fork.insert(rng.randrange(len(fork) + 1), include(TRIGGER))
        kind = kind[len("fail-"):]
    if kind in ("concat", "fork"):
        side = rng.choice((main, fork))
        side.insert(rng.randrange(len(side) + 1), include(f"res/{kind}.h"))
    elif kind == "drop":
        fork.insert(rng.randrange(len(fork) + 1), include("res/drop.h"))
    elif kind == "keyword":
        word = rng.choice(FORK_KEYWORDS)
        line = rng.choice((include(f"ui/{word.lower()}_{word}_mode.h"), f"RUN_SUITE(Check, {word}_Scan) {{"))
        fork.insert(rng.randrange(len(fork) + 1), line)
    return main, fork


def _block(main, fork, ours_first=False):
    first, second = (main, fork) if ours_first else (fork, main)
    return ["<<<<<<< HEAD", *first, "=======", *second, ">>>>>>> branch"]


def program_files(directory: Path, files: dict) -> list[Path]:
    """Add one JSON file per replay program to ``files``; returns their paths."""
    paths = []
    for i, program in enumerate(REPLAY_PROGRAMS):
        path = directory / f"{i:02d}-{program.name}.json"
        files[path] = json.dumps(program.json, indent=2) + "\n"
        paths.append(path)
    return paths


# --- apply-large ------------------------------------------------------------

APPLY_CHUNK_KINDS = (
    ("none", 1), ("fail-concat", 1), ("fail-drop", 1),
    ("concat", 2), ("fork", 2), ("drop", 1), ("keyword", 2),
)


@dataclass
class ApplyFile:
    path: Path
    expected: str
    chunks: int
    suggested: int


def _outside_lines(rng, count, prefix):
    lines = []
    for i in range(count):
        roll = rng.random()
        if roll < 0.08:
            lines.append(include(f"{prefix}/dep_{i}.h"))
        elif roll < 0.18:
            lines.append("")
        elif roll < 0.3:
            lines.append(f"  // step {i} of {prefix}")
        else:
            lines.append(f"  total_{i} += Compute{prefix.capitalize()}({i});")
    return lines


def apply_file(rng, path: Path, outside_lines: int, files: dict) -> ApplyFile:
    """One large conflicted file, added to ``files``: outside text split
    into gaps around chunks of every kind in APPLY_CHUNK_KINDS, shuffled."""
    kinds = [kind for kind, n in APPLY_CHUNK_KINDS for _ in range(n)]
    rng.shuffle(kinds)
    outside = _outside_lines(rng, outside_lines, path.stem.replace("-", "_"))
    cuts = sorted(rng.sample(range(1, outside_lines), len(kinds)))
    text, expected = [], []
    suggested = 0
    start = 0
    for kind, cut in zip(kinds, cuts):
        text += outside[start:cut]
        expected += outside[start:cut]
        main, fork = chunk_regions(rng, kind)
        block = _block(main, fork)
        text += block
        resolved = expected_resolution(main, fork)
        if resolved is None:
            expected += block
        else:
            expected += resolved
            suggested += 1
        start = cut
    text += outside[start:]
    expected += outside[start:]
    files[path] = "\n".join(text) + "\n"
    return ApplyFile(path, "\n".join(expected) + "\n", len(kinds), suggested)


# --- eval-corpus ------------------------------------------------------------

LABELS = ("AFSC", "CH", "Concat", "DDC", "FB", "LC", "RD", "Rename", "SR", "Others", None)
FILE_NAMES = ("browser_main.cc", "feature_list.h", "BUILD.gn", "DEPS", "scan.cc", "sample.mm")
EVAL_CHUNK_KINDS = ("none", "fail-fork", "fail-keyword", *RESOLVING, *RESOLVING)


@dataclass
class Expected:
    total: int = 0
    matched: int = 0
    mismatched: int = 0
    no_suggestion: int = 0

    def as_dict(self) -> dict:
        return {"total": self.total, "matched": self.matched, "mismatched": self.mismatched,
                "no_suggestion": self.no_suggestion}


@dataclass
class EvalRoot:
    path: Path
    expected: Expected = field(default_factory=Expected)


def _eval_case(rng, case_dir: Path, index: int, kinds: list[str], expected: Expected, files: dict) -> None:
    """One small conflicted file with a chunk of each kind in ``kinds``, its
    human resolution and metadata, added to ``files``; the outcome of every
    chunk is tallied into ``expected``."""
    n_chunks = len(kinds)
    # A pair of chunks with no text between them cannot be aligned.
    adjacent = n_chunks >= 2 and rng.random() < 0.15
    # An edited context line above a chunk cannot be anchored.
    edited = rng.randrange(n_chunks) if rng.random() < 0.1 else None
    ours_first = rng.random() < 0.2
    conflict, resolved = [], []
    region_paths = set()
    line_no = 0

    def context(count):
        nonlocal line_no
        lines = [f"  value_{index}_{line_no + i} = Step({line_no + i});" for i in range(count)]
        line_no += count
        return lines

    head = context(rng.randint(2, 5))
    conflict += head
    resolved += head
    for c in range(n_chunks):
        if c > 0 and not (adjacent and c == 1):
            gap = context(rng.randint(2, 4))
            conflict += gap
            resolved += gap
        if edited == c and conflict[-1].startswith("  value_"):
            resolved[-1] += "  // edited"
            usable = False
        else:
            usable = not (adjacent and c in (0, 1))
        kind = kinds[c]
        main, fork = chunk_regions(rng, kind, max_neutral=2)
        region_paths |= {line[len('#include "'):-1] for line in main + fork if line.startswith("#include")}
        conflict += _block(main, fork, ours_first)
        suggestion = expected_resolution(main, fork)
        if suggestion is not None and rng.random() < 0.3:
            human = suggestion + [include(f"human/extra_{index}_{c}.h")]
            outcome = "mismatched"
        elif suggestion is not None:
            human = suggestion
            outcome = "matched"
        else:
            human = list(fork)
            outcome = "no_suggestion"
        resolved += human
        if usable:
            expected.total += 1
            setattr(expected, outcome, getattr(expected, outcome) + 1)
    tail = context(rng.randint(2, 5))
    conflict += tail
    resolved += tail

    newline = "\r\n" if rng.random() < 0.15 else "\n"
    files[case_dir / "conflict.txt"] = newline.join(conflict) + newline
    files[case_dir / "resolved.txt"] = "\n".join(resolved) + "\n"
    meta = {"file_path": f"src/{index}/{rng.choice(FILE_NAMES)}"}
    label = rng.choice(LABELS)
    if label is not None:
        meta["label"] = label
    if ours_first:
        meta["side_order"] = "ours-first"
    files[case_dir / "meta.json"] = json.dumps(meta)
    if rng.random() < 0.25 and region_paths:
        for path in sorted(region_paths):
            files[case_dir / "headers" / path.rsplit("/", 1)[-1]] = f"// {path}\n#pragma once\n"


def eval_root(rng, root: Path, merges: int, files_per_merge: int, first_index: int, files: dict) -> EvalRoot:
    """A corpus root of ``merges`` merges with ``files_per_merge`` files each.

    Its files have 1, 2, 3 and 4 chunks in turn, shuffled, and the chunks'
    kinds are dealt from a shuffled deck holding each of EVAL_CHUNK_KINDS
    equally often, rather than drawn for each file and chunk: the mix is
    the same, but every root has about the same chunks, so the median cost
    of a root does not hang on how the draws fell.
    """
    out = EvalRoot(root)
    counts = [1 + i % 4 for i in range(merges * files_per_merge)]
    rng.shuffle(counts)
    deck = list(EVAL_CHUNK_KINDS) * -(-sum(counts) // len(EVAL_CHUNK_KINDS))
    rng.shuffle(deck)
    index = first_index
    for m in range(merges):
        for f in range(files_per_merge):
            n = counts[index - first_index]
            kinds, deck = deck[:n], deck[n:]
            _eval_case(rng, root / f"merge-{m:03d}" / f"case-{f:02d}", index, kinds, out.expected, files)
            index += 1
    return out
