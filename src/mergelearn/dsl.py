"""The resolution DSL: AST, pattern dictionary, evaluation and serialization.

A program is a guarded transformation ``Apply(condition, transformation)``.
The condition is a conjunction of predicates over a conflict; the
transformation concatenates and removes node selections from the two
regions. A conflict's pattern dictionary is its one evaluation context:
a mapping from each pattern name with a non-empty match to the nodes it
matched, holding the chunk it was built for, so every evaluator takes the
dictionary alone.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields

from .conflicts import INCLUDE, MACRO, ConflictInput, Node, match_index, match_key

PREDICATE_TAGS = (
    "DuplicateMainFork",
    "DuplicateMainOutside",
    "DuplicateForkOutside",
    "MainSpecific",
    "ForkSpecific",
    "Dependency",
    "Rename",
    "FrequentPattern",
)

# Pattern selections address the parameterless predicates only; the
# per-path FrequentPattern entries back predicate evaluation alone.
PATTERN_KEYS = PREDICATE_TAGS[:-1]

SELECTION_TAGS = (
    "Main",
    "Fork",
    "MainByIndex",
    "ForkByIndex",
    "MainByPath",
    "ForkByPath",
    "Pattern",
)

DSL_VERSION = 1


class EvaluationFailed(Exception):
    """A selection or transformation cannot be evaluated on this input."""


class RemoveMismatch(EvaluationFailed):
    """Remove was asked to delete nodes absent from its source."""


class ParseError(ValueError):
    """Program text could not be deserialized."""


@dataclass(frozen=True, slots=True)
class Predicate:
    tag: str
    path: str | None = None

    def __post_init__(self):
        if self.tag not in PREDICATE_TAGS:
            raise ValueError(f"unknown predicate tag {self.tag!r}")
        if self.path is not None and not isinstance(self.path, str):
            raise TypeError(f"path literal must be a string, got {type(self.path).__name__}")
        if (self.tag == "FrequentPattern") != (self.path is not None):
            raise ValueError("path literal is required exactly for FrequentPattern")
        if self.path == "":
            raise ValueError("FrequentPattern path must be non-empty")


@dataclass(frozen=True, slots=True)
class Condition:
    predicates: tuple[Predicate, ...]

    def __post_init__(self):
        if not self.predicates:
            raise ValueError("condition needs at least one predicate")
        if len(set(self.predicates)) != len(self.predicates):
            raise ValueError("duplicate predicates in condition")


@dataclass(frozen=True, slots=True)
class Selection:
    tag: str
    k: int | None = None
    path: str | None = None
    key: str | None = None

    def __post_init__(self):
        if self.tag not in SELECTION_TAGS:
            raise ValueError(f"unknown selection tag {self.tag!r}")
        wants_k = self.tag in ("MainByIndex", "ForkByIndex")
        wants_path = self.tag in ("MainByPath", "ForkByPath")
        wants_key = self.tag == "Pattern"
        if wants_k != (self.k is not None):
            raise ValueError(f"{self.tag} takes an index literal only")
        if wants_path != (self.path is not None):
            raise ValueError(f"{self.tag} takes a path literal only")
        if wants_key != (self.key is not None):
            raise ValueError(f"{self.tag} takes a key literal only")
        if self.k is not None and (isinstance(self.k, bool) or not isinstance(self.k, int)):
            raise TypeError(f"index literal must be an integer, got {type(self.k).__name__}")
        for name in ("path", "key"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise TypeError(f"{name} literal must be a string, got {type(value).__name__}")
        if self.k is not None and self.k < 0:
            raise ValueError("selection index must be non-negative")
        if self.path == "":
            raise ValueError(f"{self.tag} path must be non-empty")
        if self.key is not None and self.key not in PREDICATE_TAGS:
            raise ValueError(f"pattern key must be a predicate name, got {self.key!r}")


@dataclass(frozen=True, slots=True)
class Select:
    selection: Selection


@dataclass(frozen=True, slots=True)
class Remove:
    source: Selection
    removed: Selection


@dataclass(frozen=True, slots=True)
class Concat:
    left: "Transformation"
    right: "Transformation"


Transformation = Select | Remove | Concat


@dataclass(frozen=True, slots=True)
class Program:
    condition: Condition
    transformation: Transformation


@dataclass(frozen=True)
class SynthConfig:
    """What a user sets: ``learn --max-depth``, ``MERGELEARN_KEYWORDS`` and ``eval --order-insensitive-includes``."""

    max_concat_depth: int = 3
    fork_keywords: tuple[str, ...] = ("ANONYMOUS", "DISABLED")
    main_keywords: tuple[str, ...] = ()
    order_insensitive_includes: bool = False

    def __post_init__(self):
        if self.max_concat_depth < 1:
            raise ValueError("max_concat_depth must be >= 1")


DEFAULT_CONFIG = SynthConfig()


def _headers_equal(conflict: ConflictInput, path_a: str, path_b: str) -> bool:
    # Content equality is only checkable when the corpus ships both headers.
    contents = conflict.header_contents
    if path_a in contents and path_b in contents:
        return contents[path_a] == contents[path_b]
    return True


def _duplicate_nodes(conflict, nodes, others):
    """The nodes whose match key is in ``others``, a ``match_index``; an
    include also needs a same-named include whose header content agrees."""
    out = []
    for node in nodes:
        matches = others.get(match_key(node), ())
        if node.kind == INCLUDE:
            if any(_headers_equal(conflict, node.include_path, other.include_path) for other in matches):
                out.append(node)
        elif matches:
            out.append(node)
    return tuple(out)


def _keyword_nodes(nodes, keywords):
    return tuple(n for n in nodes if not n.is_blank and any(kw in n.raw_text for kw in keywords))


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]{2,}")


def _rename_nodes(conflict: ConflictInput) -> tuple[Node, ...]:
    """Main-side macros paired with a differing fork macro via a shared identifier."""
    out: list[Node] = []
    fork_macros = [n for n in conflict.fork_nodes if n.kind == MACRO]
    for m in conflict.main_nodes:
        if m.kind != MACRO:
            continue
        idents = set(_IDENT_RE.findall(m.children[1]))
        for f in fork_macros:
            if m == f:
                continue
            if idents & set(_IDENT_RE.findall(f.children[1])):
                out.append(m)
                break
    return tuple(out)


def _dependency_nodes(conflict: ConflictInput) -> tuple[Node, ...]:
    """Includes whose stem is used in a sibling chunk but nowhere outside."""
    users = conflict.context.stem_users
    return tuple(
        n for n in conflict.region_nodes()
        if n.kind == INCLUDE and any(j != conflict.index for j in users.get(n.include_path, ()))
    )


_PATTERN_ENTRIES = {
    "DuplicateMainFork": lambda c, config: _duplicate_nodes(c, c.main_nodes, match_index(c.fork_nodes)),
    "DuplicateMainOutside": lambda c, config: _duplicate_nodes(c, c.main_nodes, c.context.outside_index),
    "DuplicateForkOutside": lambda c, config: _duplicate_nodes(c, c.fork_nodes, c.context.outside_index),
    "MainSpecific": lambda c, config: _keyword_nodes(c.main_nodes, config.main_keywords),
    "ForkSpecific": lambda c, config: _keyword_nodes(c.fork_nodes, config.fork_keywords),
    "Dependency": lambda c, config: _dependency_nodes(c),
    "Rename": lambda c, config: _rename_nodes(c),
}


class PatternDictionary(Mapping):
    """One conflict's pattern dictionary, the context every predicate and
    selection is evaluated in: it holds its chunk, ``conflict``.

    It maps each pattern name whose match is non-empty to the nodes it
    matched, so a predicate holds exactly when its entry exists. Each entry
    is computed on first lookup and kept, so replaying a program computes
    only the patterns it reads; iterating or comparing computes them all.
    ``frequent`` maps each include path of the regions to its nodes.
    """

    __slots__ = ("conflict", "frequent", "_config", "_memo")

    def __init__(self, conflict: ConflictInput, config: SynthConfig = DEFAULT_CONFIG):
        frequent: dict[str, tuple[Node, ...]] = {}
        for node in conflict.region_nodes():
            if node.kind == INCLUDE:
                path = node.include_path
                frequent[path] = frequent.get(path, ()) + (node,)
        self.conflict, self.frequent, self._config, self._memo = conflict, frequent, config, {}

    def entry(self, key: str) -> tuple[Node, ...]:
        """The nodes ``key`` matched; () when none did or it names no pattern."""
        memo = self._memo
        if key not in memo:
            compute = _PATTERN_ENTRIES.get(key)
            if compute is None:
                return ()
            memo[key] = compute(self.conflict, self._config)
        return memo[key]

    def __getitem__(self, key) -> tuple[Node, ...]:
        nodes = self.entry(key)
        if not nodes:
            raise KeyError(key)
        return nodes

    def __iter__(self):
        return iter([key for key in _PATTERN_ENTRIES if self.entry(key)])

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return repr(dict(self))


def build_pattern_dictionary(conflict: ConflictInput, config: SynthConfig = DEFAULT_CONFIG) -> PatternDictionary:
    """The pattern dictionary of one conflict; its pattern entries are computed on first lookup."""
    return PatternDictionary(conflict, config)


def eval_condition(condition: Condition, pdict: PatternDictionary) -> bool:
    """Whether every predicate of the guard holds: a FrequentPattern when
    the regions include its path, any other when its entry is non-empty."""
    frequent, entry = pdict.frequent, pdict.entry
    for predicate in condition.predicates:
        path = predicate.path
        if path is not None:
            if path not in frequent:
                return False
        elif not entry(predicate.tag):
            return False
    return True


def eval_predicate(predicate: Predicate, pdict: PatternDictionary) -> bool:
    """Whether one predicate holds: the guard of that predicate alone."""
    return eval_condition(Condition((predicate,)), pdict)


def eval_selection(selection: Selection, pdict: PatternDictionary) -> tuple[Node, ...]:
    tag, conflict = selection.tag, pdict.conflict
    if tag == "Main":
        return conflict.main_nodes
    if tag == "Fork":
        return conflict.fork_nodes
    if tag in ("MainByIndex", "ForkByIndex"):
        region = conflict.main_nodes if tag == "MainByIndex" else conflict.fork_nodes
        if selection.k >= len(region):
            raise EvaluationFailed(f"IndexOutOfRange: {tag}({selection.k}) on a {len(region)}-node region")
        return (region[selection.k],)
    if tag in ("MainByPath", "ForkByPath"):
        region = conflict.main_nodes if tag == "MainByPath" else conflict.fork_nodes
        return tuple(n for n in region if n.include_path == selection.path)
    return pdict.entry(selection.key)


def remove_nodes(source: tuple[Node, ...], removed: tuple[Node, ...]) -> tuple[Node, ...] | None:
    """Delete the first occurrence of each removed node; None on a miss."""
    out = list(source)
    for node in removed:
        try:
            out.remove(node)
        except ValueError:
            return None
    return tuple(out)


def eval_transformation(t: Transformation, pdict: PatternDictionary) -> tuple[Node, ...]:
    if isinstance(t, Select):
        return eval_selection(t.selection, pdict)
    if isinstance(t, Remove):
        source = eval_selection(t.source, pdict)
        removed = eval_selection(t.removed, pdict)
        result = remove_nodes(source, removed)
        if result is None:
            raise RemoveMismatch(f"Remove: {len(removed)} node(s) not all present in source")
        return result
    return eval_transformation(t.left, pdict) + eval_transformation(t.right, pdict)


RESOLVED = "resolved"
NO_SUGGESTION = "no-suggestion"
FAILED = "failed"


@dataclass(frozen=True)
class Suggestion:
    kind: str
    nodes: tuple[Node, ...] | None = None
    error: str | None = None

    @classmethod
    def resolved(cls, nodes) -> "Suggestion":
        return cls(RESOLVED, nodes=tuple(nodes))

    @classmethod
    def none(cls) -> "Suggestion":
        return _NO_SUGGESTION

    @classmethod
    def failed(cls, error: str) -> "Suggestion":
        return cls(FAILED, error=error)

    @property
    def is_resolved(self) -> bool:
        return self.kind == RESOLVED


# Every guard miss returns this one value; a Suggestion is immutable.
_NO_SUGGESTION = Suggestion(NO_SUGGESTION)


def run_program(program: Program, conflict: ConflictInput, config: SynthConfig = DEFAULT_CONFIG,
                pdict: PatternDictionary | None = None) -> Suggestion:
    """Evaluate a program on a conflict; never raises.

    A false guard yields NoSuggestion; evaluation errors yield Failed.
    ``pdict``, when given, is the conflict's dictionary under ``config``,
    built once and shared by every program tried on the conflict.
    """
    if pdict is None:
        pdict = build_pattern_dictionary(conflict, config)
    if not eval_condition(program.condition, pdict):
        return _NO_SUGGESTION
    try:
        return Suggestion.resolved(eval_transformation(program.transformation, pdict))
    except EvaluationFailed as exc:
        return Suggestion.failed(str(exc))


def first_resolution(programs, conflict: ConflictInput, config: SynthConfig = DEFAULT_CONFIG):
    """Replay programs in order on one conflict, sharing its dictionary.

    Returns ``(index, nodes, failures)``: the first program whose suggestion
    is Resolved and its nodes, or ``(None, None, failures)`` when none is.
    ``failures`` are the ``(index, error)`` of the failed programs tried
    before it; guard misses fall through silently.

    The call shape is a contract with the benchmark's tracer
    (``bench/tracing.py``), which wraps ``build_pattern_dictionary``,
    ``run_program`` and ``program_from_json`` by name: one dictionary build
    per chunk, one ``run_program`` call per program tried, each returning a
    ``Suggestion``. Its traced self-check counts the Resolved suggestions,
    so a replay loop that inlined ``run_program`` would fail it.
    """
    pdict = build_pattern_dictionary(conflict, config)
    failures = []
    for index, program in enumerate(programs):
        suggestion = run_program(program, conflict, config, pdict)
        if suggestion.is_resolved:
            return index, suggestion.nodes, failures
        if suggestion.kind == FAILED:
            failures.append((index, suggestion.error))
    return None, None, failures


# --- serialization ----------------------------------------------------------

def _literal_to_json(literal: Predicate | Selection) -> dict:
    """A Predicate's or Selection's JSON object: its set fields, in
    declaration order; the mirror of ``_literal_node``."""
    return {f.name: value for f in fields(literal) if (value := getattr(literal, f.name)) is not None}


def _transformation_to_json(t: Transformation) -> dict:
    if isinstance(t, Concat):
        return {"concat": [_transformation_to_json(t.left), _transformation_to_json(t.right)]}
    if isinstance(t, Remove):
        return {"remove": [_literal_to_json(t.source), _literal_to_json(t.removed)]}
    return {"select": _literal_to_json(t.selection)}


def program_to_json(program: Program) -> dict:
    return {
        "dslv": DSL_VERSION,
        "apply": {
            "condition": [_literal_to_json(p) for p in program.condition.predicates],
            "transform": _transformation_to_json(program.transformation),
        },
    }


def serialize_program(program: Program) -> str:
    """Canonical JSON text; field order is fixed, so output is deterministic."""
    return json.dumps(program_to_json(program), indent=2) + "\n"


def _expect_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object, got {type(value).__name__}")
    return value


# Each literal class's field names, in declaration order, and as a set.
_FIELD_NAMES = {cls: tuple(f.name for f in fields(cls)) for cls in (Predicate, Selection)}
_FIELD_SETS = {cls: frozenset(names) for cls, names in _FIELD_NAMES.items()}


def _literal_node(cls, obj, where: str, field: str = "", index: int | None = None):
    """A Predicate or Selection from its JSON object; any fault is a
    ParseError at ``where + field``, then ``[index]`` when an index is
    given. The path is formatted only for a fault."""
    names = _FIELD_NAMES[cls]
    if isinstance(obj, dict) and _FIELD_SETS[cls].issuperset(obj):
        try:
            return cls(*map(obj.get, names))
        except (ValueError, TypeError) as exc:
            raise ParseError(f"{_path(where, field, index)}: {exc}") from exc
    where = _path(where, field, index)
    obj = _expect_dict(obj, where)
    raise ParseError(f"{where}: unexpected fields {sorted(obj.keys() - names)}")


def _path(where: str, field: str, index: int | None) -> str:
    return f"{where}{field}" if index is None else f"{where}{field}[{index}]"


def _transformation_from_json(obj, where: str) -> Transformation:
    obj = _expect_dict(obj, where)
    if len(obj) != 1:
        raise ParseError(f"{where}: expected exactly one of concat/remove/select")
    (op, payload), = obj.items()
    if op == "concat":
        if not isinstance(payload, list) or len(payload) != 2:
            raise ParseError(f"{where}.concat: expected a pair")
        return Concat(
            _transformation_from_json(payload[0], f"{where}.concat[0]"),
            _transformation_from_json(payload[1], f"{where}.concat[1]"),
        )
    if op == "remove":
        if not isinstance(payload, list) or len(payload) != 2:
            raise ParseError(f"{where}.remove: expected a pair")
        return Remove(
            _literal_node(Selection, payload[0], where, ".remove", 0),
            _literal_node(Selection, payload[1], where, ".remove", 1),
        )
    if op == "select":
        return Select(_literal_node(Selection, payload, where, ".select"))
    raise ParseError(f"{where}: unknown operator {op!r}")


def program_from_json(obj: dict) -> Program:
    obj = _expect_dict(obj, "program")
    dslv = obj.get("dslv")
    if type(dslv) is not int or dslv != DSL_VERSION:
        raise ParseError(f"program: unsupported dslv {dslv!r}")
    apply_obj = _expect_dict(obj.get("apply"), "apply")
    preds = apply_obj.get("condition")
    if not isinstance(preds, list) or not preds:
        raise ParseError("apply.condition: expected a non-empty array")
    predicates = tuple([_literal_node(Predicate, p, "apply.condition", "", i) for i, p in enumerate(preds)])
    try:
        condition = Condition(predicates)
    except ValueError as exc:
        raise ParseError(f"apply.condition: {exc}") from exc
    return Program(condition, _transformation_from_json(apply_obj.get("transform"), "apply.transform"))


def _decode(text: str, build):
    """``build`` of the JSON value of ``text``; bad JSON or too deep a nesting is a ParseError."""
    try:
        return build(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at position {exc.pos}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("program JSON is nested too deeply") from None


def deserialize_program(text: str) -> Program:
    return _decode(text, program_from_json)


def _programs_from_json(data) -> list[Program]:
    if data == []:
        raise ParseError("expected a program or a non-empty array of programs")
    return [program_from_json(item) for item in (data if isinstance(data, list) else [data])]


def deserialize_programs(text: str) -> list[Program]:
    """The programs of a program file: one program or a non-empty array of them."""
    return _decode(text, _programs_from_json)


# --- features and scoring ---------------------------------------------------

def selections_in(t: Transformation) -> tuple[Selection, ...]:
    """Every selection of a transformation, left to right."""
    if isinstance(t, Select):
        return (t.selection,)
    if isinstance(t, Remove):
        return (t.source, t.removed)
    return selections_in(t.left) + selections_in(t.right)


def program_features(obj: Program | Transformation) -> dict:
    """Count the features of a program or bare transformation, for reports.

    Ranking does not read these counts; ``program_score`` is the cost model.
    """
    t, predicates = (obj.transformation, obj.condition.predicates) if isinstance(obj, Program) else (obj, ())
    sels = selections_in(t)
    index = sum(s.tag in ("MainByIndex", "ForkByIndex") for s in sels)
    paths = sum(s.tag in ("MainByPath", "ForkByPath") for s in sels) + sum(p.path is not None for p in predicates)
    return {
        # Every AST node of a transformation is an operator or a selection.
        "operators": program_size(t) - len(sels),
        "constants": index + paths,
        "index_selections": index,
        "pattern_selections": sum(s.tag == "Pattern" for s in sels),
        "branch_selections": sum(s.tag in ("Main", "Fork") for s in sels),
        "predicates": len(predicates),
    }


# The cost model's weights. Each is a multiple of 0.5, so every score is an
# exact float whatever the order of its additions.
W_OPERATORS = 1.0
W_CONSTANTS = 0.5
W_INDEX = 2.0
W_PATTERN = 1.5
W_BRANCH = 1.0


# A structural key is one flat string that sorts exactly as the nested tuple
# ``(tag, *arguments)`` it encodes, an argument being a literal or a child's
# tuple. Each literal is followed by "\x01" and each tuple is closed by
# "\x00", which sorts below "\x01", which sorts below every escaped
# character: a shorter literal or tuple sorts first, as in tuple order.
# _ESCAPE maps the three lowest characters to two-character codes above
# "\x01", keeping their order, so any literal, an include path holding a NUL
# too, encodes injectively.
_ESCAPE = str.maketrans({"\x00": "\x02\x02", "\x01": "\x02\x03", "\x02": "\x02\x04"})


def _literal(text: str) -> str:
    # Every character a literal must escape is unprintable.
    return text if text.isprintable() else text.translate(_ESCAPE)


def rank_entry(obj) -> tuple:
    """The rank entry ``(score, size, struct_key, obj, pattern_keys)`` of a
    program, condition, transformation or selection; entries sort by their
    first three fields. This one walk is the cost model (``program_score``),
    the AST size and the structural key, and the learner builds its
    transformations with the same constructor (``concat_entry``), so a
    learned entry equals this one exactly.

    The score is additive, lower is better: a selection costs its literals
    and earns its generality; Remove is an operator plus its selections;
    Concat is its arms plus an operator; a condition costs its path
    literals; a program is its transformation plus its condition plus
    ``W_PATTERN`` per Pattern selection whose key predicate the condition
    lacks. ``pattern_keys`` are the keys of a transformation's Pattern
    selections, duplicates included (a program's are its transformation's),
    or the set of a condition's predicate tags.

    The structural key is a ``str`` (see ``struct_key``): a node's tag, its
    literals and its children's keys, in the order of the serialized form.
    """
    if isinstance(obj, Selection):
        tag = obj.tag
        if tag in ("Main", "Fork"):
            return (-W_BRANCH, 1, f"{tag}\x01\x00", obj, ())
        if tag in ("MainByIndex", "ForkByIndex"):
            return (W_CONSTANTS + W_INDEX, 1, f"{tag}\x01{obj.k}\x01\x00", obj, ())
        if tag in ("MainByPath", "ForkByPath"):
            return (W_CONSTANTS, 1, f"{tag}\x01{_literal(obj.path)}\x01\x00", obj, ())
        return (-W_PATTERN, 1, f"{tag}\x01{obj.key}\x01\x00", obj, (obj.key,))
    if isinstance(obj, Select):
        selection = rank_entry(obj.selection)
        return (selection[0], 1, f"Select\x01{selection[2]}\x00", obj, selection[4])
    if isinstance(obj, Remove):
        source, removed = rank_entry(obj.source), rank_entry(obj.removed)
        return (W_OPERATORS + source[0] + removed[0], 3, f"Remove\x01{source[2]}{removed[2]}\x00", obj,
                source[4] + removed[4])
    if isinstance(obj, Concat):
        return concat_entry(rank_entry(obj.left), rank_entry(obj.right))
    if isinstance(obj, Condition):
        preds = obj.predicates
        keys = "".join(f"{p.tag}\x01\x00" if p.path is None else f"{p.tag}\x01{_literal(p.path)}\x01\x00"
                       for p in preds)
        return (W_CONSTANTS * sum(p.path is not None for p in preds), len(preds), f"And\x01{keys}\x00", obj,
                frozenset(p.tag for p in preds))
    if isinstance(obj, Program):
        guard, t = rank_entry(obj.condition), rank_entry(obj.transformation)
        uncredited = sum(key not in guard[4] for key in t[4])
        return (t[0] + guard[0] + W_PATTERN * uncredited, guard[1] + t[1], f"Apply\x01{guard[2]}{t[2]}\x00", obj,
                t[4])
    raise TypeError(f"no rank entry for {type(obj).__name__}")


def concat_entry(left: tuple, right: tuple) -> tuple:
    """The rank entry of ``Concat`` over two transformation entries; its
    structural key is ``"Concat\\x01" + left key + right key + "\\x00"``."""
    return (left[0] + right[0] + W_OPERATORS, left[1] + right[1] + 1, f"Concat\x01{left[2]}{right[2]}\x00",
            Concat(left[3], right[3]), left[4] + right[4])


def program_score(obj) -> float:
    """The cost model; lower is better. See ``rank_entry``."""
    return rank_entry(obj)[0]


def struct_key(obj) -> str:
    """Total, deterministic ordering key mirroring the serialized form.

    A flat string, one per distinct object, that sorts exactly as the
    nested tuple ``(tag, *arguments)`` would: ``Concat(Select(Main),
    Select(Fork))`` has the key of ``("Concat", ("Select", ("Main",)),
    ("Select", ("Fork",)))``, and a condition's is ``("And", *predicates)``
    with each predicate ``(tag,)`` or ``(tag, path)``. Comparing two keys is
    one string comparison, however deep the programs."""
    return rank_entry(obj)[2]


def program_size(obj) -> int:
    """Number of AST nodes: operators, selections and predicates."""
    return rank_entry(obj)[1]


def config_to_json(config: SynthConfig) -> dict:
    return {name: list(value) if isinstance(value, tuple) else value for name, value in asdict(config).items()}
