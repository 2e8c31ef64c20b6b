"""Tests for the DSL: pattern dictionary, evaluation, serialization, scoring."""

import copy
import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mergelearn.conflicts import ConflictedFile, parse_conflict_file, tokenize_nodes
from mergelearn.dsl import (
    DEFAULT_CONFIG,
    PATTERN_KEYS,
    PREDICATE_TAGS,
    SELECTION_TAGS,
    Concat,
    Condition,
    NO_SUGGESTION,
    EvaluationFailed,
    ParseError,
    Predicate,
    Program,
    Remove,
    RemoveMismatch,
    Select,
    Selection,
    Suggestion,
    SynthConfig,
    build_pattern_dictionary,
    deserialize_program,
    deserialize_programs,
    eval_condition,
    eval_predicate,
    eval_selection,
    eval_transformation,
    first_resolution,
    program_features,
    program_from_json,
    program_score,
    program_to_json,
    rank_entry,
    run_program,
    serialize_program,
)
from mergelearn.synth import RankedProgram, learn_condition

from conftest import (
    DUP_PROGRAM,
    FAILING_ERROR,
    FAILING_PROGRAM,
    FB_PROGRAM,
    deep_program_text,
    fig_chunk,
    gen_conflict,
    marker_text,
    reference_program_from_json,
)


def pdict_of(chunk, config=DEFAULT_CONFIG):
    return build_pattern_dictionary(chunk, config)


def test_dictionary_duplicate_main_fork(fig1a):
    pdict = pdict_of(fig1a)
    assert pdict["DuplicateMainFork"] == (fig1a.main_nodes[0],)
    assert fig1a.main_nodes[0].include_path == "ui/base/cursor/mojom/cursor_type.mojom-shared.h"


def test_dictionary_repr_shows_only_the_non_empty_entries(fig1a):
    # The entries are computed on lookup; the repr looks each one up and
    # shows those that hold nodes, as a dict would.
    assert repr(pdict_of(fig1a)) == repr({"DuplicateMainFork": (fig1a.main_nodes[0],)})
    (chunk,) = parse_conflict_file(marker_text(['#include "x/one.h"'], ['#include "y/two.h"']), "a.cc")
    assert repr(pdict_of(chunk)) == "{}"


def test_dictionary_rename_entry():
    text = marker_text(
        ["IN_PROC_BROWSER_TEST_P(V4, ANONYMOUS_DISABLED_PERMANENT(CheckResourceUrl, 20395305)) {"],
        ["IN_PROC_BROWSER_TEST_F(V4, CheckResourceUrl) {"],
    )
    (chunk,) = parse_conflict_file(text, "test.cc")
    pdict = pdict_of(chunk)
    assert pdict["Rename"] == (chunk.main_nodes[0],)


def test_dictionary_vacuous_case():
    text = marker_text(['#include "x/one.h"'], ['#include "y/two.h"'])
    (chunk,) = parse_conflict_file(text, "a.cc")
    assert pdict_of(chunk) == {}


def test_dictionary_fork_specific_keywords():
    text = marker_text(
        ["IN_PROC_BROWSER_TEST_F(V4, ANONYMOUS_DISABLED_PERMANENT(CheckUnwantedSoftwareUrl, 20395305)) {"],
        ["IN_PROC_BROWSER_TEST_F(V4, CheckUnwantedSoftwareUrl) {"],
    )
    (chunk,) = parse_conflict_file(text, "test.cc")
    pdict = pdict_of(chunk)
    assert pdict["ForkSpecific"] == chunk.fork_nodes
    assert "MainSpecific" not in pdict  # no main keywords configured


def test_dictionary_keywords_are_config():
    text = marker_text(["EDGE_ONLY(x) {"], ["UPSTREAM_ONLY(y) {"])
    (chunk,) = parse_conflict_file(text, "k.cc")
    config = SynthConfig(fork_keywords=("EDGE_ONLY",), main_keywords=("UPSTREAM_ONLY",))
    pdict = pdict_of(chunk, config)
    assert pdict["ForkSpecific"] == chunk.fork_nodes
    assert pdict["MainSpecific"] == chunk.main_nodes


def test_dictionary_duplicate_outside():
    text = "\n".join(
        [
            '#include "base/existing.h"',
            "<<<<<<< fork",
            '#include "other/existing.h"',
            "=======",
            '#include "base/fresh.h"',
            ">>>>>>> main",
        ]
    ) + "\n"
    (chunk,) = parse_conflict_file(text, "a.cc")
    pdict = pdict_of(chunk)
    assert pdict["DuplicateForkOutside"] == chunk.fork_nodes
    assert "DuplicateMainOutside" not in pdict


def test_dictionary_dependency_via_sibling():
    text = "\n".join(
        [
            "// top",
            "<<<<<<< fork",
            '#include "components/version_info/channel.h"',
            "=======",
            '#include "components/switches.h"',
            ">>>>>>> main",
            "// middle",
            "<<<<<<< fork",
            "ProcessChannel(channel);",
            "=======",
            "return;",
            ">>>>>>> main",
        ]
    ) + "\n"
    first, second = parse_conflict_file(text, "dep.cc")
    pdict = pdict_of(first)
    assert pdict["Dependency"] == (first.fork_nodes[0],)


def test_dictionary_header_contents_distinguish_same_name():
    text = marker_text(['#include "ui/a/cursor.h"'], ['#include "ui/b/cursor.h"'])
    (chunk,) = parse_conflict_file(text, "a.cc")
    assert pdict_of(chunk)["DuplicateMainFork"]
    headers = {"ui/a/cursor.h": "class A;", "ui/b/cursor.h": "class B;"}
    (chunk,) = ConflictedFile.parse(text, "a.cc", header_text=headers.get).chunks
    assert "DuplicateMainFork" not in pdict_of(chunk)


def test_eval_predicate_frequent_pattern(fig1c):
    pdict = pdict_of(fig1c)
    assert eval_predicate(Predicate("FrequentPattern", path="base/logging.h"), pdict)
    assert not eval_predicate(Predicate("DuplicateMainFork"), pdict)
    assert not eval_predicate(Predicate("FrequentPattern", path="missing/path.h"), pdict)


def test_eval_predicate_empty_regions_all_false():
    text = "\n".join(["<<<<<<< fork", "=======", ">>>>>>> main"]) + "\n"
    (chunk,) = parse_conflict_file(text, "a.cc")
    pdict = pdict_of(chunk)
    for tag in PATTERN_KEYS:
        assert not eval_predicate(Predicate(tag), pdict)


def test_eval_condition_conjunction(fig1a):
    pdict = pdict_of(fig1a)
    dup = Predicate("DuplicateMainFork")
    freq = Predicate("FrequentPattern", path="ui/base/anonymous_ui_base_features.h")
    missing = Predicate("Rename")
    assert eval_condition(Condition((dup, freq)), pdict)
    assert not eval_condition(Condition((dup, missing)), pdict)
    assert eval_condition(Condition((dup,)), pdict) == eval_predicate(dup, pdict)


def _conditions_on(chunk):
    """Conditions over the predicates that hold on ``chunk`` and some that do not."""
    paths = sorted(build_pattern_dictionary(chunk).frequent) + ["missing/path.h", "base/logging.h"]
    predicate = st.one_of(
        st.sampled_from([Predicate(tag) for tag in PATTERN_KEYS]),
        st.sampled_from(paths).map(lambda path: Predicate("FrequentPattern", path=path)),
    )
    return st.lists(predicate, min_size=1, max_size=4, unique=True).map(lambda ps: Condition(tuple(ps)))


_CONDITION_CHUNKS = st.one_of(
    st.sampled_from("abcd").map(fig_chunk),
    st.integers(0, 2**32).map(lambda seed: gen_conflict(random.Random(seed), max_nodes=4)),
)


@settings(max_examples=300)
@given(_CONDITION_CHUNKS, st.data())
def test_a_condition_holds_when_each_of_its_predicates_holds(chunk, data):
    condition = data.draw(_conditions_on(chunk))
    pdict = build_pattern_dictionary(chunk)
    assert eval_condition(condition, pdict) == all(eval_predicate(p, pdict) for p in condition.predicates)


def test_condition_learned_on_c_holds_on_d(fig1c, fig1d):
    condition = learn_condition([fig1c, fig1d])
    assert eval_condition(condition, pdict_of(fig1d))


def test_eval_selection_fork_by_path(fig1c):
    result = eval_selection(Selection("ForkByPath", path="base/logging.h"), pdict_of(fig1c))
    assert result == (fig1c.fork_nodes[0],)


def test_eval_selection_main_by_index(fig1c):
    result = eval_selection(Selection("MainByIndex", k=0), pdict_of(fig1c))
    assert result == (fig1c.main_nodes[0],)
    assert result[0].include_path == "base/notreached.h"


def test_eval_selection_pattern(fig1a):
    result = eval_selection(Selection("Pattern", key="DuplicateMainFork"), pdict_of(fig1a))
    assert result == (fig1a.main_nodes[0],)


def test_eval_selection_index_out_of_range(fig1c):
    with pytest.raises(EvaluationFailed, match="IndexOutOfRange"):
        eval_selection(Selection("MainByIndex", k=5), pdict_of(fig1c))


def test_eval_selection_by_path_no_match_is_empty(fig1c):
    assert eval_selection(Selection("MainByPath", path="no/such.h"), pdict_of(fig1c)) == ()


def test_eval_selection_frequent_pattern_key_is_empty(fig1a):
    # The per-path frequent entries back the predicate only; as a pattern
    # key the name selects nothing.
    sel = Selection("Pattern", key="FrequentPattern")
    assert eval_selection(sel, pdict_of(fig1a)) == ()


def test_eval_transformation_remove(fig1c):
    t = Remove(Selection("Fork"), Selection("ForkByPath", path="base/logging.h"))
    assert eval_transformation(t, pdict_of(fig1c)) == (fig1c.fork_nodes[1],)


def test_eval_transformation_self_removal(fig1c):
    t = Remove(Selection("Fork"), Selection("Fork"))
    assert eval_transformation(t, pdict_of(fig1c)) == ()


def test_eval_transformation_concat():
    text = marker_text(['#include "b/b.h"', '#include "c/c.h"'], ['#include "a/a.h"'])
    (chunk,) = parse_conflict_file(text, "x.cc")
    t = Concat(Select(Selection("Main")), Select(Selection("Fork")))
    result = eval_transformation(t, pdict_of(chunk))
    assert [n.include_path for n in result] == ["a/a.h", "b/b.h", "c/c.h"]


def test_eval_transformation_remove_mismatch(fig1c):
    t = Remove(Selection("Main"), Selection("Fork"))
    with pytest.raises(RemoveMismatch):
        eval_transformation(t, pdict_of(fig1c))


def test_run_program_fb_on_c(fig1c):
    result = run_program(FB_PROGRAM, fig1c)
    assert result.is_resolved
    assert [n.include_path for n in result.nodes] == [
        "base/notreached.h",
        "base/scoped_native_library.h",
    ]


def test_run_program_fb_on_d(fig1d):
    result = run_program(FB_PROGRAM, fig1d)
    assert result.is_resolved
    assert [n.include_path for n in result.nodes] == ["base/check_op.h", "base/command_line.h"]


def test_run_program_guard_refuses_on_a(fig1a):
    assert run_program(FB_PROGRAM, fig1a).kind == "no-suggestion"


def test_every_guard_miss_returns_the_one_shared_no_suggestion(fig1a, fig1c):
    miss = run_program(FB_PROGRAM, fig1a)
    assert miss.kind == NO_SUGGESTION and not miss.is_resolved and miss.nodes is None and miss.error is None
    fs_program = Program(Condition((Predicate("ForkSpecific"),)), Select(Selection("Fork")))
    assert run_program(fs_program, fig1c) is miss and Suggestion.none() is miss
    assert run_program(FB_PROGRAM, fig1c) is not miss


def test_run_program_dup_on_a(fig1a):
    result = run_program(DUP_PROGRAM, fig1a)
    assert result.is_resolved
    assert result.nodes == fig1a.fork_nodes


def test_run_program_failure_is_captured(fig1a):
    prog = Program(
        Condition((Predicate("DuplicateMainFork"),)),
        Select(Selection("MainByIndex", k=9)),
    )
    result = run_program(prog, fig1a)
    assert result.kind == "failed"
    assert "IndexOutOfRange" in result.error


def test_first_resolution_records_the_failures_before_the_program_that_fires(fig1a):
    programs = [FAILING_PROGRAM, FAILING_PROGRAM, DUP_PROGRAM, FAILING_PROGRAM]
    assert first_resolution(programs, fig1a) == (2, fig1a.fork_nodes, [(0, FAILING_ERROR), (1, FAILING_ERROR)])
    assert first_resolution([FAILING_PROGRAM], fig1a) == (None, None, [(0, FAILING_ERROR)])


def test_run_program_deterministic(fig1a):
    assert run_program(DUP_PROGRAM, fig1a) == run_program(DUP_PROGRAM, fig1a)


def test_run_program_resolves_only_when_guard_holds(fig1a, fig1c, fig1d):
    for program in (FB_PROGRAM, DUP_PROGRAM):
        for chunk in (fig1a, fig1c, fig1d):
            result = run_program(program, chunk)
            if result.is_resolved:
                assert eval_condition(program.condition, pdict_of(chunk))


def test_serialize_round_trip_worked_example():
    for program in (FB_PROGRAM, DUP_PROGRAM):
        assert deserialize_program(serialize_program(program)) == program


def test_deserialize_tolerates_metadata_block():
    obj = json.loads(serialize_program(FB_PROGRAM))
    obj["meta"] = {"score": 1.0}
    assert deserialize_program(json.dumps(obj)) == FB_PROGRAM


def test_serialize_is_deterministic():
    assert serialize_program(FB_PROGRAM) == serialize_program(FB_PROGRAM)


def test_deserialize_truncated_json_is_parse_error():
    text = serialize_program(FB_PROGRAM)[:40]
    with pytest.raises(ParseError):
        deserialize_program(text)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.update(dslv=2),
        lambda obj: obj["apply"].update(condition=[]),
        lambda obj: obj["apply"].update(transform={"select": {"tag": "Nope"}}),
        lambda obj: obj["apply"].update(transform={"select": {"tag": "MainByIndex"}}),
        lambda obj: obj["apply"].update(transform={"concat": [{"select": {"tag": "Main"}}]}),
        lambda obj: obj["apply"].update(condition=[{"tag": "Rename"}, {"tag": "Rename"}]),
        lambda obj: obj["apply"].update(condition=[{"tag": "Rename", "k": 3, "bogus": True}]),
        lambda obj: obj.update(dslv=True),
        lambda obj: obj["apply"].update(transform={"select": {"tag": "Main"}, "concat": []}),
        lambda obj: obj["apply"].update(transform={"swap": [{"tag": "Main"}, {"tag": "Fork"}]}),
    ],
)
def test_deserialize_rejects_malformed(mutate):
    obj = json.loads(serialize_program(FB_PROGRAM))
    mutate(obj)
    with pytest.raises(ParseError):
        deserialize_program(json.dumps(obj))


def test_selection_literal_validation():
    for build, message in [
        (lambda: Selection("Main", k=0), "takes an index literal only"),
        (lambda: Selection("MainByIndex"), "takes an index literal only"),
        (lambda: Selection("Pattern", key="NotAPredicate"), "must be a predicate name"),
        (lambda: Predicate("FrequentPattern"), "required exactly for FrequentPattern"),
        (lambda: Predicate("FrequentPattern", path=""), "path must be non-empty"),
        (lambda: Condition(()), "at least one predicate"),
        (lambda: Selection("MainByPath"), "takes a path literal only"),
        (lambda: Selection("Main", path="base/a.h"), "takes a path literal only"),
        (lambda: Selection("Pattern"), "takes a key literal only"),
        (lambda: Selection("Fork", key="Rename"), "takes a key literal only"),
        (lambda: Selection("MainByIndex", k=-1), "must be non-negative"),
        (lambda: Selection("MainByPath", path=""), "MainByPath path must be non-empty"),
        (lambda: Selection("ForkByPath", path=""), "ForkByPath path must be non-empty"),
        (lambda: SynthConfig(max_concat_depth=0), "max_concat_depth must be >= 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            build()


def test_literals_must_have_their_exact_type():
    for k in (0.0, True, "0"):
        with pytest.raises(TypeError):
            Selection("MainByIndex", k=k)
    with pytest.raises(TypeError):
        Selection("ForkByPath", path=b"base/logging.h")
    with pytest.raises(TypeError):
        Predicate("FrequentPattern", path=3)


@pytest.mark.parametrize(
    "selection",
    [
        {"tag": "MainByIndex", "k": 0.0},
        {"tag": "MainByIndex", "k": False},
        {"tag": "ForkByIndex", "k": "1"},
        {"tag": "MainByPath", "path": 5},
        {"tag": "Pattern", "key": ["DuplicateMainFork"]},
    ],
)
def test_deserialize_rejects_mistyped_selection_literal(selection):
    obj = json.loads(serialize_program(FB_PROGRAM))
    obj["apply"]["transform"] = {"select": selection}
    with pytest.raises(ParseError):
        deserialize_program(json.dumps(obj))


def test_rank_entry_of_a_foreign_object_is_a_type_error():
    for obj in (Predicate("Rename"), "Main", None):
        with pytest.raises(TypeError, match="no rank entry"):
            rank_entry(obj)


def test_deserialize_rejects_mistyped_predicate_path():
    obj = json.loads(serialize_program(FB_PROGRAM))
    obj["apply"]["condition"] = [{"tag": "FrequentPattern", "path": ["base/logging.h"]}]
    with pytest.raises(ParseError):
        deserialize_program(json.dumps(obj))


selection_strategy = st.one_of(
    st.sampled_from([Selection("Main"), Selection("Fork")]),
    st.builds(
        lambda tag, k: Selection(tag, k=k),
        st.sampled_from(["MainByIndex", "ForkByIndex"]),
        st.integers(0, 4),
    ),
    st.builds(
        lambda tag, path: Selection(tag, path=path),
        st.sampled_from(["MainByPath", "ForkByPath"]),
        st.sampled_from(["base/a.h", "ui/b.h", "net/c.h"]),
    ),
    st.builds(lambda key: Selection("Pattern", key=key), st.sampled_from(PATTERN_KEYS)),
)

transformation_strategy = st.recursive(
    st.one_of(
        st.builds(Select, selection_strategy),
        st.builds(Remove, selection_strategy, selection_strategy),
    ),
    lambda child: st.builds(Concat, child, child),
    max_leaves=6,
)

predicate_strategy = st.one_of(
    st.sampled_from([Predicate(tag) for tag in PATTERN_KEYS]),
    st.builds(
        lambda p: Predicate("FrequentPattern", path=p),
        st.sampled_from(["base/a.h", "base/logging.h"]),
    ),
)

program_strategy = st.builds(
    lambda preds, t: Program(Condition(tuple(preds)), t),
    st.lists(predicate_strategy, min_size=1, max_size=3, unique=True),
    transformation_strategy,
)


@given(program_strategy)
def test_serialize_round_trip_generated(program):
    assert deserialize_program(serialize_program(program)) == program


_names = st.sampled_from(("tag", "k", "path", "key", "dslv", "apply", "condition", "transform",
                          "concat", "remove", "select", *PREDICATE_TAGS, *SELECTION_TAGS))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | _names,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_names | st.text(), children, max_size=3),
    max_leaves=10,
)


def _json_slots(value, path=()):
    """The path of every object field and array item in a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _json_slots(child, path + (key,))


def _parses_or_parse_error(text):
    try:
        assert isinstance(deserialize_program(text), Program)
    except ParseError:
        pass


@given(st.one_of(json_values.map(json.dumps), st.text()))
def test_deserialize_arbitrary_json_raises_only_parse_error(text):
    _parses_or_parse_error(text)


@given(program_strategy, st.data())
def test_deserialize_program_with_one_field_replaced_raises_only_parse_error(program, data):
    # The new value is arbitrary JSON or a copy of a sibling's value, the way
    # a hand-edited file repeats a predicate.
    obj = program_to_json(program)
    *parents, last = data.draw(st.sampled_from(list(_json_slots(obj))))
    parent = obj
    for key in parents:
        parent = parent[key]
    items = parent.items() if isinstance(parent, dict) else enumerate(parent)
    siblings = [value for key, value in items if key != last]
    parent[last] = copy.deepcopy(data.draw(json_values | st.sampled_from(siblings) if siblings else json_values))
    _parses_or_parse_error(json.dumps(obj))


def _objects(value):
    """Every JSON object in ``value``, outermost first."""
    if isinstance(value, dict):
        yield value
    for child in (value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()):
        yield from _objects(child)


def _transform_of(obj):
    apply_obj = obj.get("apply") if isinstance(obj, dict) else None
    return apply_obj.get("transform") if isinstance(apply_obj, dict) else None


def _mutate(obj, data, kind):
    """Put one fault of ``kind`` into the program JSON ``obj``, in place; a
    fault with no place left to go (an earlier one removed it) is skipped."""
    draw = data.draw

    def pick(items):
        items = list(items)
        return draw(st.sampled_from(items)) if items else None

    literals = [o for o in _objects(obj) if "tag" in o]
    transforms = [o for o in _objects(_transform_of(obj)) if len(o) == 1 and "tag" not in o]
    if kind == "extra":
        target = pick(_objects(obj))
        target[draw(_names | st.text(max_size=3))] = draw(json_values)
    elif kind == "missing":
        target = pick(o for o in _objects(obj) if o)
        if target is not None:
            del target[draw(st.sampled_from(sorted(target)))]
    elif kind == "wrong-type":
        *parents, last = pick(_json_slots(obj)) or ("dslv",)
        parent = obj
        for key in parents:
            parent = parent[key]
        parent[last] = draw(st.none() | st.booleans() | st.integers() | st.text(max_size=3)
                            | st.just([]) | st.just({}) | st.floats())
    elif kind == "bool-k":
        literal = pick(literals)
        if literal is not None:
            literal.update(tag=draw(st.sampled_from(["MainByIndex", "ForkByIndex", "Main"])), k=draw(st.booleans()))
    elif kind == "nan":
        literal = pick(literals)
        if literal is not None:
            literal[draw(st.sampled_from(["k", "path", "key", "tag"]))] = float("nan")
        if draw(st.booleans()):
            obj["dslv"] = float("nan")
    elif kind == "empty-path":
        literal = pick(literals)
        if literal is not None:
            literal["path"] = ""
    elif kind == "unknown-operator":
        target = pick(transforms)
        if target is not None:
            (op, payload), = target.items()
            del target[op]
            target[draw(st.sampled_from(["merge", "Select", "", "concat ", *PREDICATE_TAGS]))] = payload
    elif kind == "not-a-pair":
        target = pick(transforms)
        if target is not None:
            payload = target.popitem()[1]
            items = payload if isinstance(payload, list) and payload else [payload]
            op = draw(st.sampled_from(["concat", "remove"]))
            target[op] = draw(st.sampled_from([[], items[:1], items * 3, {"0": items[0]}, items[0]]))
    else:  # "nested": a fault two concats down
        wrapped = {"apply": {"transform": copy.deepcopy(_transform_of(obj))}}
        _mutate(wrapped, data, draw(st.sampled_from(["extra", "bool-k", "empty-path", "unknown-operator",
                                                     "not-a-pair"])))
        main, fork = {"select": {"tag": "Main"}}, {"select": {"tag": "Fork"}}
        if isinstance(obj.get("apply"), dict):
            obj["apply"]["transform"] = {"concat": [main, {"concat": [_transform_of(wrapped), fork]}]}


_MUTATIONS = ("extra", "missing", "wrong-type", "bool-k", "nan", "empty-path", "unknown-operator",
              "not-a-pair", "nested")


def _decoded(decode, obj):
    try:
        return decode(obj)
    except ParseError as exc:
        return f"ParseError: {exc}"


@settings(max_examples=500)
@given(program_strategy, st.lists(st.sampled_from(_MUTATIONS), max_size=2), st.data())
def test_program_decoding_agrees_with_the_reference(program, mutations, data):
    # With no mutation the value is a valid program's JSON.
    obj = program_to_json(program)
    for kind in mutations:
        _mutate(obj, data, kind)
    got = _decoded(program_from_json, obj)
    assert got == _decoded(reference_program_from_json, obj)
    if not mutations:
        assert got == program


@pytest.mark.parametrize("text", ["[" * 100_000, deep_program_text(600)], ids=["brackets", "concat-chain"])
def test_deeply_nested_program_json_is_parse_error(text):
    with pytest.raises(ParseError):
        deserialize_program(text)
    with pytest.raises(ParseError):
        deserialize_programs(text)


def test_deserialize_programs_reads_one_program_or_an_array():
    text = serialize_program(FB_PROGRAM)
    assert deserialize_programs(text) == [FB_PROGRAM]
    assert deserialize_programs(f"[{text}, {serialize_program(DUP_PROGRAM)}]") == [FB_PROGRAM, DUP_PROGRAM]


@settings(max_examples=400)
@given(program_strategy, st.integers(0, 2**32))
def test_run_program_never_raises(program, seed):
    # The conflicts draw includes from the strategy's paths, so path
    # selections and FrequentPattern guards can hit.
    conflict = gen_conflict(random.Random(seed), pool=("base/a.h", "ui/b.h", "net/c.h", "base/logging.h"))
    assert run_program(program, conflict).kind in ("resolved", "no-suggestion", "failed")


def test_features_of_fb_program():
    features = program_features(FB_PROGRAM)
    assert features == {
        "operators": 2,
        "constants": 2,
        "index_selections": 0,
        "pattern_selections": 0,
        "branch_selections": 2,
        "predicates": 1,
    }


def test_score_pattern_bonus_requires_guard_predicate():
    guarded = DUP_PROGRAM
    unguarded = Program(
        Condition((Predicate("ForkSpecific"),)),
        DUP_PROGRAM.transformation,
    )
    assert program_score(guarded) < program_score(unguarded)


SLOTTED_NODES = [
    Predicate("FrequentPattern", path="base/a.h"),
    Condition((Predicate("Rename"), Predicate("FrequentPattern", path="base/a.h"))),
    Selection("MainByIndex", k=2),
    Select(Selection("Pattern", key="Rename")),
    Remove(Selection("Fork"), Selection("ForkByPath", path="base/a.h")),
    FB_PROGRAM.transformation,
    FB_PROGRAM,
    RankedProgram(FB_PROGRAM, program_score(FB_PROGRAM)),
]


@pytest.mark.parametrize("node", SLOTTED_NODES, ids=lambda node: type(node).__name__)
def test_ast_nodes_are_slotted_frozen_and_pickle(node):
    assert not hasattr(node, "__dict__")
    for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
        loaded = pickle.loads(pickle.dumps(node, protocol))
        assert loaded == node and hash(loaded) == hash(node) and type(loaded) is type(node)
    for field in dataclasses.fields(node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field.name, getattr(node, field.name))
