"""The structural key is one flat string that sorts exactly as the nested
tuple ``(tag, *arguments)`` it encodes (``reference_struct_key``), and
distinct objects never share one."""

import itertools

import hypothesis.strategies as st
from hypothesis import example, given, settings

from mergelearn.dsl import (
    PATTERN_KEYS,
    PREDICATE_TAGS,
    Concat,
    Condition,
    Predicate,
    Program,
    Remove,
    Select,
    Selection,
    struct_key,
)

from conftest import reference_struct_key

# Paths that are prefixes of one another, with and without the characters
# the encoding escapes or uses as markers.
PATHS = ("a", "a/b", "a/b.h", "ab", "b", "", "a\x00", "a\x00b", "a\x00\x00", "a\x01", "a\x02", "a\x03",
         "\x00", "\x01a", "a\x7f", "aé", "a\U0001f600")
INDICES = (0, 1, 2, 3, 10, 11, 20, 100)


@st.composite
def object_lists(draw):
    """Selections, transformations, conditions and programs. Their paths are
    a drawn path and up to two extensions of it, which often hold a NUL, and
    their conditions are often prefixes of one shared predicate list, as a
    variable-length tuple inside ``Apply`` must sort by its length first."""
    literal = st.text(alphabet="\x00\x01\x02\x03a", max_size=2)
    base = draw(st.sampled_from(PATHS) | literal)
    pool = [base, *(base + tail for tail in draw(st.lists(literal.filter(bool), max_size=2)))]
    paths = st.sampled_from([path for path in pool if path] or ["a"])  # no include path is empty
    selections = st.one_of(
        st.builds(Selection, st.sampled_from(["Main", "Fork"])),
        st.builds(lambda tag, k: Selection(tag, k=k), st.sampled_from(["MainByIndex", "ForkByIndex"]),
                  st.sampled_from(INDICES) | st.integers(0, 200)),
        st.builds(lambda tag, path: Selection(tag, path=path), st.sampled_from(["MainByPath", "ForkByPath"]), paths),
        st.builds(lambda key: Selection("Pattern", key=key), st.sampled_from(PATTERN_KEYS)),
    )
    transformations = st.recursive(
        st.builds(Select, selections) | st.builds(Remove, selections, selections),
        lambda child: st.builds(Concat, child, child),
        max_leaves=4,
    )
    predicates = st.builds(Predicate, st.sampled_from(PATTERN_KEYS)) | st.builds(
        lambda path: Predicate("FrequentPattern", path=path), paths)
    predicate_lists = st.lists(predicates, min_size=1, max_size=4, unique=True)
    shared = draw(predicate_lists)
    conditions = (st.integers(1, len(shared)).map(lambda n: Condition(tuple(shared[:n])))
                  | predicate_lists.map(lambda preds: Condition(tuple(preds))))
    programs = st.builds(Program, conditions, transformations)
    # One kind per list mostly, so literals meet at the same place in two
    # keys; a mixed list compares the kinds' tags.
    kind = draw(st.sampled_from([selections, transformations, conditions, programs,
                                 st.one_of(selections, transformations, conditions, programs)]))
    return draw(st.lists(kind, min_size=2, max_size=8))


def _apply(n, transformation):
    tags = [tag for tag in PREDICATE_TAGS if tag != "FrequentPattern"]
    return Program(Condition(tuple(Predicate(tag) for tag in tags[:n])), transformation)


# Checked on every run of the property test below, before the drawn lists.
EDGE_OBJECTS = [
    *(Selection(tag, path=path) for tag in ("MainByPath", "ForkByPath") for path in PATHS if path),
    *(Selection(tag, k=k) for tag in ("MainByIndex", "ForkByIndex") for k in INDICES),
    Selection("Main"), Selection("Fork"), Selection("Pattern", key="Rename"),
    Select(Selection("Main")), Select(Selection("MainByIndex", k=2)), Select(Selection("MainByIndex", k=10)),
    Remove(Selection("Main"), Selection("MainByPath", path="a")),
    Remove(Selection("Main"), Selection("MainByPath", path="a\x00")),
    Concat(Select(Selection("MainByPath", path="a")), Select(Selection("Fork"))),
    Concat(Select(Selection("MainByPath", path="a\x00")), Select(Selection("Fork"))),
    *(Condition((Predicate("FrequentPattern", path=path),)) for path in PATHS if path),
    # Conditions of 1-4 predicates, each a prefix of the next, under
    # transformations that sort both ways against the next predicate's tag.
    *(_apply(n, t) for n in (1, 2, 3, 4) for t in (
        Select(Selection("Main")), Select(Selection("Fork")), Remove(Selection("Fork"), Selection("ForkByIndex", k=0)),
        Concat(Select(Selection("Main")), Select(Selection("Fork"))))),
]


@settings(max_examples=300)
@given(object_lists())
@example(EDGE_OBJECTS)
def test_flat_keys_sort_as_nested_tuples_and_are_distinct(objs):
    keys = [struct_key(obj) for obj in objs]
    references = [reference_struct_key(obj) for obj in objs]
    assert all(isinstance(key, str) for key in keys)
    assert sorted(objs, key=struct_key) == sorted(objs, key=reference_struct_key)
    for (a, key_a, ref_a), (b, key_b, ref_b) in itertools.combinations(zip(objs, keys, references), 2):
        assert (key_a < key_b) == (ref_a < ref_b), (a, b)
        assert (key_a == key_b) == (a == b), (a, b)
    assert len(set(keys)) == len(set(objs))

