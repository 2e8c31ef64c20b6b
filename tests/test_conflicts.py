"""Tests for conflict parsing and node tokenization."""

import dataclasses
import itertools
import pickle
import re
import sys

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from mergelearn.conflicts import (
    INCLUDE,
    MACRO,
    RAW,
    ConflictedFile,
    UnbalancedMarkersError,
    conflict_kind,
    normalize_line,
    parse_conflict_file,
    read_text,
    render_nodes,
    split_lines,
    tokenize_line,
    tokenize_nodes,
)
from mergelearn.dsl import build_pattern_dictionary

from conftest import fig_file_text, marker_text, reference_read_text, reference_tokenize_line


def test_parse_fig1c_structure(fig1c):
    assert [n.include_path for n in fig1c.fork_nodes] == [
        "base/logging.h",
        "base/scoped_native_library.h",
    ]
    assert [n.include_path for n in fig1c.main_nodes] == ["base/notreached.h"]
    assert all(n.kind == INCLUDE for n in fig1c.fork_nodes + fig1c.main_nodes)


def test_parse_no_markers_is_empty():
    assert parse_conflict_file("int x;\nint y;\n", "a.cc") == []


def test_parse_two_chunks_wires_siblings():
    text = "\n".join(
        [
            "top",
            "<<<<<<< fork",
            '#include "a/a.h"',
            "=======",
            '#include "b/b.h"',
            ">>>>>>> main",
            "middle",
            "<<<<<<< fork",
            '#include "c/c.h"',
            "=======",
            '#include "d/d.h"',
            ">>>>>>> main",
            "bottom",
        ]
    ) + "\n"
    chunks = parse_conflict_file(text, "two.cc")
    assert len(chunks) == 2
    assert tuple(c for c in chunks[0].context.chunks if c != chunks[0]) == (chunks[1],)
    assert tuple(c for c in chunks[1].context.chunks if c != chunks[1]) == (chunks[0],)
    assert chunks[0].context.outside_content == ("top", "middle", "bottom")
    assert "middle" in chunks[1].context.outside_content


def test_parse_drops_diff3_base_section():
    text = "\n".join(
        [
            "<<<<<<< fork",
            '#include "a/a.h"',
            "||||||| base",
            '#include "old/old.h"',
            "=======",
            '#include "b/b.h"',
            ">>>>>>> main",
        ]
    ) + "\n"
    (chunk,) = parse_conflict_file(text, "a.cc")
    assert [n.include_path for n in chunk.fork_nodes] == ["a/a.h"]
    assert [n.include_path for n in chunk.main_nodes] == ["b/b.h"]
    paths = [n.include_path for n in chunk.fork_nodes + chunk.main_nodes]
    assert "old/old.h" not in paths


def test_parse_crlf_normalized():
    text = fig_file_text("c").replace("\n", "\r\n")
    (chunk,) = parse_conflict_file(text, "a.cc")
    assert len(chunk.fork_nodes) == 2


def test_parse_rejects_an_unknown_side_order():
    with pytest.raises(ValueError) as exc:
        ConflictedFile.parse(fig_file_text("c"), "a.cc", side_order="theirs-first")
    assert str(exc.value) == "side_order must be one of ('fork-first', 'ours-first'), got 'theirs-first'"


def test_side_order_flag_swaps_regions():
    text = fig_file_text("c")
    fork_first = parse_conflict_file(text, "a.cc", side_order="fork-first")[0]
    ours_first = parse_conflict_file(text, "a.cc", side_order="ours-first")[0]
    assert fork_first.fork_nodes == ours_first.main_nodes
    assert fork_first.main_nodes == ours_first.fork_nodes


@pytest.mark.parametrize(
    "lines",
    [
        ["<<<<<<< fork", "x", "======="],  # no end marker
        ["x", ">>>>>>> main"],  # end without start
        ["<<<<<<< fork", "<<<<<<< again", "=======", ">>>>>>> m"],  # nested start
        ["<<<<<<< fork", "x", ">>>>>>> main"],  # no separator
    ],
)
def test_parse_rejects_unbalanced_markers(lines):
    with pytest.raises(UnbalancedMarkersError):
        parse_conflict_file("\n".join(lines) + "\n", "bad.cc")


_OPEN = {
    "first": ["<<<<<<< fork", "a"],
    "base": ["<<<<<<< fork", "a", "||||||| base", "b"],
    "second": ["<<<<<<< fork", "a", "=======", "c"],
}


@pytest.mark.parametrize(
    "state,marker,why",
    [
        ("outside", ">>>>>>> main", "end marker without a matching start marker"),
        ("first", "<<<<<<< again", "marker inside an open conflict section"),
        ("first", ">>>>>>> main", "marker inside an open conflict section"),
        ("base", "<<<<<<< again", "marker inside a base section"),
        ("base", "||||||| again", "marker inside a base section"),
        ("base", ">>>>>>> main", "marker inside a base section"),
        ("second", "<<<<<<< again", "marker inside the second conflict section"),
        ("second", "||||||| base", "marker inside the second conflict section"),
        ("second", "=======", "marker inside the second conflict section"),
    ],
)
def test_misplaced_marker_message_names_its_line(state, marker, why):
    # Every marker a state does not accept, behind one outside line.
    lines = ["top", *_OPEN.get(state, []), marker, "tail"]
    with pytest.raises(UnbalancedMarkersError) as info:
        parse_conflict_file("\n".join(lines) + "\n", "bad.cc")
    assert str(info.value) == f"bad.cc:{len(lines) - 1}: {why}"
    assert info.value.detail == f":{len(lines) - 1}: {why}"


@pytest.mark.parametrize("state", sorted(_OPEN))
def test_unterminated_chunk_message(state):
    with pytest.raises(UnbalancedMarkersError) as info:
        parse_conflict_file("\n".join(["top", *_OPEN[state]]), "bad.cc")
    assert str(info.value) == "bad.cc: unterminated conflict at end of file"
    assert info.value.detail == ": unterminated conflict at end of file"


def test_marker_like_lines_are_text():
    # Only exactly seven marker characters, then whitespace or the line's
    # end, make a marker; a separator may only have whitespace after it.
    # Separator and base lines outside a chunk are plain text.
    outside_before = ["=======", "||||||| base", "<<<<<<<x", "<<<<<<<<", ">>>>>>>>"]
    fork = ["=======x", "<<<<<<<x", "<<<<<<<<", ">>>>>>>>", "||||||||", "======= x"]
    main = ["||||||||", ">>>>>>>x", "=======x", "<<<<<<<<"]
    lines = [*outside_before, "<<<<<<<\tfork", *fork, "=======  ", *main, ">>>>>>>", "======="]
    text = "\n".join(lines) + "\n"
    parsed = ConflictedFile.parse(text, "doc.txt")
    (chunk,) = parsed.chunks
    assert chunk.fork_lines == tuple(fork)
    assert chunk.main_lines == tuple(main)
    assert chunk.context.outside_content == (*outside_before, "=======")
    assert parsed.lines == tuple(lines)
    assert parsed.spans == ((5, len(lines) - 1),)
    assert parsed.render() == text


def test_base_section_content_is_dropped_but_kept_in_the_block():
    lines = ["<<<<<<< fork", "a", "||||||| base", "b", "=======x", "=======", "c", ">>>>>>> main"]
    parsed = ConflictedFile.parse("\n".join(lines), "a.cc")
    (chunk,) = parsed.chunks
    assert (chunk.fork_lines, chunk.main_lines) == (("a",), ("c",))
    assert parsed.lines == tuple(lines)
    assert parsed.spans == ((0, len(lines)),)
    assert parsed.render() == "\n".join(lines)


def test_separator_outside_chunk_is_plain_text():
    text = "heading\n=======\nbody\n"
    assert parse_conflict_file(text, "doc.txt") == []


def test_long_angle_runs_are_not_markers():
    text = "a <<<<<<<<<< b\n<<<<<<<<<<\n"
    assert parse_conflict_file(text, "doc.txt") == []


def test_chunk_count_matches_start_markers():
    text = fig_file_text("a") + fig_file_text("c")
    assert len(parse_conflict_file(text, "a.cc")) == text.count("<<<<<<< ")


def test_region_lines_preserved_exactly():
    (chunk,) = parse_conflict_file(fig_file_text("c"), "a.cc")
    assert chunk.fork_lines == (
        '#include "base/logging.h"',
        '#include "base/scoped_native_library.h"',
    )
    assert chunk.main_lines == ('#include "base/notreached.h"',)


def test_region_nodes_render_back_to_marker_lines(fig1c):
    # Regions written in normalized form render back byte-identically.
    assert render_nodes(fig1c.fork_nodes) == "\n".join(fig1c.fork_lines)
    assert render_nodes(fig1c.main_nodes) == "\n".join(fig1c.main_lines)


def test_outside_content_has_no_markers(fig1c):
    for line in fig1c.context.outside_content:
        assert not line.startswith(("<<<<<<<", "=======", ">>>>>>>", "|||||||"))


def test_tokenize_include():
    node = tokenize_line('#include "ui/base/anonymous_ui_base_features.h"')
    assert node.kind == INCLUDE
    assert node.raw_text == '#include "ui/base/anonymous_ui_base_features.h"'
    assert node.include_path == "ui/base/anonymous_ui_base_features.h"
    assert not node.is_blank
    spaced = tokenize_line(" #  include\t<ui/base/a  b.h> ")
    assert (spaced.kind, spaced.raw_text) == (INCLUDE, "#include <ui/base/a b.h>")
    assert spaced.include_path == "ui/base/a b.h"


def test_tokenize_macro():
    node = tokenize_line("IN_PROC_BROWSER_TEST_F(V4, CheckUnwantedSoftwareUrl) {")
    assert node.kind == MACRO
    assert node.raw_text == "IN_PROC_BROWSER_TEST_F(V4, CheckUnwantedSoftwareUrl) {"
    assert node.include_path is None and not node.is_blank
    # The canonical text drops the spacing before the first "(".
    assert tokenize_line("IN_PROC_BROWSER_TEST_F  (V4,  CheckUnwantedSoftwareUrl) {") == node


def test_tokenize_blank_line():
    node = tokenize_line("")
    assert node.kind == RAW
    assert node.raw_text == ""
    assert node.is_blank


def test_tokenize_plain_statement_is_raw():
    assert tokenize_line("int x = 3;").kind == RAW
    assert tokenize_line("lowercase_call(x)").kind == RAW


@given(st.text(st.sampled_from(" \t\x0b\x0c\x1c\x85\xa0\u2028\u3000ab#(")))
def test_normalize_line_collapses_whitespace_as_the_regex_does(line):
    assert normalize_line(line) == re.sub(r"\s+", " ", line.strip())


def test_split_and_a_regex_space_agree_on_every_character():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(r"\s", every)) == {c for c in every if c.isspace()}


def test_node_equality_ignores_whitespace():
    assert tokenize_line('#include  "a.h"') == tokenize_line('#include "a.h"')
    assert tokenize_line("FOO( x,  y )") == tokenize_line("FOO( x, y )")


def test_quote_and_angle_includes_differ():
    assert tokenize_line('#include "a.h"') != tokenize_line("#include <a.h>")


def test_render_single_include():
    nodes = tokenize_nodes(['#include "base/check_op.h"'])
    assert render_nodes(nodes) == '#include "base/check_op.h"'


def test_render_empty_list():
    assert render_nodes([]) == ""


line_strategy = st.one_of(
    st.builds(
        lambda p, angle: f"#include <{p}>" if angle else f'#include "{p}"',
        st.text(alphabet="abcdefgh_/.", min_size=1, max_size=15).filter(
            lambda s: s.strip() and " " not in s
        ),
        st.booleans(),
    ),
    st.builds(
        lambda name, args: f"{name}({args}) {{",
        st.sampled_from(["TEST_F", "IN_PROC_BROWSER_TEST_P", "RUN_ALL"]),
        st.text(alphabet="abcXYZ, _09", max_size=12),
    ),
    st.text(alphabet=st.characters(blacklist_characters="\n\r"), max_size=30),
)


@given(st.lists(line_strategy, max_size=8))
def test_tokenize_render_round_trip(lines):
    nodes = tokenize_nodes(lines)
    assert tokenize_nodes(render_nodes(nodes).split("\n") if nodes else []) == nodes


def test_node_is_two_slotted_frozen_fields_and_pickles():
    for node in tokenize_nodes(['#include "a.h"', "FOO (x)", "int x;", ""]):
        assert [field.name for field in dataclasses.fields(node)] == ["kind", "raw_text"]
        assert not hasattr(node, "__dict__")
        for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
            loaded = pickle.loads(pickle.dumps(node, protocol))
            assert loaded == node and hash(loaded) == hash(node)
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.raw_text = "x"


_SPACE = st.text(st.sampled_from(" \t\x0c\xa0\u3000"), max_size=2)
_spaced_include = st.builds(
    lambda s, path, angle: f"{s[0]}#{s[1]}include{s[2]}" + (f"<{path}>" if angle else f'"{path}"') + s[3],
    st.tuples(_SPACE, _SPACE, _SPACE, _SPACE),
    st.text(st.characters(blacklist_characters='"<>\n'), min_size=1, max_size=12),
    st.booleans(),
)
# Arguments hold nested parentheses and identifiers that Rename may pair on.
_spaced_macro = st.builds(
    lambda s, name, args: f"{s[0]}{name}{s[1]}({args}{s[2]}",
    st.tuples(_SPACE, _SPACE, _SPACE),
    st.from_regex(r"[A-Z][A-Z0-9_]{0,5}", fullmatch=True),
    st.lists(st.sampled_from(("(", ")", ", ", " ", "\t", "abc", "Run", "x", "{")), max_size=6).map("".join),
)
_spaced_raw = st.text(max_size=20) | st.sampled_from(
    ("", " \t", "#include a.h", '#include "a.h" // x', "lower(x)", "int x = (1);"))
_spaced_line = _spaced_include | _spaced_macro | _spaced_raw


@given(st.lists(_spaced_line, max_size=6))
def test_a_node_is_its_kind_and_canonical_text(lines):
    """Against the format that kept a node's parts as ``children``: the
    canonical text gives the same kind, include path, macro arguments and
    rendering, and it tokenizes back to the node."""
    nodes = tokenize_nodes(lines)
    refs = [reference_tokenize_line(line) for line in lines]
    for node, ref in zip(nodes, refs):
        assert (node.kind, node.raw_text) == (ref.kind, ref.raw_text)
        assert node.include_path == ref.include_path
        if node.kind == MACRO:
            assert node.raw_text[node.raw_text.index("("):] == ref.children[1]
        assert node.is_blank == (ref.kind == RAW and ref.raw_text == "")
        assert tokenize_line(node.raw_text) == node
    assert render_nodes(nodes) == "\n".join(ref.render() for ref in refs)


def _arguments_idents(reference) -> set:
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]{2,}", reference.children[1]))


@given(st.lists(_spaced_macro, min_size=1, max_size=2), st.lists(_spaced_macro, min_size=1, max_size=2))
@example(["A (abc(x))"], ["B(abc)"])
def test_rename_reads_a_macros_arguments_from_its_first_paren(main, fork):
    """Rename pairs the macros whose reference arguments (the second child)
    share an identifier."""
    chunk = ConflictedFile.parse(marker_text(fork, main), "a.cc").chunks[0]
    main_refs = [reference_tokenize_line(line) for line in main]
    fork_refs = [reference_tokenize_line(line) for line in fork]
    expected = tuple(m for m, rm in zip(chunk.main_nodes, main_refs) if any(
        f != m and _arguments_idents(rm) & _arguments_idents(rf) for f, rf in zip(chunk.fork_nodes, fork_refs)))
    assert build_pattern_dictionary(chunk).entry("Rename") == expected


def test_conflict_kind_include(fig1a):
    assert conflict_kind(fig1a) == "Include"


def test_conflict_kind_macro():
    text = marker_text(
        ["IN_PROC_BROWSER_TEST_F(V4, ANONYMOUS_DISABLED_PERMANENT(CheckUnwantedSoftwareUrl, 20395305)) {"],
        ["IN_PROC_BROWSER_TEST_F(V4, CheckUnwantedSoftwareUrl) {"],
    )
    (chunk,) = parse_conflict_file(text, "test.cc")
    assert conflict_kind(chunk) == "Macro"


def test_conflict_kind_mixed_and_other():
    mixed = parse_conflict_file(
        marker_text(['#include "a/a.h"'], ["TEST_F(V4) {"]), "m.cc"
    )[0]
    assert conflict_kind(mixed) == "Mixed"
    other = parse_conflict_file(
        marker_text(['#include "a/a.h"'], ["int x;"]), "o.cc"
    )[0]
    assert conflict_kind(other) == "Other"


def test_conflict_kind_ignores_blank_lines():
    chunk = parse_conflict_file(
        marker_text(['#include "a/a.h"', ""], ['#include "b/b.h"']), "a.cc"
    )[0]
    assert conflict_kind(chunk) == "Include"


def test_conflict_kind_permutation_invariant(fig1c):
    import dataclasses

    swapped = dataclasses.replace(
        fig1c,
        fork_nodes=tuple(reversed(fig1c.fork_nodes)),
    )
    assert conflict_kind(swapped) == conflict_kind(fig1c)


def test_render_resolved_file_round_trip():
    text = fig_file_text("c")
    parsed = ConflictedFile.parse(text, "a.cc")
    # Unresolved chunks keep the original block verbatim.
    assert parsed.render({}) == text
    resolution = tokenize_nodes(
        ['#include "base/notreached.h"', '#include "base/scoped_native_library.h"']
    )
    resolved = parsed.render({0: resolution})
    assert "<<<<<<<" not in resolved
    assert '#include "base/scoped_native_library.h"' in resolved


def test_render_empty_resolution_drops_region():
    text = marker_text(['#include "a/a.h"'], ['#include "b/b.h"'], before=("top",), after=("bottom",))
    parsed = ConflictedFile.parse(text, "a.cc")
    assert parsed.render({0: ()}) == "top\nbottom\n"


def test_render_keeps_a_lone_blank_line_before_an_empty_resolution():
    text = marker_text(['#include "a/a.h"'], ['#include "b/b.h"'], before=("",), after=())
    parsed = ConflictedFile.parse(text, "a.cc")
    assert parsed.render({0: ()}) == "\n"
    assert ConflictedFile.parse("\n", "a.cc").render() == "\n"


_region_line = st.sampled_from(("", "  ", '#include "a/b.h"', "FOO(x) {", "<<<<<<<<x", ">>>>>>>>")) | st.text(
    st.characters(blacklist_characters="\r\n<>=|"), max_size=6)
# Separator and base marker lines outside a chunk are plain text.
_outside_line = _region_line | st.sampled_from(("=======", "|||||||"))
_label = st.sampled_from(("", " fork", " HEAD", " abc123 (main)"))


@st.composite
def _chunk_lines(draw):
    lines = ["<<<<<<<" + draw(_label), *draw(st.lists(_region_line, max_size=3))]
    if draw(st.booleans()):  # a diff3 base section
        lines += ["|||||||" + draw(_label), *draw(st.lists(_region_line, max_size=2))]
    return lines + ["=======", *draw(st.lists(_region_line, max_size=3)), ">>>>>>>" + draw(_label)]


@given(st.lists(_outside_line.map(lambda line: [line]) | _chunk_lines(), max_size=6),
       st.sampled_from(("\n", "\r\n")), st.booleans())
def test_parse_render_round_trip(pieces, newline, trailing):
    text = newline.join(line for piece in pieces for line in piece) + (newline if trailing else "")
    parsed = ConflictedFile.parse(text, "f.cc")
    assert parsed.render() == text.replace("\r\n", "\n")
    # The spans are the chunks' pieces and the outside lines all the others, in order; each span is one
    # marker block.
    assert parsed.lines == tuple(split_lines(text))
    assert parsed.spans == tuple((start, start + len(piece)) for start, piece in
                                 zip(itertools.accumulate(map(len, pieces), initial=0), pieces) if len(piece) > 1)
    assert parsed.outside_content == tuple(line for i, line in enumerate(parsed.lines)
                                           if not any(start <= i < end for start, end in parsed.spans))
    for start, end in parsed.spans:
        assert re.fullmatch(r"<{7}(?:\s.*)?", parsed.lines[start]) and re.fullmatch(r">{7}(?:\s.*)?", parsed.lines[end - 1])


# Lines that recur, and variants of one include and one macro that differ
# only in spacing: equal as nodes, distinct as lines.
_recurring_line = st.sampled_from((
    "", "  ", '#include "a/b.h"', '#  include   "a/b.h"', '#include "a/b.h"  ', "FOO(x) {", "FOO (x)   {",
    "  FOO(x) {", "int x;", "int  x;", "<<<<<<<<x", "=======", "|||||||"))


@st.composite
def _recurring_chunk(draw):
    region = st.lists(_recurring_line.filter(lambda line: line not in ("=======", "|||||||")), max_size=4)
    lines = ["<<<<<<<" + draw(_label), *draw(region)]
    if draw(st.booleans()):
        lines += ["|||||||" + draw(_label), *draw(region)]
    return lines + ["=======", *draw(region), ">>>>>>>" + draw(_label)]


@given(st.lists(_recurring_line.map(lambda line: [line]) | _recurring_chunk(), max_size=8),
       _recurring_line.filter(lambda line: line not in ("=======", "|||||||")), st.sampled_from(("\n", "\r\n")))
def test_equal_lines_of_a_file_share_one_node_that_tokenizes_as_the_line_alone(pieces, repeated, newline):
    # One line always recurs: on both sides of a chunk and outside it.
    pieces.append(["<<<<<<<", repeated, "=======", repeated, ">>>>>>>", repeated])
    parsed = ConflictedFile.parse("".join(line + newline for piece in pieces for line in piece), "f.cc")
    for chunk in parsed.chunks:
        assert chunk.main_nodes == tokenize_nodes(chunk.main_lines)
        assert chunk.fork_nodes == tokenize_nodes(chunk.fork_lines)
    assert parsed._outside_nodes == tokenize_nodes(parsed.outside_content)
    shared: dict = {}
    pairs = [(lines, nodes) for chunk in parsed.chunks
             for lines, nodes in ((chunk.main_lines, chunk.main_nodes), (chunk.fork_lines, chunk.fork_nodes))]
    for lines, nodes in pairs + [(parsed.outside_content, parsed._outside_nodes)]:
        for line, node in zip(lines, nodes):
            assert shared.setdefault(line, node) is node, line
    last = parsed.chunks[-1]
    assert last.main_nodes[0] is last.fork_nodes[0] is parsed._outside_nodes[-1]


# Line endings, ASCII, multi-byte UTF-8, a byte that starts no UTF-8
# sequence and a multi-byte sequence cut short.
_FILE_PIECES = st.sampled_from(
    [b"\n", b"\r\n", b"\r", b"a", b"x y", "\u00e9".encode(), "\u20ac".encode(), "\U0001f600".encode(),
     b"\xff", "\u20ac".encode()[:2]])


@settings(max_examples=300, deadline=None)
@given(bom=st.booleans(), pieces=st.lists(_FILE_PIECES, max_size=12))
@example(bom=True, pieces=[b"a", b"\r", b"b\r\n"])
@example(bom=False, pieces=[b"\r\n", b"a", b"\n"])
def test_read_text_reads_a_file_as_text_mode_does(tmp_path_factory, bom, pieces):
    # Text and line ending, or the same decoding error, as a text-mode read.
    path = tmp_path_factory.mktemp("read") / "file"
    path.write_bytes(b"\xef\xbb\xbf" * bom + b"".join(pieces))
    try:
        expected = reference_read_text(path)
    except UnicodeDecodeError as exc:
        with pytest.raises(UnicodeDecodeError) as raised:
            read_text(path)
        assert str(raised.value) == str(exc)
    else:
        assert read_text(path) == expected
