"""Tests for corpus loading, alignment, classification and evaluation."""

import errno
import json
import logging
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from mergelearn.conflicts import ConflictedFile, parse_conflict_file, tokenize_nodes
from mergelearn.dsl import Condition, Predicate, Program, Select, Selection, SynthConfig, build_pattern_dictionary
from mergelearn.corpus import (
    SIZE_BUCKETS,
    CorpusCase,
    EmptyCorpusError,
    _header_reader,
    _listing,
    align_resolution,
    classify_file_type,
    classify_location,
    classify_size,
    evaluate,
    load_corpus,
    report,
    size_bucket,
)

from conftest import (
    DUP_PROGRAM,
    FAILING_ERROR,
    FAILING_PROGRAM,
    FB_PROGRAM,
    FIG1_REGIONS,
    OUTSIDE_AFTER,
    OUTSIDE_BEFORE,
    checkout_env,
    fig_chunk,
    fig_file_text,
    fig_resolution_nodes,
    fig_resolved_text,
    load_both,
    marker_text,
    write_fig_corpus,
)


@pytest.fixture
def fig_corpus(tmp_path):
    return write_fig_corpus(tmp_path / "corpus")


def test_load_corpus_four_cases(fig_corpus):
    cases = load_corpus(fig_corpus)
    assert len(cases) == 4
    assert [c.merge_id for c in cases] == ["merge-001", "merge-001", "merge-002", "merge-002"]
    by_label = {c.label for c in cases}
    assert by_label == {"RD", "FB"}
    case_c = next(c for c in cases if c.file_path.endswith("sample_c.cc"))
    assert case_c.human_resolution == fig_resolution_nodes("c")


def test_load_corpus_empty_directory(tmp_path):
    root = tmp_path / "empty"
    root.mkdir()
    with pytest.raises(EmptyCorpusError):
        load_corpus(root)


def test_load_corpus_missing_root(tmp_path):
    with pytest.raises(EmptyCorpusError):
        load_corpus(tmp_path / "nowhere")


def test_load_corpus_skips_malformed_case(fig_corpus, caplog):
    bad = fig_corpus / "merge-003" / "broken"
    bad.mkdir(parents=True)
    (bad / "conflict.txt").write_text("<<<<<<< fork\nunterminated\n", encoding="utf-8")
    (bad / "resolved.txt").write_text("whatever\n", encoding="utf-8")
    (bad / "meta.json").write_text(json.dumps({"file_path": "x.cc"}), encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        cases = load_corpus(fig_corpus)
    assert len(cases) == 4
    assert any("broken" in record.message for record in caplog.records)


@pytest.mark.parametrize("meta", [
    {"file_path": "x.cc", "label": 5},
    {"file_path": "x.cc", "label": ["x"]},
    {"file_path": 7},
    {"file_path": "x.cc", "side_order": 3},
    ["x.cc"],
    "x.cc",
], ids=["label-int", "label-list", "file_path-int", "side_order-int", "array", "string"])
def test_load_corpus_skips_case_with_mistyped_meta(fig_corpus, caplog, meta):
    bad = fig_corpus / "merge-003" / "mistyped"
    bad.mkdir(parents=True)
    (bad / "conflict.txt").write_text(fig_file_text("a"), encoding="utf-8")
    (bad / "resolved.txt").write_text(fig_resolved_text("a"), encoding="utf-8")
    (bad / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        cases = load_corpus(fig_corpus)
    assert len(cases) == 4
    assert any("mistyped" in record.message for record in caplog.records)


def test_load_corpus_skips_missing_resolution(fig_corpus, caplog):
    bad = fig_corpus / "merge-003" / "no-resolution"
    bad.mkdir(parents=True)
    (bad / "conflict.txt").write_text(fig_file_text("a"), encoding="utf-8")
    (bad / "meta.json").write_text(json.dumps({"file_path": "x.cc"}), encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        cases = load_corpus(fig_corpus)
    assert len(cases) == 4
    assert any("missing resolution" in record.message for record in caplog.records)


def test_load_corpus_rejects_unresolved_file(fig_corpus, caplog):
    bad = fig_corpus / "merge-003" / "still-conflicted"
    bad.mkdir(parents=True)
    (bad / "conflict.txt").write_text(fig_file_text("a"), encoding="utf-8")
    (bad / "resolved.txt").write_text(fig_file_text("a"), encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        cases = load_corpus(fig_corpus)
    assert len(cases) == 4
    assert any("still contains markers" in record.message for record in caplog.records)


@pytest.mark.parametrize("files, reason", [
    ({"conflict.txt": None}, ": no conflict.txt"),
    ({"resolved.txt": None}, ": missing resolution"),
    ({"meta.json": '{"label": 5}'},
     ": meta.json must be an object whose file_path, label and side_order are strings"),
    ({"meta.json": "{not json"}, ": Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ({"meta.json": '{"side_order": "theirs-first"}'},
     ": side_order must be one of ('fork-first', 'ours-first'), got 'theirs-first'"),
    ({"conflict.txt": b"\xff"}, ": 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ({"resolved.txt": fig_file_text("a")}, ": resolved file still contains markers"),
    ({"conflict.txt": "<<<<<<< fork\nunterminated\n"}, ": x.cc: unterminated conflict at end of file"),
    ({"resolved.txt": "nothing of the context\n"}, " chunk 0: preceding context line could not be anchored"),
    ({"resolved.txt": "\n".join(OUTSIDE_BEFORE) + "\n"}, " chunk 0: following context line could not be anchored"),
], ids=["no-conflict", "no-resolution", "meta-mistyped", "meta-not-json", "bad-side-order", "not-utf8",
        "resolved-has-markers", "unbalanced", "misaligned-before", "misaligned-after"])
def test_load_corpus_skip_messages_are_pinned(fig_corpus, caplog, files, reason):
    # The case holds figure a's files, except that ``files`` replaces some
    # and leaves out those it maps to None.
    bad = fig_corpus / "merge-003" / "bad"
    bad.mkdir(parents=True)
    fig_a = {"conflict.txt": fig_file_text("a"), "resolved.txt": fig_resolved_text("a"),
             "meta.json": json.dumps({"file_path": "x.cc"})}
    for name, content in (fig_a | files).items():
        if content is not None:
            (bad / name).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    with caplog.at_level(logging.WARNING, logger="mergelearn.corpus"):
        cases = load_corpus(fig_corpus)
    assert len(cases) == 4
    assert [record.getMessage() for record in caplog.records] == [f"skipping {bad}{reason}"]


def test_load_corpus_skips_a_deeply_nested_meta(fig_corpus, caplog):
    bad = fig_corpus / "merge-003" / "deep"
    bad.mkdir(parents=True)
    (bad / "conflict.txt").write_text(fig_file_text("a"), encoding="utf-8")
    (bad / "resolved.txt").write_text(fig_resolved_text("a"), encoding="utf-8")
    (bad / "meta.json").write_text("[" * 100_000, encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="mergelearn.corpus"):
        cases = load_corpus(fig_corpus)
    assert len(cases) == 4
    (message,) = [record.getMessage() for record in caplog.records]
    assert message.startswith(f"skipping {bad}: ")


def test_load_corpus_reads_headers(tmp_path):
    root = tmp_path / "corpus"
    case_dir = root / "merge-001" / "case-a"
    case_dir.mkdir(parents=True)
    case_dir.joinpath("conflict.txt").write_text(fig_file_text("a"), encoding="utf-8")
    case_dir.joinpath("resolved.txt").write_text(fig_resolved_text("a"), encoding="utf-8")
    case_dir.joinpath("meta.json").write_text(json.dumps({"file_path": "a.cc"}), encoding="utf-8")
    headers = case_dir / "headers"
    headers.mkdir()
    headers.joinpath("cursor_type.mojom-shared.h").write_text("struct CursorType;\n", encoding="utf-8")
    (case,) = load_corpus(root)
    assert case.conflict.context.header_contents == {
        "ui/base/mojom/cursor_type.mojom-shared.h": "struct CursorType;\n",
        "ui/base/cursor/mojom/cursor_type.mojom-shared.h": "struct CursorType;\n",
    }


def test_load_corpus_reads_headers_by_include_path(tmp_path):
    # Same file name, different headers: the two includes are no duplicate.
    root = tmp_path / "corpus"
    case_dir = root / "merge-001" / "case-a"
    case_dir.mkdir(parents=True)
    case_dir.joinpath("conflict.txt").write_text(fig_file_text("a"), encoding="utf-8")
    case_dir.joinpath("resolved.txt").write_text(fig_resolved_text("a"), encoding="utf-8")
    case_dir.joinpath("meta.json").write_text(json.dumps({"file_path": "a.cc"}), encoding="utf-8")
    contents = {
        "ui/base/mojom/cursor_type.mojom-shared.h": "struct CursorType;\n",
        "ui/base/cursor/mojom/cursor_type.mojom-shared.h": "enum class CursorType;\n",
    }
    for path, text in contents.items():
        header = case_dir / "headers" / path
        header.parent.mkdir(parents=True, exist_ok=True)
        header.write_text(text, encoding="utf-8")
    # Only a relative path without ".." is looked up in full.
    case_dir.joinpath("escaped.h").write_text("outside\n", encoding="utf-8")
    case_dir.joinpath("headers", "escaped.h").write_text("by name\n", encoding="utf-8")
    assert _header_reader(str(case_dir), _listing(case_dir))("../escaped.h") == "by name\n"
    assert _header_reader(str(tmp_path), _listing(tmp_path)) is None
    (case,) = load_corpus(root)
    assert case.conflict.context.header_contents == contents
    assert "DuplicateMainFork" not in build_pattern_dictionary(case.conflict)


def test_unreadable_header_skips_its_case_at_load(tmp_path, caplog):
    # Headers are read when the file is parsed, not when a pattern first reads them.
    root = write_fig_corpus(tmp_path / "corpus")
    headers = root / "merge-001" / "case-a" / "headers"
    headers.mkdir()
    headers.joinpath("cursor_type.mojom-shared.h").write_bytes(b"\xff\n")
    with caplog.at_level(logging.WARNING, logger="mergelearn.corpus"):
        cases = load_corpus(root)
    assert [case.conflict.file_path for case in cases] == [f"ui/base/sample_{n}.cc" for n in "bcd"]
    assert any("skipping" in record.message and "case-a" in record.message for record in caplog.records)


def test_load_corpus_honors_side_order(tmp_path):
    root = tmp_path / "corpus"
    case_dir = root / "merge-001" / "case-a"
    case_dir.mkdir(parents=True)
    case_dir.joinpath("conflict.txt").write_text(fig_file_text("a"), encoding="utf-8")
    case_dir.joinpath("resolved.txt").write_text(fig_resolved_text("a"), encoding="utf-8")
    meta = {"file_path": "a.cc", "side_order": "ours-first"}
    case_dir.joinpath("meta.json").write_text(json.dumps(meta), encoding="utf-8")
    (case,) = load_corpus(root)
    # With ours-first the listing's first section becomes the main region.
    assert [n.include_path for n in case.conflict.main_nodes] == [
        "ui/base/anonymous_ui_base_features.h",
        "ui/base/mojom/cursor_type.mojom-shared.h",
    ]


def _write_case(case_dir: Path, files: dict) -> Path:
    """Write ``files``, a name-to-text-or-bytes map, into a new case directory."""
    case_dir.mkdir(parents=True)
    for name, content in files.items():
        (case_dir / name).parent.mkdir(parents=True, exist_ok=True)
        (case_dir / name).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return case_dir


def _generated_case(rng) -> dict:
    """A case of one to three figure conflicts in one file, with its
    resolution, and sometimes CRLF endings, metadata, headers at their full
    include path or by name, or a defect that makes the loader skip it."""
    names = rng.choices("abcd", k=rng.randint(1, 3))
    files = {"conflict.txt": "".join(map(fig_file_text, names)),
             "resolved.txt": "".join(map(fig_resolved_text, names))}
    if rng.random() < 0.2:
        files = {name: text.replace("\n", "\r\n") for name, text in files.items()}
    roll = rng.random()
    if roll < 0.4:
        files["meta.json"] = json.dumps({"file_path": f"src/{''.join(names)}.cc", "label": rng.choice("AB")})
    elif roll < 0.5:
        files["meta.json"] = rng.choice(['{"label": 5}', "[1]", "{not json"])
    if rng.random() < 0.5:
        paths = sorted({path for name in names for path in
                        (*FIG1_REGIONS[name]["fork"], *FIG1_REGIONS[name]["main"])})
        for line in rng.sample(paths, rng.randint(1, len(paths))):
            path = line.split('"')[1]
            where = path if rng.random() < 0.5 else path.rsplit("/", 1)[-1]
            files[f"headers/{where}"] = f"// {where}\n"
    defect = rng.random()
    if defect < 0.08:
        del files["resolved.txt"]
    elif defect < 0.14:
        del files["conflict.txt"]
    elif defect < 0.2:
        files["resolved.txt"] = files["conflict.txt"]
    elif defect < 0.25:
        files["conflict.txt"] = b"\xff" + files["conflict.txt"].encode("utf-8")
    return files


def test_the_listing_loader_equals_the_reference_on_generated_corpora(tmp_path):
    rng = random.Random(0x10AD)
    messages = cases = 0
    for r in range(3):
        root = tmp_path / f"root-{r}"
        for m in range(rng.randint(2, 4)):
            for c in range(rng.randint(2, 6)):
                _write_case(root / f"merge-{m:02d}" / f"case-{c:02d}", _generated_case(rng))
        loads = load_both(root)
        assert loads["listing"] == loads["reference"]
        cases += len(loads["listing"]["cases"])
        messages += len(loads["listing"]["messages"])
    assert cases > 20 and messages > 5


# Both loads of the root named by argv[1], as JSON: whether they agree, their
# messages, and each loaded case's file path with its header contents.
_LOAD_BOTH = """
import json, sys
from conftest import load_both
loads = load_both(sys.argv[1])
listing = loads["listing"]
print(json.dumps({"equal": listing == loads["reference"], "messages": listing["messages"],
                  "reference_messages": loads["reference"]["messages"],
                  "headers": {record[1]: record[-1] for record in listing["cases"]}}))
"""


def _write_odd_corpus(tmp_path) -> Path:
    """A corpus of one merge, whose cases each hold one odd entry, beside a
    symlinked merge directory. Symlink targets sit outside the root."""
    root, outside = tmp_path / "corpus", tmp_path / "outside"
    merge = root / "merge-000"
    fig_a = {"conflict.txt": fig_file_text("a"), "resolved.txt": fig_resolved_text("a")}
    _write_case(merge / "conflict-is-a-directory", {"resolved.txt": fig_resolved_text("a")})
    (merge / "conflict-is-a-directory" / "conflict.txt").mkdir()
    os.mkfifo(_write_case(merge / "fifo-resolution", {"conflict.txt": fig_file_text("a")}) / "resolved.txt")
    os.mkfifo(merge / "fifo-case")
    targets = _write_case(outside, {"conflict.txt": fig_file_text("c"), "resolved.txt": fig_resolved_text("c"),
                                    "linked.h": "// linked\n"})
    linked = _write_case(merge / "linked-files", {})
    for name in ("conflict.txt", "resolved.txt"):
        (linked / name).symlink_to(targets / name)
    dangling = _write_case(merge / "dangling-resolution", {"conflict.txt": fig_file_text("a")})
    (dangling / "resolved.txt").symlink_to(outside / "missing.txt")
    looped = _write_case(merge / "looped-meta", fig_a)
    (looped / "meta.json").symlink_to(looped / "meta.json")
    (merge / "linked-case").symlink_to(_write_case(outside / "case-b", {
        "conflict.txt": fig_file_text("b"), "resolved.txt": fig_resolved_text("b"),
        "meta.json": json.dumps({"file_path": "linked-case.cc"})}))
    (merge / "dangling-case").symlink_to(outside / "nowhere")
    _write_case(outside / "merge" / "case-d", {"conflict.txt": fig_file_text("d"),
                                               "resolved.txt": fig_resolved_text("d")})
    (root / "merge-001").symlink_to(outside / "merge")
    (root / "stray.txt").write_text("not a merge\n", encoding="utf-8")
    (merge / "stray.txt").write_text("not a case\n", encoding="utf-8")
    _write_case(merge / "crlf", {name: text.replace("\n", "\r\n") for name, text in
                                 {"conflict.txt": fig_file_text("c"), "resolved.txt": fig_resolved_text("c"),
                                  "meta.json": '{"file_path": "crlf.cc"}\n'}.items()})
    _write_case(merge / "latin-1-conflict", {"conflict.txt": fig_file_text("a").encode("utf-8") + b"// caf\xe9\n",
                                             "resolved.txt": fig_resolved_text("a")})
    _write_case(merge / "latin-1-header", fig_a | {"headers/anonymous_ui_base_features.h": b"caf\xe9\n"})
    _write_case(merge / "headers-is-a-file", fig_a | {"headers": "not a directory\n",
                                                       "meta.json": '{"file_path": "headers-file.cc"}'})
    fork = [f'#include "{path}"' for path in
            ("./x.h", "../x.h", "/abs/x.h", "a//b.h", "dir/", "dir/../a/b.h", "fifo.h", "n/fifo.h")]
    main = [f'#include "{path}"' for path in ("nested/deep/y.h", "q/b.h", "linked.h", "missing/z.h")]
    includes = _write_case(merge / "includes", {
        "conflict.txt": marker_text(fork, main),
        "resolved.txt": "\n".join([*OUTSIDE_BEFORE, *main, *OUTSIDE_AFTER]) + "\n",
        "meta.json": '{"file_path": "includes.cc"}',
        "headers/x.h": "// x by name\n", "headers/abs/x.h": "// abs nested\n", "headers/a/b.h": "// a nested\n",
        "headers/b.h": "// b by name\n", "headers/q": "// q is a file\n", "headers/dir/b.h": "// in dir\n",
        "headers/nested/deep/y.h": "// y nested\n"})
    (includes / "headers" / "linked.h").symlink_to(targets / "linked.h")
    os.mkfifo(includes / "headers" / "fifo.h")
    (includes / "headers" / "n").mkdir()
    os.mkfifo(includes / "headers" / "n" / "fifo.h")
    return root


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs and symlinks")
def test_the_listing_loader_equals_the_reference_on_an_odd_layout(tmp_path):
    # In a subprocess with a timeout: a loader that opened a FIFO would wait for a writer forever.
    root = _write_odd_corpus(tmp_path)
    run = subprocess.run([sys.executable, "-c", _LOAD_BOTH, str(root)], capture_output=True, text=True,
                         env=checkout_env(), timeout=60)
    assert run.returncode == 0, run.stderr
    loads = json.loads(run.stdout)
    assert loads["equal"]
    assert loads["messages"] == loads["reference_messages"]
    merge = root / "merge-000"
    assert [message.split(": ", 1) for message in loads["messages"]] == [
        [f"skipping {merge / 'conflict-is-a-directory'}", "no conflict.txt"],
        [f"skipping {merge / 'dangling-resolution'}", "missing resolution"],
        [f"skipping {merge / 'fifo-resolution'}", "missing resolution"],
        [f"skipping {merge / 'latin-1-conflict'}",
         f"'utf-8' codec can't decode byte 0xe9 in position {len(fig_file_text('a')) + 6}: "
         "invalid continuation byte"],
        [f"skipping {merge / 'latin-1-header'}",
         "'utf-8' codec can't decode byte 0xe9 in position 3: invalid continuation byte"],
    ]
    # The symlinked files, case directory and merge directory are loaded; so is the looped meta.json, as absent.
    assert sorted(loads["headers"]) == ["case-d", "crlf.cc", "headers-file.cc", "includes.cc", "linked-case.cc",
                                        "linked-files", "looped-meta"]
    assert loads["headers"]["headers-file.cc"] == {}
    assert loads["headers"]["includes.cc"] == {
        "./x.h": "// x by name\n", "../x.h": "// x by name\n", "/abs/x.h": "// x by name\n",
        "a//b.h": "// a nested\n", "dir/../a/b.h": "// b by name\n", "nested/deep/y.h": "// y nested\n",
        "q/b.h": "// b by name\n",
        "linked.h": "// linked\n",
    }


def test_a_listed_file_whose_stat_fails_otherwise_than_missing_skips_its_case(tmp_path, caplog):
    # A symlink to a name too long to stat: ENAMETOOLONG is no "missing" errno, so, as Path.is_file does on
    # Python 3.10-3.12, the stat error skips the case rather than the file counting as absent.
    root = write_fig_corpus(tmp_path / "corpus")
    too_long = tmp_path / ("x" * 300)
    fig_a = {"conflict.txt": fig_file_text("a"), "resolved.txt": fig_resolved_text("a")}
    linked = {"long-meta": "meta.json", "long-header": "headers/anonymous_ui_base_features.h"}
    for case, name in linked.items():
        case_dir = _write_case(root / "merge-003" / case, fig_a | {"headers/other.h": "// other\n"})
        (case_dir / name).symlink_to(too_long)
    with caplog.at_level(logging.WARNING):
        cases = load_corpus(root)
    assert [case.merge_id for case in cases] == ["merge-001", "merge-001", "merge-002", "merge-002"]
    error = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
    assert [record.message for record in caplog.records] == [
        f"skipping {root / 'merge-003' / case}: {error}: '{root / 'merge-003' / case / name}'"
        for case, name in sorted(linked.items())]

def test_align_identity_kept_fork():
    conflict_text = fig_file_text("c")
    resolved = fig_resolved_text("c")
    (aligned,) = align_resolution(ConflictedFile.parse(conflict_text, "<memory>"), resolved)
    assert aligned.nodes == fig_resolution_nodes("c")


def test_align_kept_fork_side_verbatim():
    conflict_text = marker_text(['#include "a/a.h"', '#include "b/b.h"'], ['#include "c/c.h"'],
                                before=("top",), after=("bottom",))
    resolved = "top\n" + '#include "a/a.h"\n#include "b/b.h"\n' + "bottom\n"
    (aligned,) = align_resolution(ConflictedFile.parse(conflict_text, "<memory>"), resolved)
    assert aligned.nodes == tokenize_nodes(['#include "a/a.h"', '#include "b/b.h"'])


def test_align_deleted_region():
    conflict_text = marker_text(['#include "a/a.h"'], ['#include "b/b.h"'],
                                before=("top",), after=("bottom",))
    (aligned,) = align_resolution(ConflictedFile.parse(conflict_text, "<memory>"), "top\nbottom\n")
    assert aligned.nodes == ()


def test_align_whole_file_is_one_chunk():
    conflict_text = "<<<<<<< fork\nkept line\n=======\ndropped line\n>>>>>>> main\n"
    (aligned,) = align_resolution(ConflictedFile.parse(conflict_text, "<memory>"), "kept line\n")
    assert aligned.nodes == tokenize_nodes(["kept line"])


def test_align_ambiguous_context_flagged():
    conflict_text = "\n".join(
        [
            "context",
            "<<<<<<< fork",
            "fork line one",
            "=======",
            "main line one",
            ">>>>>>> main",
            "context",
            "<<<<<<< fork",
            "fork line two",
            "=======",
            "main line two",
            ">>>>>>> main",
        ]
    ) + "\n"
    # The developer collapsed the two identical context lines into one,
    # so the second chunk's flanks cannot be anchored.
    resolved = "context\nfork line one\n"
    results = align_resolution(ConflictedFile.parse(conflict_text, "<memory>"), resolved)
    assert any(r.nodes is None for r in results)


def test_align_adjacent_chunks_flagged():
    conflict_text = "\n".join(
        [
            "top",
            "<<<<<<< fork",
            "one",
            "=======",
            "two",
            ">>>>>>> main",
            "<<<<<<< fork",
            "three",
            "=======",
            "four",
            ">>>>>>> main",
            "bottom",
        ]
    ) + "\n"
    results = align_resolution(ConflictedFile.parse(conflict_text, "<memory>"), "top\none\nthree\nbottom\n")
    assert [r.nodes for r in results] == [None, None]


_plain_line = st.sampled_from(("", "  ", '#include "a/b.h"', "FOO(x) {")) | st.text(
    st.characters(blacklist_characters="\r\n<>=|"), max_size=6)
# Separator and base marker lines outside a chunk are plain text.
_outside_line = _plain_line | st.sampled_from(("=======", "|||||||"))
_label = st.sampled_from(("", " fork", " HEAD"))


def _file_text(lines, newline, trailing):
    """The lines joined by ``newline``, "" for none. A last blank line always
    gets its newline: without it the text would read as one line shorter."""
    if not lines:
        return ""
    return newline.join(lines) + (newline if trailing or lines[-1] == "" else "")


@st.composite
def _conflicted_and_resolved(draw):
    """A conflicted file whose outside lines are distinct, the same file with
    each chunk replaced by fresh lines, and those fresh lines per chunk."""
    chunks = draw(st.integers(1, 3))
    # Context before, between (at least one line, or the chunks share a gap) and after.
    sizes = [draw(st.integers(0, 2)), *(draw(st.integers(1, 2)) for _ in range(chunks - 1)),
             draw(st.integers(0, 2))]
    outside = draw(st.lists(_outside_line, unique=True, min_size=sum(sizes), max_size=sum(sizes)))
    fresh = [draw(st.lists(_plain_line.filter(lambda line: line not in outside), max_size=3))
             for _ in range(chunks)]
    conflicted, resolved, context = [], [], iter(outside)
    for k, size in enumerate(sizes):
        lines = [next(context) for _ in range(size)]
        conflicted += lines
        resolved += lines
        if k < chunks:
            conflicted += ["<<<<<<<" + draw(_label), *draw(st.lists(_plain_line, max_size=2))]
            if draw(st.booleans()):  # a diff3 base section
                conflicted += ["|||||||" + draw(_label), *draw(st.lists(_plain_line, max_size=2))]
            conflicted += ["=======", *draw(st.lists(_plain_line, max_size=2)), ">>>>>>>" + draw(_label)]
            resolved += fresh[k]
    newlines, trailing = st.sampled_from(("\n", "\r\n")), st.booleans()
    return (_file_text(conflicted, draw(newlines), draw(trailing)),
            _file_text(resolved, draw(newlines), draw(trailing)), fresh)


@given(_conflicted_and_resolved())
def test_align_recovers_each_chunks_fresh_lines(case):
    conflicted, resolved, fresh = case
    aligned = align_resolution(ConflictedFile.parse(conflicted, "<memory>"), resolved)
    assert [(a.nodes, a.reason) for a in aligned] == [(tokenize_nodes(lines), None) for lines in fresh]


@pytest.mark.parametrize(
    "path,expected",
    [
        ("foo.cc", "C++"),
        ("dir/sub/widget.cpp", "C++"),
        ("bar.h", "Headers"),
        ("bar.hpp", "Headers"),
        ("DEPS", "Dependency"),
        ("feature.gni", "Dependency"),
        ("BUILD.gn", "Build"),
        ("build/out.ninja", "Build"),
        ("tools/run.py", "Python"),
        ("tests/data.pyl", "Python"),
        ("matrix.mm", "Data"),
        ("strings.grd", "Data"),
        ("README", "Text"),
        ("docs/notes.md", "Text"),
        ("notes.csv", "Others"),
        ("schema.proto", "Others"),
    ],
)
def test_classify_file_type(path, expected):
    assert classify_file_type(path) == expected


def test_classify_size_fig1c(fig1c):
    assert classify_size(fig1c) == ("1-2", "1-2")


def test_classify_size_buckets():
    chunk = parse_conflict_file(
        marker_text([f"line {i};" for i in range(51)], ["one;"]), "big.cc"
    )[0]
    assert classify_size(chunk) == ("1-2", ">50")


def test_empty_side_is_not_a_one_or_two_line_change():
    chunk = parse_conflict_file('<<<<<<< fork\n=======\n#include "x.h"\n>>>>>>> main\n', "x.cc")[0]
    assert classify_size(chunk) == ("1-2", "0")
    case = CorpusCase(chunk, chunk.main_nodes, "merge", "x.cc", 0)
    result = report([case])
    assert (result.main_sizes, result.fork_sizes) == ({"1-2": 1}, {"0": 1})


def test_size_buckets_partition_positive_integers():
    for count in range(1, 120):
        buckets = [b for b in SIZE_BUCKETS if size_bucket(count) == b]
        assert len(buckets) == 1


@pytest.mark.parametrize(
    "count,bucket",
    [(0, "0"), (1, "1-2"), (2, "1-2"), (3, "3-4"), (10, "9-10"), (11, "11-15"), (25, "21-25"),
     (31, "31-40"), (50, "41-50"), (51, ">50")],
)
def test_size_bucket_boundaries(count, bucket):
    assert size_bucket(count) == bucket


def test_classify_location_include(fig1a):
    assert classify_location(fig1a) == "Include"


def test_classify_location_macro():
    chunk = parse_conflict_file(
        marker_text(
            ["IN_PROC_BROWSER_TEST_P(V4, ANONYMOUS_DISABLED_PERMANENT(MalwareWithWhitelist, 20395305)) {"],
            ["IN_PROC_BROWSER_TEST_F(V4) {"],
        ),
        "test.cc",
    )[0]
    assert classify_location(chunk) == "Macro"


def test_classify_location_comments_are_others():
    chunk = parse_conflict_file(
        marker_text(["// a comment", "/* block */"], ["// other comment"]), "c.cc"
    )[0]
    assert classify_location(chunk) == "Others"


def test_classify_location_of_two_empty_regions_is_others():
    (chunk,) = parse_conflict_file("<<<<<<< fork\n=======\n>>>>>>> main\n", "c.cc")
    assert chunk.region_nodes() == ()
    assert classify_location(chunk) == "Others"


@pytest.mark.parametrize(
    "fork,main,expected",
    [
        (["if (result != DID_NOT_HANDLE)"], ["if (elastic_ && result != DID_NOT_HANDLE)"], "Condition"),
        (["static const uint32_t kSettingsVersion = 4;"], ["static constexpr uint32_t kSettingsVersion = 1;"], "Declare"),
        (["for (int i = 0; i < n; i++) {"], ["while (pending()) {"], "Loop"),
        (["callback.Run(path, result);"], ["callback.Run(result);"], "Expression"),
        (["void Delegate::OnDone(int code) {"], ["void Delegate::OnDone() {"], "Method"),
    ],
)
def test_classify_location_heuristics(fork, main, expected):
    chunk = parse_conflict_file(marker_text(fork, main), "loc.cc")[0]
    assert classify_location(chunk) == expected


def test_report_fig_corpus(fig_corpus):
    cases = load_corpus(fig_corpus)
    result = report(cases)
    assert result.total == 4
    assert result.file_types == {"C++": 4}
    assert result.locations == {"Include": 4}
    assert result.main_sizes == {"1-2": 4}
    assert result.fork_sizes == {"1-2": 4}
    assert result.labels == {"FB": 2, "RD": 2}
    for counts in (result.file_types, result.locations, result.labels):
        assert sum(counts.values()) == result.total


def test_report_counts_unlabeled(fig_corpus):
    extra = fig_corpus / "merge-003" / "case-x"
    extra.mkdir(parents=True)
    extra.joinpath("conflict.txt").write_text(fig_file_text("a"), encoding="utf-8")
    extra.joinpath("resolved.txt").write_text(fig_resolved_text("a"), encoding="utf-8")
    extra.joinpath("meta.json").write_text(json.dumps({"file_path": "x.cc"}), encoding="utf-8")
    result = report(load_corpus(fig_corpus))
    assert result.labels["unlabeled"] == 1
    assert result.total == 5


def test_report_renders_table(fig_corpus):
    table = report(load_corpus(fig_corpus)).render_table()
    assert "cases: 4" in table
    assert "Include" in table


def test_evaluate_fb_over_cd(fig_corpus):
    cases = [c for c in load_corpus(fig_corpus) if c.label == "FB"]
    result = evaluate([FB_PROGRAM], cases)
    assert result.total == 2
    assert result.suggested == 2
    assert result.matched == 2
    assert result.accuracy == 1.0
    assert result.coverage == 1.0


def test_evaluate_unmatched_guard_reports_na(fig_corpus):
    cases = load_corpus(fig_corpus)
    never = Program(
        Condition((Predicate("FrequentPattern", path="never/present.h"),)),
        Select(Selection("Fork")),
    )
    result = evaluate([never], cases)
    assert result.suggested == 0
    assert result.accuracy is None
    assert result.coverage == 0.0
    assert result.no_suggestion == result.total == 4


def test_evaluate_counts_are_exhaustive(fig_corpus):
    cases = load_corpus(fig_corpus)
    result = evaluate([FB_PROGRAM, DUP_PROGRAM], cases)
    assert result.matched + result.mismatched + result.no_suggestion == result.total
    assert result.matched + result.mismatched == result.suggested <= result.total


def test_evaluate_14_case_fb_corpus_with_one_divergent(tmp_path):
    root = tmp_path / "fb-corpus"
    for i in range(14):
        case_dir = root / "merge-001" / f"case-{i:02d}"
        case_dir.mkdir(parents=True)
        fork = ['#include "base/logging.h"', f'#include "base/feature_{i}.h"']
        main = ['#include "base/notreached.h"']
        case_dir.joinpath("conflict.txt").write_text(marker_text(fork, main), encoding="utf-8")
        if i == 13:
            kept = [fork[0], fork[1], main[0]]  # divergent: developer kept logging.h
        else:
            kept = [main[0], fork[1]]
        resolved = "\n".join(
            ["// Copyright 2020 The Sample Authors.", "", *kept, "",
             "namespace sample {", "void Run() {}", "}  // namespace sample"]
        ) + "\n"
        case_dir.joinpath("resolved.txt").write_text(resolved, encoding="utf-8")
        case_dir.joinpath("meta.json").write_text(
            json.dumps({"file_path": f"src/file_{i}.cc", "label": "FB"}), encoding="utf-8"
        )
    result = evaluate([FB_PROGRAM], load_corpus(root))
    assert result.total == 14
    assert result.matched == 13
    assert result.mismatched == 1
    assert result.accuracy == pytest.approx(13 / 14)


def test_evaluate_per_program_attribution(fig_corpus):
    cases = load_corpus(fig_corpus)
    result = evaluate([FB_PROGRAM, DUP_PROGRAM], cases)
    assert result.per_program[0]["matched"] == 2  # c and d
    assert result.per_program[1]["matched"] == 2  # a and b
    assert result.matched == 4


def test_evaluate_per_program_rows_count_the_cases_each_program_was_tried_on(fig_corpus):
    # FB_PROGRAM is tried on all four cases and fires on c and d; DUP_PROGRAM
    # is tried only on a and b, which FB_PROGRAM left unresolved.
    result = evaluate([FB_PROGRAM, DUP_PROGRAM], load_corpus(fig_corpus))
    assert result.per_program == (
        {"program": 0, "total": 4, "suggested": 2, "matched": 2, "mismatched": 0, "no_suggestion": 2,
         "accuracy": 1.0, "coverage": 0.5},
        {"program": 1, "total": 2, "suggested": 2, "matched": 2, "mismatched": 0, "no_suggestion": 0,
         "accuracy": 1.0, "coverage": 1.0},
    )
    alone = evaluate([DUP_PROGRAM], load_corpus(fig_corpus))
    assert alone.per_program[0]["total"] == alone.total == 4
    assert alone.per_program[0]["no_suggestion"] == alone.no_suggestion == 2


def test_evaluate_logs_a_failing_program_and_falls_through_to_the_next(fig_corpus, caplog):
    with caplog.at_level(logging.DEBUG, logger="mergelearn.corpus"):
        result = evaluate([FAILING_PROGRAM, DUP_PROGRAM], load_corpus(fig_corpus))
    assert [record.getMessage() for record in caplog.records if record.levelno == logging.DEBUG] == [
        f"program 0 failed on ui/base/sample_{name}.cc#0: {FAILING_ERROR}" for name in "ab"]
    assert (result.suggested, result.matched) == (2, 2)
    assert [(row["total"], row["suggested"]) for row in result.per_program] == [(4, 0), (4, 2)]


def test_evaluate_order_insensitive_includes(fig1c):
    from conftest import fig_resolution_nodes

    reordered = tuple(reversed(fig_resolution_nodes("c")))
    case_cls = __import__("mergelearn.corpus", fromlist=["CorpusCase"]).CorpusCase
    case = case_cls(fig1c, reordered, "m", "f.cc", 0, None)
    strict = evaluate([FB_PROGRAM], [case])
    assert strict.mismatched == 1
    relaxed = evaluate([FB_PROGRAM], [case], SynthConfig(order_insensitive_includes=True))
    assert relaxed.matched == 1


def test_evaluate_is_repeatable(fig_corpus):
    cases = load_corpus(fig_corpus)
    first = evaluate([FB_PROGRAM, DUP_PROGRAM], cases)
    second = evaluate([FB_PROGRAM, DUP_PROGRAM], cases)
    assert first.to_json_dict() == second.to_json_dict()
