"""The per-file conflict context and the one pattern dictionary per chunk.

``ConflictedFile.parse`` builds one read-only context per file; every chunk
of the file reads its outside text, headers and sibling regions from it.
The differential test below checks each chunk's dictionary against a
reference built the way it was before the context existed: every line
tokenized on its own, the outside text and the siblings' code joined and
searched once per chunk. The counting tests check that ``apply``, ``eval``
and ``learn`` build each dictionary once, whatever the number of programs,
and that entries and the file's outside index are computed only when a
program reads them.
"""

from __future__ import annotations

import pickle
import random
import re
import sys
import threading
from types import SimpleNamespace

import pytest

import mergelearn
from mergelearn import cli, conflicts, corpus, dsl, synth
from mergelearn.cli import main
from mergelearn.conflicts import INCLUDE, MACRO, ConflictedFile, tokenize_nodes
from mergelearn.corpus import evaluate, load_corpus
from mergelearn.dsl import (
    Condition,
    Predicate,
    Program,
    Remove,
    Select,
    Selection,
    SynthConfig,
    build_pattern_dictionary,
    serialize_program,
)
from mergelearn.synth import ExampleSpec, learn

from conftest import (
    DUP_PROGRAM,
    FB_PROGRAM,
    fig_chunk,
    fig_file_text,
    fig_resolution_nodes,
    fig_resolved_text,
    reference_tokenize_line,
    write_fig_corpus,
)

# --- reference: the dictionary built line by line, one chunk at a time -------


def _ref_basename(path):
    return path.rsplit("/", 1)[-1]


def _ref_stem(path):
    name = _ref_basename(path)
    return name.rsplit(".", 1)[0] if "." in name else name


def _ref_match_key(node):
    if node.is_blank:
        return None
    if node.kind == INCLUDE:
        return ("include", _ref_basename(node.include_path))
    if node.kind == MACRO:
        return ("macro", reference_tokenize_line(node.raw_text).children)
    return ("raw", node.raw_text)


def _ref_headers_equal(contents, path_a, path_b):
    if path_a in contents and path_b in contents:
        return contents[path_a] == contents[path_b]
    return True


def _ref_includes_by_name(nodes):
    by_name = {}
    for node in nodes:
        if node.kind == INCLUDE:
            by_name.setdefault(_ref_basename(node.include_path), []).append(node)
    return by_name


def _ref_duplicate_nodes(contents, nodes, other_keys, other_includes_by_name):
    out = []
    for node in nodes:
        key = _ref_match_key(node)
        if key is None:
            continue
        if node.kind == INCLUDE:
            name = _ref_basename(node.include_path)
            for other in other_includes_by_name.get(name, ()):
                if _ref_headers_equal(contents, node.include_path, other.include_path):
                    out.append(node)
                    break
        elif key in other_keys:
            out.append(node)
    return tuple(out)


def _ref_keyword_nodes(nodes, keywords):
    return tuple(n for n in nodes if not n.is_blank and any(kw in n.raw_text for kw in keywords))


_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]{2,}")


def _ref_rename_nodes(chunk):
    out = []
    fork_macros = [n for n in chunk.fork_nodes if n.kind == MACRO]
    for m in chunk.main_nodes:
        if m.kind != MACRO:
            continue
        idents = set(_REF_IDENT_RE.findall(reference_tokenize_line(m.raw_text).children[1]))
        for f in fork_macros:
            if m != f and idents & set(_REF_IDENT_RE.findall(reference_tokenize_line(f.raw_text).children[1])):
                out.append(m)
                break
    return tuple(out)


def _ref_dependency_nodes(chunk, siblings):
    if not siblings:
        return ()
    outside_code = "\n".join(
        line for line in chunk.context.outside_content if tokenize_nodes([line])[0].kind != INCLUDE
    )
    sibling_code = "\n".join(
        line
        for sib in siblings
        for line in (*sib.main_lines, *sib.fork_lines)
        if tokenize_nodes([line])[0].kind != INCLUDE
    )
    out = []
    for node in chunk.main_nodes + chunk.fork_nodes:
        if node.kind != INCLUDE:
            continue
        pattern = re.compile(rf"\b{re.escape(_ref_stem(node.include_path))}\b")
        if not pattern.search(outside_code) and pattern.search(sibling_code):
            out.append(node)
    return tuple(out)


def reference_dictionary(chunk, siblings, header_text, config) -> SimpleNamespace:
    """The dictionary of ``chunk``, with headers looked up for its own include paths only: its
    non-empty ``patterns`` and its ``frequent``, the set of its include paths."""
    region = chunk.main_nodes + chunk.fork_nodes
    paths = list(dict.fromkeys(n.include_path for n in region if n.kind == INCLUDE))
    contents = {p: header_text(p) for p in paths if header_text(p) is not None}
    outside_nodes = tokenize_nodes(chunk.context.outside_content)
    outside_keys = {k for k in map(_ref_match_key, outside_nodes) if k is not None}
    outside_includes = _ref_includes_by_name(outside_nodes)
    fork_keys = {k for k in map(_ref_match_key, chunk.fork_nodes) if k is not None}
    fork_includes = _ref_includes_by_name(chunk.fork_nodes)
    entries = {
        "DuplicateMainFork": _ref_duplicate_nodes(contents, chunk.main_nodes, fork_keys, fork_includes),
        "DuplicateMainOutside": _ref_duplicate_nodes(contents, chunk.main_nodes, outside_keys, outside_includes),
        "DuplicateForkOutside": _ref_duplicate_nodes(contents, chunk.fork_nodes, outside_keys, outside_includes),
        "MainSpecific": _ref_keyword_nodes(chunk.main_nodes, config.main_keywords),
        "ForkSpecific": _ref_keyword_nodes(chunk.fork_nodes, config.fork_keywords),
        "Dependency": _ref_dependency_nodes(chunk, siblings),
        "Rename": _ref_rename_nodes(chunk),
    }
    return SimpleNamespace(patterns={k: v for k, v in entries.items() if v}, frequent=frozenset(paths))


def contents(pdict) -> tuple:
    """A dictionary's entries and its ``frequent``: a dictionary's ``==`` is a
    mapping's, which compares the entries only."""
    return dict(pdict), pdict.frequent


# --- fuzzed multi-chunk files ------------------------------------------------

# Stems with "." and "-", a stem inside another, and one that is a prefix of a word.
STEMS = ("alpha", "beta_gamma", "cursor_type.mojom-shared", "mojom-shared", "x.y", "version-info", "switches")
DIRS = ("base", "ui/a", "ui/b/c")


def _include(rng):
    return f'#include   "{rng.choice(DIRS)}/{rng.choice(STEMS)}.h"' if rng.random() < 0.2 else (
        f'#include "{rng.choice(DIRS)}/{rng.choice(STEMS)}.h"')


def _code(rng):
    stem = rng.choice(STEMS)
    return rng.choice((
        f"{stem}(value);",
        f"auto v = {stem}::Get();",
        f"Use{stem}x();",
        f"int {stem}_count = 0;",
        f"DEFINE_FLAG({stem}, DISABLED)",
        f"DEFINE_FLAG(other_{stem})",
        "ANONYMOUS_NAMESPACE();",
        "return;",
        "",
        "  int   x = 1;",
    ))


def _lines(rng, low, high):
    return [(_include if rng.random() < 0.4 else _code)(rng) for _ in range(rng.randint(low, high))]


def fuzz_file(rng):
    """Conflicted file text with 1-5 chunks, and a header lookup keyed by file name."""
    lines = _lines(rng, 0, 4)
    for _ in range(rng.randint(1, 5)):
        lines += ["<<<<<<< fork", *_lines(rng, 0, 4), "=======", *_lines(rng, 0, 4), ">>>>>>> main"]
        lines += _lines(rng, 0 if rng.random() < 0.3 else 1, 4)
    text = "\n".join(lines) + "\n"
    if rng.random() < 0.3:
        text = text.replace("\n", "\r\n")
    # The corpus ships headers by file name, as headers/<name>.
    by_name = {f"{stem}.h": f"// {stem} v{rng.randint(1, 2)}\n" for stem in STEMS if rng.random() < 0.5}
    return text, lambda path: by_name.get(_ref_basename(path))


def test_every_chunk_dictionary_equals_the_line_by_line_reference():
    config = SynthConfig(main_keywords=("ANONYMOUS",), fork_keywords=("DISABLED",))
    rng = random.Random(20210)
    seen = dict.fromkeys(("Dependency", "DuplicateMainOutside", "DuplicateForkOutside", "DuplicateMainFork"), 0)
    crlf = 0
    for _ in range(400):
        text, header_text = fuzz_file(rng)
        crlf += "\r\n" in text
        parsed = ConflictedFile.parse(text, "fuzz.cc", header_text=header_text)
        for i, chunk in enumerate(parsed.chunks):
            siblings = [c for j, c in enumerate(parsed.chunks) if j != i]
            expected = reference_dictionary(chunk, siblings, header_text, config)
            got = build_pattern_dictionary(chunk, config)
            assert contents(got) == (expected.patterns, expected.frequent), (text, i)
            for key in seen:
                seen[key] += key in expected.patterns
    # The fuzz reaches every pattern that reads the per-file context.
    assert crlf and all(seen.values()), (crlf, seen)


def test_entries_read_in_any_order_equal_the_line_by_line_reference():
    # The fuzz of the test above; a second generator picks the chunk order and
    # the entries read before the whole dictionary is compared.
    config = SynthConfig(main_keywords=("ANONYMOUS",), fork_keywords=("DISABLED",))
    rng = random.Random(20210)
    order = random.Random(7)
    for _ in range(400):
        text, header_text = fuzz_file(rng)
        parsed = ConflictedFile.parse(text, "fuzz.cc", header_text=header_text)
        indexed = list(enumerate(parsed.chunks))
        order.shuffle(indexed)
        for i, chunk in indexed:
            siblings = [c for j, c in enumerate(parsed.chunks) if j != i]
            expected = reference_dictionary(chunk, siblings, header_text, config)
            pdict = build_pattern_dictionary(chunk, config)
            for key in order.sample(dsl.PREDICATE_TAGS, order.randint(0, len(dsl.PREDICATE_TAGS))):
                if order.random() < 0.5:
                    assert pdict.entry(key) == expected.patterns.get(key, ()), (text, i, key)
                else:
                    assert (key in pdict) == (key in expected.patterns), (text, i, key)
            assert contents(pdict) == (expected.patterns, expected.frequent), (text, i)


def test_stem_users_match_word_boundaries_at_the_edges():
    text = "\n".join([
        "x.y_tail();",  # "x.y" followed by a word character: no match
        "<<<<<<< fork",
        '#include "a/x.y.h"',
        '#include "a/-b.h"',
        "=======",
        '#include "a/b-.h"',
        ">>>>>>> main",
        "mid",
        "<<<<<<< fork",
        "call(x.y);",
        "a-b-;",
        "=======",
        "q -b;",
        ">>>>>>> main",
    ]) + "\n"
    parsed = ConflictedFile.parse(text, "edges.cc")
    first = parsed.chunks[0]
    siblings = parsed.chunks[1:]
    got = build_pattern_dictionary(first).get("Dependency", ())
    assert got == reference_dictionary(first, siblings, lambda p: None, dsl.DEFAULT_CONFIG).patterns["Dependency"]
    # "x.y" is used in the sibling; "-b" needs a word character before it, which
    # "a-b-" has; "b-" needs one after it, which neither has.
    assert [n.include_path for n in got] == ["a/x.y.h", "a/-b.h"]


def test_chunks_share_one_read_only_context():
    parsed = ConflictedFile.parse(fig_file_text("c") + fig_file_text("a"), "two.cc",
                                  header_text={"base/logging.h": "// log\n"}.get)
    first, second = parsed.chunks
    assert first.context is second.context
    assert first.context.header_contents == {"base/logging.h": "// log\n"}
    assert tuple(c for c in second.context.chunks if c != second) == (first,)
    assert tuple(c for c in first.context.chunks if c != first) == (second,)
    with pytest.raises(TypeError):
        first.context.header_contents["base/logging.h"] = "changed"
    with pytest.raises(AttributeError):
        first.main_nodes = ()


def test_pickled_chunks_keep_their_context():
    text, header_text = fuzz_file(random.Random(5))
    parsed = ConflictedFile.parse(fig_file_text("a") + text, "p.cc", header_text=header_text)
    copies = pickle.loads(pickle.dumps(parsed.chunks))
    assert copies[0].context is copies[-1].context
    for chunk, copy in zip(parsed.chunks, copies):
        assert contents(build_pattern_dictionary(copy)) == contents(build_pattern_dictionary(chunk))
        assert ([c.main_lines for c in copy.context.chunks if c != copy]
                == [c.main_lines for c in chunk.context.chunks if c != chunk])
        assert copy.context.header_contents == chunk.context.header_contents
        with pytest.raises(TypeError):
            copy.context.header_contents["x.h"] = ""


def test_chunks_pickled_before_and_after_reading_give_the_same_dictionaries():
    text, header_text = fuzz_file(random.Random(5))
    parsed = ConflictedFile.parse(fig_file_text("a") + text, "p.cc", header_text=header_text)
    unread = pickle.dumps(parsed.chunks)
    originals = [build_pattern_dictionary(chunk) for chunk in parsed.chunks]
    assert sum(len(pdict) for pdict in originals)  # computes every entry, and so the file's caches
    read = pickle.dumps(parsed.chunks)
    # A copy carries the inputs only and recomputes its caches.
    assert read == unread
    for copies in (pickle.loads(unread), pickle.loads(read)):
        assert [contents(build_pattern_dictionary(copy)) for copy in copies] == list(map(contents, originals))


def test_threads_sharing_a_file_and_its_dictionaries_read_the_same_entries():
    # More threads than cores, switching often, all filling the same file's
    # caches and the same dictionaries' entries in different orders.
    rng = random.Random(11)
    files = [fuzz_file(rng) for _ in range(30)]
    expected = [[build_pattern_dictionary(c) for c in ConflictedFile.parse(text, "t.cc", header_text=h).chunks]
                for text, h in files]
    shared = [[build_pattern_dictionary(c) for c in ConflictedFile.parse(text, "t.cc", header_text=h).chunks]
              for text, h in files]
    results, errors = {}, []

    def read(worker):
        try:
            order = random.Random(worker)
            keys = list(dsl.PREDICATE_TAGS)
            out = []
            for pdicts in shared:
                for pdict in pdicts:
                    order.shuffle(keys)
                    for key in keys:
                        pdict.entry(key)
                out.append([dict(pdict) for pdict in pdicts])
            results[worker] = out
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(w,)) for w in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors, errors
    want = [[dict(pdict) for pdict in pdicts] for pdicts in expected]
    assert all(results[w] == want for w in range(len(threads)))
    assert [list(map(contents, pdicts)) for pdicts in shared] == [list(map(contents, pdicts)) for pdicts in expected]


# --- one dictionary per chunk --------------------------------------------------


@pytest.fixture
def dictionary_builds(monkeypatch):
    """Record the conflict of every ``build_pattern_dictionary`` call, under any of its names."""
    calls = []
    real = dsl.build_pattern_dictionary

    def counting(conflict, config=dsl.DEFAULT_CONFIG):
        calls.append(conflict)
        return real(conflict, config)

    for module in (dsl, synth, corpus, cli, mergelearn):
        if getattr(module, "build_pattern_dictionary", None) is real:
            monkeypatch.setattr(module, "build_pattern_dictionary", counting)
    return calls


@pytest.mark.parametrize("programs", [(FB_PROGRAM,), (DUP_PROGRAM, FB_PROGRAM, DUP_PROGRAM)])
def test_apply_builds_one_dictionary_per_chunk(tmp_path, capsys, dictionary_builds, programs):
    # DUP resolves chunk a only, so FB is tried after it on c and d.
    args = []
    for i, program in enumerate(programs):
        path = tmp_path / f"p{i}.json"
        path.write_text(serialize_program(program), encoding="utf-8")
        args += ["--program", str(path)]
    target = tmp_path / "three.cc"
    target.write_text(fig_file_text("c") + fig_file_text("a") + fig_file_text("d"), encoding="utf-8")
    assert main(["apply", *args, str(target), "--print"]) == 0
    assert len(dictionary_builds) == 3
    assert len({id(chunk) for chunk in dictionary_builds}) == 3


def test_evaluate_builds_one_dictionary_per_case(tmp_path, dictionary_builds):
    cases = load_corpus(write_fig_corpus(tmp_path / "corpus"))
    assert not dictionary_builds
    # DUP holds on a and b only, so FB and the second DUP are tried on c and d.
    evaluate([DUP_PROGRAM, FB_PROGRAM, DUP_PROGRAM], cases)
    assert dictionary_builds == [case.conflict for case in cases]


@pytest.mark.parametrize("names", [("c",), ("c", "d")])
def test_learn_builds_one_dictionary_per_example(dictionary_builds, names):
    spec = ExampleSpec(tuple((fig_chunk(n), fig_resolution_nodes(n)) for n in names))
    assert learn(spec)
    assert dictionary_builds == list(spec.inputs)


# --- entries and the outside index on first read ---------------------------------

THREE_CHUNKS = ("c", "a", "d")
THREE_TEXT = "".join(fig_file_text(n) for n in THREE_CHUNKS)
THREE = ConflictedFile.parse(THREE_TEXT, "three.cc").chunks

# ForkSpecific holds on no worked example under the default keywords, so FB is
# tried after it on every chunk.
FS_PROGRAM = Program(
    Condition((Predicate("ForkSpecific"),)),
    Remove(Selection("Fork"), Selection("Pattern", key="ForkSpecific")),
)
# No main line of a worked example repeats an outside line: the guard is read on every chunk.
OUTSIDE_PROGRAM = Program(Condition((Predicate("DuplicateMainOutside"),)), Select(Selection("Main")))


@pytest.fixture
def outside_reads(monkeypatch):
    """Record the lines of each ``tokenize_nodes`` call of the parser, with
    or without the file's line memo, each ``match_index`` call it makes and
    each stem search."""
    calls = {"tokenized": [], "indexed": 0, "stem_searches": 0}
    real_tokenize, real_index, real_stem_users = conflicts.tokenize_nodes, conflicts.match_index, conflicts._stem_users

    def tokenize(lines, memo=None):
        lines = tuple(lines)
        calls["tokenized"].append(lines)
        return real_tokenize(lines, memo)

    def index(nodes):
        calls["indexed"] += 1
        return real_index(nodes)

    def stem_users(*args):
        calls["stem_searches"] += 1
        return real_stem_users(*args)

    monkeypatch.setattr(conflicts, "tokenize_nodes", tokenize)
    monkeypatch.setattr(conflicts, "match_index", index)
    monkeypatch.setattr(conflicts, "_stem_users", stem_users)
    return calls


def _region_lines(chunks):
    return sum(len(c.main_lines) + len(c.fork_lines) for c in chunks)


def _apply(tmp_path, programs):
    args = []
    for i, program in enumerate(programs):
        path = tmp_path / f"p{i}.json"
        path.write_text(serialize_program(program), encoding="utf-8")
        args += ["--program", str(path)]
    target = tmp_path / "three.cc"
    target.write_text(THREE_TEXT, encoding="utf-8")
    assert main(["apply", *args, str(target), "--print"]) == 0


def test_apply_with_frequent_and_keyword_programs_reads_no_outside_line(tmp_path, capsys, outside_reads):
    _apply(tmp_path, [FS_PROGRAM, FB_PROGRAM])
    assert "<<<<<<<" in capsys.readouterr().out  # FB resolves c and d, not a
    # Only the region lines were tokenized, and no stem was searched for.
    assert sum(map(len, outside_reads["tokenized"])) == _region_lines(THREE)
    assert outside_reads["indexed"] == 0 and outside_reads["stem_searches"] == 0


def test_evaluate_with_frequent_and_keyword_programs_reads_no_outside_line(tmp_path, outside_reads):
    root = write_fig_corpus(tmp_path / "corpus")
    case_dir = root / "merge-003" / "case-three"
    case_dir.mkdir(parents=True)
    (case_dir / "conflict.txt").write_text(THREE_TEXT, encoding="utf-8")
    (case_dir / "resolved.txt").write_text("".join(fig_resolved_text(n) for n in THREE_CHUNKS), encoding="utf-8")
    cases = load_corpus(root)
    assert len(cases) == 4 + len(THREE_CHUNKS)
    result = evaluate([FS_PROGRAM, FB_PROGRAM], cases)
    assert result.suggested == 4  # c and d, alone and in the three-chunk file
    assert sum(map(len, outside_reads["tokenized"])) == _region_lines(case.conflict for case in cases)
    assert outside_reads["indexed"] == 0 and outside_reads["stem_searches"] == 0


def test_outside_index_is_built_once_per_file(tmp_path, capsys, outside_reads):
    _apply(tmp_path, [OUTSIDE_PROGRAM])
    assert '"suggested": 0' in capsys.readouterr().err
    # The outside lines were tokenized once, for all three chunks.
    assert sum(map(len, outside_reads["tokenized"])) == _region_lines(THREE) + len(THREE[0].context.outside_content)
    assert outside_reads["indexed"] == 1 and outside_reads["stem_searches"] == 0
