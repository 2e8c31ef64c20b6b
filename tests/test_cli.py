"""Tests for the command-line surface."""

import argparse
import dataclasses
import hashlib
import io
import json
import logging
import itertools
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from mergelearn import cli, synth
from mergelearn.cli import _build_config, _load_example_spec, _program_file_json, build_parser, main
from mergelearn.dsl import (
    Condition,
    Predicate,
    Program,
    W_BRANCH,
    W_CONSTANTS,
    W_INDEX,
    W_OPERATORS,
    W_PATTERN,
    SynthConfig,
    program_from_json,
    program_to_json,
    serialize_program,
)
from mergelearn.synth import learn

from conftest import (
    DUP_PROGRAM,
    FAILING_ERROR,
    FAILING_PROGRAM,
    FB_PROGRAM,
    OUTSIDE_AFTER,
    OUTSIDE_BEFORE,
    checkout_env,
    criterion3_cases,
    cut_by_guard_pairing,
    deep_program_text,
    fig_file_text,
    fig_resolved_text,
    marker_text,
    multi_example_cases,
    write_fig_corpus,
)


def write_example_spec(tmp_path, names, newline="\n"):
    """Write conflict/resolution files, with ``newline`` line endings, plus the JSON example spec."""
    entries = []
    for name in names:
        conflict = tmp_path / f"conflict_{name}.txt"
        conflict.write_bytes(fig_file_text(name).replace("\n", newline).encode("utf-8"))
        resolution = tmp_path / f"resolution_{name}.txt"
        from conftest import FIG1_REGIONS

        resolution.write_bytes(newline.join((*FIG1_REGIONS[name]["resolution"], "")).encode("utf-8"))
        entries.append(
            {
                "conflict": conflict.name,
                "resolution": resolution.name,
                "file_path": f"ui/base/sample_{name}.cc",
            }
        )
    spec = tmp_path / "examples.json"
    spec.write_text(json.dumps(entries, indent=2), encoding="utf-8")
    return spec


def write_program(tmp_path, program, name="program.json"):
    path = tmp_path / name
    path.write_text(serialize_program(program), encoding="utf-8")
    return path


def test_learn_writes_fb_program(tmp_path, capsys):
    spec = write_example_spec(tmp_path, ["c", "d"])
    out = tmp_path / "fb.json"
    code = main(["learn", "--examples", str(spec), "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert program_from_json(data) == FB_PROGRAM
    assert data["meta"]["rank"] == 0
    assert "spec_hash" in data["meta"]
    stdout = capsys.readouterr().out
    assert "rank=0" in stdout and "score=" in stdout


def test_learn_contradictory_examples_exit_1(tmp_path, capsys):
    spec = write_example_spec(tmp_path, ["c"])
    entries = json.loads(spec.read_text(encoding="utf-8"))
    # Same conflict, different expected resolution: unsatisfiable.
    other = tmp_path / "resolution_other.txt"
    other.write_text('#include "base/logging.h"\n#include "base/web.h"\n', encoding="utf-8")
    entries.append({**entries[0], "resolution": other.name})
    spec.write_text(json.dumps(entries), encoding="utf-8")
    code = main(["learn", "--examples", str(spec), "--out", str(tmp_path / "x.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert "no consistent program" in err
    assert err == f"error: {spec}: no consistent program found for the given examples\n"


def test_learn_top_n_emits_rank_ordered_array(tmp_path, capsys):
    spec = write_example_spec(tmp_path, ["a"])
    out = tmp_path / "top.json"
    code = main(["learn", "--examples", str(spec), "--out", str(out), "--top", "3"])
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert isinstance(data, list) and len(data) == 3
    assert program_from_json(data[0]) == DUP_PROGRAM
    scores = [entry["meta"]["score"] for entry in data]
    assert scores == sorted(scores)


def _write_cases(tmp_path, cases):
    """Write each case's conflict and resolution files, and the example spec naming them."""
    entries = []
    for i, (conflict, output) in enumerate(cases):
        (tmp_path / f"conflict{i}.txt").write_text(marker_text(conflict.fork_lines, conflict.main_lines),
                                                   encoding="utf-8")
        (tmp_path / f"resolution{i}.txt").write_text("".join(node.raw_text + "\n" for node in output),
                                                     encoding="utf-8")
        entries.append({"conflict": f"conflict{i}.txt", "resolution": f"resolution{i}.txt",
                        "file_path": conflict.file_path})
    spec = tmp_path / "examples.json"
    spec.write_text(json.dumps(entries), encoding="utf-8")
    return spec


def test_learn_top_merges_only_the_programs_it_writes(tmp_path, capsys, caplog, monkeypatch):
    # A spec whose ranked list the cap cuts: --top 3 lists no more than the
    # three programs it writes and says nothing of the cut; a --top past the
    # cap reads far enough to learn of it, and logs it.
    cases = cut_by_guard_pairing()[0]
    (conflict, output), = cases
    spec = _write_cases(tmp_path, cases)
    (loaded, loaded_output), = _load_example_spec(spec, "fork-first")[0].cases
    assert loaded_output == output and loaded.context.outside_content == conflict.context.outside_content
    assert (loaded.file_path, loaded.main_lines, loaded.fork_lines) == (conflict.file_path, conflict.main_lines,
                                                                         conflict.fork_lines)
    learned = []

    def recorded(*args):
        learned.append(learn(*args))
        return learned[-1]

    monkeypatch.setattr(cli, "learn", recorded)
    with caplog.at_level(logging.WARNING, logger="mergelearn.synth"):
        assert main(["learn", "--examples", str(spec), "--out", str(tmp_path / "top3.json"), "--top", "3"]) == 0
        assert len(learned[-1]._entries) <= 3
        assert "results may be incomplete" not in caplog.text
        monkeypatch.setattr(synth, "MAX_PROGRAMS", 5)
        assert main(["learn", "--examples", str(spec), "--out", str(tmp_path / "top6.json"), "--top", "6"]) == 0
    assert "results may be incomplete" in caplog.text
    assert len(json.loads((tmp_path / "top6.json").read_text(encoding="utf-8"))) == 5
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote 5 program(s) to {tmp_path / 'top6.json'}"


def test_learn_top_writes_the_first_programs_of_the_ranked_list(tmp_path, capsys):
    # --top reads a prefix of the ranked list; at every length, including
    # one past its end, the file and rank lines are those of the full list.
    spec_path = write_example_spec(tmp_path, ["c", "d"])
    spec, spec_data = _load_example_spec(spec_path, "fork-first")
    assert spec_data == spec_path.read_bytes()
    ranked = list(learn(spec))
    spec_hash = hashlib.sha256(spec_data).hexdigest()
    for top in (1, 3, len(ranked) + 5):
        out = tmp_path / f"top{top}.json"
        assert main(["learn", "--examples", str(spec_path), "--out", str(out), "--top", str(top)]) == 0
        expected = [_program_file_json(entry, SynthConfig(), spec_hash, i) for i, entry in enumerate(ranked[:top])]
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data == (expected[0] if top == 1 else expected)
        lines = capsys.readouterr().out.splitlines()
        rank_lines = [f"rank={i} score={entry.score:g} " + " ".join(f"{k}={v}" for k, v in entry.features.items())
                      for i, entry in enumerate(ranked[:top])]
        assert lines == [*rank_lines, f"wrote {len(expected)} program(s) to {out}"]


def test_learned_scores_are_the_weighted_sums_of_their_features(tmp_path, capsys):
    # A learned program's guard names every Pattern key its transformation
    # selects, so each Pattern selection earns its credit and the score is
    # the cost model's weighted sum of the features in its program file.
    specs = list(itertools.islice(criterion3_cases(random.Random(0xFEA7)), 40))
    specs += itertools.islice(multi_example_cases(random.Random(0xFEA8)), 10)
    specs += cut_by_guard_pairing()
    checked = 0
    for i, cases in enumerate(specs):
        (tmp_path / str(i)).mkdir()
        out = tmp_path / str(i) / "top.json"
        assert main(["learn", "--examples", str(_write_cases(tmp_path / str(i), cases)), "--out", str(out),
                     "--top", "50"]) == 0
        programs = json.loads(out.read_text(encoding="utf-8"))
        for program in programs if isinstance(programs, list) else [programs]:
            f = program["meta"]["features"]
            assert program["meta"]["score"] == (
                W_OPERATORS * f["operators"] + W_CONSTANTS * f["constants"] + W_INDEX * f["index_selections"]
                - W_PATTERN * f["pattern_selections"] - W_BRANCH * f["branch_selections"]), program
            checked += 1
    assert checked >= 1_000


def test_learn_max_depth_zero_is_usage_error(tmp_path, capsys):
    spec = write_example_spec(tmp_path, ["c", "d"])
    code = main(["learn", "--examples", str(spec), "--out", str(tmp_path / "x.json"), "--max-depth", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --max-depth") and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("content", [None, "{not json", '["EDGEONLY"]', '{"fork": "EDGEONLY"}', '{"fork": [""]}'])
def test_bad_keywords_file_is_clean_error(tmp_path, capsys, monkeypatch, content):
    keywords = tmp_path / "keywords.json"
    if content is not None:
        keywords.write_text(content, encoding="utf-8")
    monkeypatch.setenv("MERGELEARN_KEYWORDS", str(keywords))
    spec = write_example_spec(tmp_path, ["c", "d"])
    code = main(["learn", "--examples", str(spec), "--out", str(tmp_path / "x.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MERGELEARN_KEYWORDS") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["learn", "apply", "eval"])
def test_deeply_nested_keywords_file_is_one_error_line(tmp_path, capsys, monkeypatch, command):
    keywords = tmp_path / "keywords.json"
    keywords.write_text("[" * 100_000, encoding="utf-8")
    monkeypatch.setenv("MERGELEARN_KEYWORDS", str(keywords))
    program = write_program(tmp_path, FB_PROGRAM)
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    argv = {
        "learn": ["learn", "--examples", str(write_example_spec(tmp_path, ["c", "d"])),
                  "--out", str(tmp_path / "x.json")],
        "apply": ["apply", "--program", str(program), str(target), "--print"],
        "eval": ["eval", "--program", str(program), str(write_fig_corpus(tmp_path / "corpus")), "--report", "-"],
    }[command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: MERGELEARN_KEYWORDS: ") and captured.err.count("\n") == 1


def test_build_config_sets_every_field(tmp_path, monkeypatch):
    keywords = tmp_path / "keywords.json"
    keywords.write_text('{"fork": ["EDGE_ONLY"], "main": ["UPSTREAM_ONLY"]}', encoding="utf-8")
    monkeypatch.setenv("MERGELEARN_KEYWORDS", str(keywords))
    parser = build_parser()
    learn_args = parser.parse_args(["learn", "--examples", "e.json", "--out", "o.json", "--max-depth", "2"])
    eval_args = parser.parse_args(["eval", "--program", "p.json", "root", "--report", "-",
                                   "--order-insensitive-includes"])
    config = _build_config(argparse.Namespace(**(vars(learn_args) | vars(eval_args))))
    for field in dataclasses.fields(SynthConfig):
        assert getattr(config, field.name) != field.default, field.name


def test_learn_unreadable_spec_exit_1(tmp_path, capsys):
    code = main(["learn", "--examples", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.json")])
    assert code == 1


@pytest.mark.parametrize("change, message", [
    (lambda entry: [1], "expected an object, found [1]"),
    (lambda entry: {"resolution": entry["resolution"]}, 'missing "conflict"'),
    (lambda entry: {"conflict": entry["conflict"]}, 'missing "resolution"'),
    (lambda entry: entry | {"conflict": 5}, '"conflict" must be a string, found 5'),
    (lambda entry: entry | {"resolution": None}, '"resolution" must be a string, found null'),
    (lambda entry: entry | {"file_path": 7}, '"file_path" must be a string, found 7'),
])
def test_learn_malformed_example_entry_is_clean_error(tmp_path, capsys, change, message):
    spec = write_example_spec(tmp_path, ["c", "d"])
    entries = json.loads(spec.read_text(encoding="utf-8"))
    entries[1] = change(entries[1])
    spec.write_text(json.dumps(entries), encoding="utf-8")
    code = main(["learn", "--examples", str(spec), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {spec}: example 1: {message}\n"
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("key", ["conflict", "resolution"])
def test_learn_example_path_with_a_nul_names_the_spec(tmp_path, capsys, key):
    spec = write_example_spec(tmp_path, ["c", "d"])
    entries = json.loads(spec.read_text(encoding="utf-8"))
    entries[1][key] = "a\u0000b"
    spec.write_text(json.dumps(entries), encoding="utf-8")
    code = main(["learn", "--examples", str(spec), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert capsys.readouterr().err == f'error: {spec}: example 1: "{key}" must not contain a NUL character\n'
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("content", ["[]", "{}", '"examples"'])
def test_learn_spec_that_is_not_a_non_empty_array_is_named(tmp_path, capsys, content):
    spec = tmp_path / "examples.json"
    spec.write_text(content, encoding="utf-8")
    code = main(["learn", "--examples", str(spec), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {spec}: expected a non-empty JSON array of examples\n"


@pytest.mark.parametrize("content, found", [("no markers\n", 0), (fig_file_text("c") + fig_file_text("d"), 2)])
def test_learn_example_file_needs_exactly_one_conflict(tmp_path, capsys, content, found):
    spec = write_example_spec(tmp_path, ["c", "d"])
    (tmp_path / "conflict_d.txt").write_text(content, encoding="utf-8")
    code = main(["learn", "--examples", str(spec), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'conflict_d.txt'}: example files must contain exactly one conflict, found {found}\n")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("target, content", [
    ("examples.json", b"{not json"),
    ("examples.json", b"\xff[]"),
    ("conflict_d.txt", b"\xff<<<<<<<"),
    ("resolution_d.txt", b"\xff"),
])
def test_learn_unparsable_example_file_is_named(tmp_path, capsys, target, content):
    spec = write_example_spec(tmp_path, ["c", "d"])
    (tmp_path / target).write_bytes(content)
    code = main(["learn", "--examples", str(spec), "--out", str(tmp_path / "x.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / target}: ") and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


def test_learn_deeply_nested_spec_is_named(tmp_path, capsys):
    spec = tmp_path / "examples.json"
    spec.write_text("[" * 100_000, encoding="utf-8")
    code = main(["learn", "--examples", str(spec), "--out", str(tmp_path / "x.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: ") and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("content, detail", [
    ("<<<<<<< a\nx\n", ": unterminated conflict at end of file"),
    ("x\n>>>>>>> b\n", ":2: end marker without a matching start marker"),
])
def test_learn_unbalanced_example_names_the_conflict_file(tmp_path, capsys, content, detail):
    # The entry's file_path is a logical path that need not exist on disk.
    spec = write_example_spec(tmp_path, ["c", "d"])
    (tmp_path / "conflict_d.txt").write_text(content, encoding="utf-8")
    code = main(["learn", "--examples", str(spec), "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'conflict_d.txt'}{detail}\n"
    assert not (tmp_path / "x.json").exists()


def test_apply_print_resolves_fig1c(tmp_path, capsys):
    program = write_program(tmp_path, FB_PROGRAM)
    target = tmp_path / "conflicted.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    code = main(["apply", "--program", str(program), str(target), "--print"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == fig_resolved_text("c")
    assert "<<<<<<<" not in captured.out
    summary = json.loads(captured.err.strip().splitlines()[-1])
    assert summary["total"] == 1 and summary["suggested"] == 1 and not summary["written"]
    # --print never touches the filesystem.
    assert target.read_text(encoding="utf-8") == fig_file_text("c")


def test_apply_guard_false_leaves_file_untouched(tmp_path, capsys):
    program = write_program(tmp_path, FB_PROGRAM)
    target = tmp_path / "a.cc"
    target.write_text(fig_file_text("a"), encoding="utf-8")
    code = main(["apply", "--program", str(program), str(target), "--in-place"])
    captured = capsys.readouterr()
    assert code == 0  # non-suggestion is not failure
    summary = json.loads(captured.err.strip().splitlines()[-1])
    assert summary["suggested"] == 0 and not summary["written"]
    assert target.read_text(encoding="utf-8") == fig_file_text("a")


def test_apply_in_place_rewrites_fully_suggested_file(tmp_path, capsys):
    program = write_program(tmp_path, FB_PROGRAM)
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    code = main(["apply", "--program", str(program), str(target), "--in-place"])
    assert code == 0
    assert target.read_text(encoding="utf-8") == fig_resolved_text("c")
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["written"]


def test_apply_in_place_keeps_crlf_and_file_mode(tmp_path, capsys):
    program = write_program(tmp_path, FB_PROGRAM)
    target = tmp_path / "c.cc"
    target.write_bytes(fig_file_text("c").replace("\n", "\r\n").encode("utf-8"))
    target.chmod(0o640)
    assert main(["apply", "--program", str(program), str(target), "--in-place"]) == 0
    assert target.read_bytes() == fig_resolved_text("c").replace("\n", "\r\n").encode("utf-8")
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cc", "program.json"]


def test_apply_in_place_through_a_symlink_replaces_its_target(tmp_path, capsys):
    program = write_program(tmp_path, FB_PROGRAM)
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "link.cc"
    link.symlink_to(Path("real") / "c.cc")
    assert main(["apply", "--program", str(program), str(link), "--in-place"]) == 0
    assert link.is_symlink() and os.readlink(link) == str(Path("real") / "c.cc")
    assert target.read_text(encoding="utf-8") == fig_resolved_text("c")
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["c.cc", "link.cc", "program.json", "real"]
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary == {"file": str(link), "total": 1, "suggested": 1, "written": True}


@pytest.mark.parametrize("mode", ["--in-place", "--print", "--diff"])
def test_apply_names_a_conflicted_file_that_is_not_utf8(tmp_path, capsys, mode):
    program = write_program(tmp_path, FB_PROGRAM)
    target = tmp_path / "c.cc"
    content = b"\xff" + fig_file_text("c").replace("\n", "\r\n").encode("utf-8")
    target.write_bytes(content)
    assert main(["apply", "--program", str(program), str(target), mode]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {target}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1
    assert target.read_bytes() == content


def test_apply_in_place_failed_rename_leaves_file_untouched(tmp_path, capsys, monkeypatch):
    program = write_program(tmp_path, FB_PROGRAM)
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    code = main(["apply", "--program", str(program), str(target), "--in-place"])
    assert code == 1
    assert capsys.readouterr().err == "error: rename failed\n"
    assert target.read_text(encoding="utf-8") == fig_file_text("c")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cc", "program.json"]


@pytest.mark.parametrize("command", ["apply", "learn", "learn-examples", "classify", "eval"])
def test_a_path_holding_a_nul_is_named(tmp_path, capsys, command):
    # An argument of a shell command cannot hold a NUL; one from a caller of main can.
    bad = str(tmp_path / "a\0b.json")
    corpus = str(write_fig_corpus(tmp_path / "corpus"))
    program = str(write_program(tmp_path, FB_PROGRAM))
    argv = {
        "apply": ["apply", "--program", program, bad, "--print"],
        "learn": ["learn", "--examples", str(write_example_spec(tmp_path, ["c", "d"])), "--out", bad],
        "learn-examples": ["learn", "--examples", bad, "--out", str(tmp_path / "out.json")],
        "classify": ["classify", corpus, "--report", bad],
        "eval": ["eval", "--program", program, corpus, "--report", bad],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: embedded null byte\n"


@pytest.mark.parametrize("command", ["apply", "learn-out", "learn-examples", "eval"])
def test_a_path_holding_a_line_break_is_named_on_one_line(tmp_path, capsys, command):
    # The error line escapes each CR and LF of the name, so it stays one line.
    def escaped(path):
        return str(path).replace("\r", "\\r").replace("\n", "\\n")

    program = str(write_program(tmp_path, FB_PROGRAM))
    if command == "apply":
        bad = tmp_path / "a\r\nb.cc"
        bad.write_bytes(b"\xff" + fig_file_text("c").encode("utf-8"))
        argv = ["apply", "--program", program, str(bad), "--print"]
        detail = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    elif command == "learn-out":
        bad = tmp_path / "a\r\nb\0.json"
        argv = ["learn", "--examples", str(write_example_spec(tmp_path, ["c", "d"])), "--out", str(bad)]
        detail = "embedded null byte"
    elif command == "learn-examples":
        (tmp_path / "a\r\nb").mkdir()
        bad = write_example_spec(tmp_path / "a\r\nb", ["c"])
        (bad.parent / "resolution_other.txt").write_text('#include "base/web.h"\n', encoding="utf-8")
        entries = json.loads(bad.read_text(encoding="utf-8"))
        bad.write_text(json.dumps([*entries, {**entries[0], "resolution": "resolution_other.txt"}]),
                       encoding="utf-8")
        argv = ["learn", "--examples", str(bad), "--out", str(tmp_path / "x.json")]
        detail = "no consistent program found for the given examples"
    else:
        bad = tmp_path / "a\r\nb.json"
        bad.write_text("{not json", encoding="utf-8")
        argv = ["eval", "--program", str(bad), str(write_fig_corpus(tmp_path / "corpus")), "--report", "-"]
        detail = "invalid JSON at position 1: Expecting property name enclosed in double quotes"
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {escaped(bad)}: {detail}\n"


@pytest.mark.parametrize("command", ["learn", "classify", "eval"])
def test_unwritable_output_is_clean_error(tmp_path, capsys, command):
    unwritable = str(tmp_path / "missing" / "out.json")
    corpus = str(write_fig_corpus(tmp_path / "corpus"))
    program = str(write_program(tmp_path, FB_PROGRAM))
    argv = {
        "learn": ["learn", "--examples", str(write_example_spec(tmp_path, ["c", "d"])), "--out", unwritable],
        "classify": ["classify", corpus, "--report", unwritable],
        "eval": ["eval", "--program", program, corpus, "--report", unwritable],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_apply_partial_keeps_unsuggested_markers(tmp_path, capsys):
    program = write_program(tmp_path, FB_PROGRAM)
    two_chunks = fig_file_text("c") + fig_file_text("a")
    target = tmp_path / "two.cc"
    target.write_text(two_chunks, encoding="utf-8")

    # Without --partial the file must stay untouched.
    code = main(["apply", "--program", str(program), str(target), "--in-place"])
    assert code == 0
    assert target.read_text(encoding="utf-8") == two_chunks

    code = main(["apply", "--program", str(program), str(target), "--in-place", "--partial"])
    assert code == 0
    rewritten = target.read_text(encoding="utf-8")
    assert '#include "base/scoped_native_library.h"' in rewritten
    assert rewritten.count("<<<<<<<") == 1  # the unsuggested chunk keeps markers
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary == {"file": str(target), "total": 2, "suggested": 1, "written": True}


def test_apply_multiple_programs_first_guard_wins(tmp_path, capsys):
    fb = write_program(tmp_path, FB_PROGRAM, "fb.json")
    dup = write_program(tmp_path, DUP_PROGRAM, "dup.json")
    target = tmp_path / "a.cc"
    target.write_text(fig_file_text("a"), encoding="utf-8")
    code = main(["apply", "--program", str(fb), "--program", str(dup), str(target), "--print"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == fig_resolved_text("a")


def test_apply_notes_a_failing_program_and_falls_through_to_the_next(tmp_path, capsys):
    failing = write_program(tmp_path, FAILING_PROGRAM, "failing.json")
    dup = write_program(tmp_path, DUP_PROGRAM, "dup.json")
    target = tmp_path / "a.cc"
    target.write_text(fig_file_text("a"), encoding="utf-8")
    code = main(["apply", "--program", str(failing), "--program", str(dup), str(target), "--print"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == fig_resolved_text("a")
    assert captured.err == (
        f"note: program 0 failed on chunk 0: {FAILING_ERROR}\n"
        + json.dumps({"file": str(target), "total": 1, "suggested": 1, "written": False}) + "\n")


def test_apply_diff_mode(tmp_path, capsys):
    program = write_program(tmp_path, FB_PROGRAM)
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    code = main(["apply", "--program", str(program), str(target), "--diff"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("---")
    assert "-<<<<<<< fork" in captured.out
    assert target.read_text(encoding="utf-8") == fig_file_text("c")


def test_apply_bad_program_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    code = main(["apply", "--program", str(bad), str(target), "--print"])
    assert code == 1


def _duplicate_predicates() -> bytes:
    obj = program_to_json(FB_PROGRAM)
    obj["apply"]["condition"] *= 2
    return json.dumps(obj).encode()


@pytest.mark.parametrize("command", ["apply", "eval"])
@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}", _duplicate_predicates(), b"[]"],
                         ids=["not-json", "not-utf8", "duplicate-predicates", "empty-array"])
def test_bad_program_file_is_one_error_line(tmp_path, capsys, command, content):
    # The bad file comes after a good one, and the error line names it.
    good = write_program(tmp_path, FB_PROGRAM, "good.json")
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    corpus = write_fig_corpus(tmp_path / "corpus")
    rest = [str(target), "--print"] if command == "apply" else [str(corpus), "--report", "-"]
    code = main([command, "--program", str(good), "--program", str(bad), *rest])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


# A JSON fault on the third line. Read in text mode, CRLF endings become LF,
# so the fault is at character 26, not at byte 28.
_FAULT_ON_LINE_3 = '{\n  "dslv": 1,\n  "apply": oops\n}\n'
_GOOD_PROGRAM = serialize_program(FB_PROGRAM).encode()


@pytest.mark.parametrize("command", ["apply", "eval"])
@pytest.mark.parametrize("content, detail", [
    (_FAULT_ON_LINE_3.replace("\n", "\r\n").encode(), "invalid JSON at position 26: Expecting value"),
    # A lone CR reads as LF, one character for one; a reader that dropped CRs would say 24.
    (_FAULT_ON_LINE_3.replace("\n", "\r").encode(), "invalid JSON at position 26: Expecting value"),
    (b"\xef\xbb\xbf" + _GOOD_PROGRAM,
     "invalid JSON at position 0: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    # Past the first 8 KiB, where a text-mode buffer would be refilled: the
    # position counts from the start of the file.
    (_GOOD_PROGRAM[:-1] + b" " * 9000 + b"\xff\n",
     f"'utf-8' codec can't decode byte 0xff in position {len(_GOOD_PROGRAM) - 1 + 9000}: invalid start byte"),
], ids=["crlf", "lone-cr", "bom", "not-utf8-past-8KiB"])
def test_a_program_file_reads_as_text_mode_read_it(tmp_path, capsys, command, content, detail):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    corpus = write_fig_corpus(tmp_path / "corpus")
    rest = [str(target), "--print"] if command == "apply" else [str(corpus), "--report", "-"]
    code = main([command, "--program", str(bad), *rest])
    assert (code, capsys.readouterr().err) == (1, f"error: {bad}: {detail}\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
def test_a_program_file_with_cr_line_endings_applies_as_with_lf(tmp_path, capsys, newline):
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    outputs = []
    for name, ending in (("lf.json", "\n"), ("cr.json", newline)):
        program = tmp_path / name
        program.write_bytes(_GOOD_PROGRAM.replace(b"\n", ending.encode()))
        code = main(["apply", "--program", str(program), str(target), "--print"])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1] == (0, fig_resolved_text("c"))


@pytest.mark.parametrize("command", ["apply", "eval"])
@pytest.mark.parametrize("content", ["[" * 100_000, deep_program_text(600)], ids=["brackets", "concat-chain"])
def test_deeply_nested_program_file_is_one_error_line(tmp_path, capsys, command, content):
    deep = tmp_path / "deep.json"
    deep.write_text(content, encoding="utf-8")
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    corpus = write_fig_corpus(tmp_path / "corpus")
    rest = [str(target), "--print"] if command == "apply" else [str(corpus), "--report", "-"]
    code = main([command, "--program", str(deep), *rest])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {deep}: ") and err.count("\n") == 1


def test_apply_program_with_an_unknown_operator_is_one_error_line(tmp_path, capsys):
    obj = program_to_json(FB_PROGRAM)
    obj["apply"]["transform"] = {"swap": [{"tag": "Main"}, {"tag": "Fork"}]}
    bad = tmp_path / "swap.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    code = main(["apply", "--program", str(bad), str(target), "--print"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {bad}: apply.transform: unknown operator 'swap'\n"


def test_apply_program_with_an_empty_include_path_is_one_error_line(tmp_path, capsys):
    # No include path is empty, so a selection naming one is a bad program.
    obj = program_to_json(FB_PROGRAM)
    obj["apply"]["transform"] = {"select": {"tag": "MainByPath", "path": ""}}
    bad = tmp_path / "empty-path.json"
    bad.write_text(json.dumps(obj), encoding="utf-8")
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    code = main(["apply", "--program", str(bad), str(target), "--print"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ") and captured.err.count("\n") == 1


def test_apply_in_place_keeps_a_lone_blank_line(tmp_path):
    program = write_program(tmp_path, FB_PROGRAM)
    target = tmp_path / "blank.cc"
    target.write_text("\n", encoding="utf-8")
    code = main(["apply", "--program", str(program), str(target), "--in-place"])
    assert code == 0
    assert target.read_text(encoding="utf-8") == "\n"


def test_apply_in_place_leaves_a_file_without_chunks_alone(tmp_path, capsys):
    program = write_program(tmp_path, FB_PROGRAM)
    target = tmp_path / "plain.cc"
    target.write_text("int x;\n", encoding="utf-8")
    inode = target.stat().st_ino
    code = main(["apply", "--program", str(program), str(target), "--in-place"])
    assert code == 0
    assert target.stat().st_ino == inode
    assert target.read_text(encoding="utf-8") == "int x;\n"
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary == {"file": str(target), "total": 0, "suggested": 0, "written": False}


def test_classify_reports_fig_corpus(tmp_path, capsys):
    corpus = write_fig_corpus(tmp_path / "corpus")
    report_path = tmp_path / "report.json"
    code = main(["classify", str(corpus), "--report", str(report_path)])
    assert code == 0
    data = json.loads(report_path.read_text(encoding="utf-8"))
    assert data["total"] == 4
    assert data["file_types"] == {"C++": 4}
    assert data["locations"] == {"Include": 4}
    assert data["main_sizes"] == {"1-2": 4}
    table = capsys.readouterr().out
    assert "cases: 4" in table


def _add_case(root, merge, name, fork, main_lines, resolution, meta):
    case_dir = root / merge / name
    case_dir.mkdir(parents=True)
    case_dir.joinpath("conflict.txt").write_text(marker_text(fork, main_lines), encoding="utf-8")
    resolved = "\n".join([*OUTSIDE_BEFORE, *resolution, *OUTSIDE_AFTER]) + "\n"
    case_dir.joinpath("resolved.txt").write_text(resolved, encoding="utf-8")
    case_dir.joinpath("meta.json").write_text(json.dumps(meta), encoding="utf-8")


def _add_mixed_cases(root):
    """Cases beyond Figure 1: other file types, sizes and locations, a
    missing label and labels outside ``RESOLUTION_LABELS``."""
    _add_case(root, "merge-003", "case-deps", ["'src/a': Var('a'),", "'src/b': Var('b'),", "'src/c': Var('c'),"],
              ["'src/a': Var('x'),"] * 5, ["'src/a': Var('x'),"], {"file_path": "DEPS", "label": "Weird"})
    _add_case(root, "merge-003", "case-build", ['deps = [ ":a" ]'], ['deps = [ ":b" ]'], ['deps = [ ":b" ]'],
              {"file_path": "ui/BUILD.gn", "label": "Aardvark"})
    _add_case(root, "merge-003", "case-cond", ["if (a) {", "int x = 1;"], ["if (b) {"], ["if (b) {"],
              {"file_path": "ui/x.h"})


_FIG_REPORT_JSON = (
    '{\n  "total": 4,\n  "file_types": {\n    "C++": 4\n  },\n  "main_sizes": {\n    "1-2": 4\n  },\n'
    '  "fork_sizes": {\n    "1-2": 4\n  },\n  "locations": {\n    "Include": 4\n  },\n'
    '  "labels": {\n    "FB": 2,\n    "RD": 2\n  }\n}\n'
)
_FIG_REPORT_TABLE = (
    "cases: 4\n\nfile type\n  C++  4\n\nmain size\n  1-2  4\n\nfork size\n  1-2  4\n\n"
    "location\n  Include  4\n\nlabel\n  FB  2\n  RD  2\n"
)
_MIXED_REPORT_JSON = (
    '{\n  "total": 7,\n  "file_types": {\n    "C++": 4,\n    "Dependency": 1,\n    "Headers": 1,\n'
    '    "Build": 1\n  },\n  "main_sizes": {\n    "1-2": 6,\n    "5-6": 1\n  },\n'
    '  "fork_sizes": {\n    "1-2": 6,\n    "3-4": 1\n  },\n'
    '  "locations": {\n    "Condition": 1,\n    "Expression": 2,\n    "Include": 4\n  },\n'
    '  "labels": {\n    "FB": 2,\n    "RD": 2,\n    "unlabeled": 1,\n    "Aardvark": 1,\n    "Weird": 1\n  }\n}\n'
)
_MIXED_REPORT_TABLE = (
    "cases: 7\n\nfile type\n  C++         4\n  Dependency  1\n  Headers     1\n  Build       1\n\n"
    "main size\n  1-2  6\n  5-6  1\n\nfork size\n  1-2  6\n  3-4  1\n\n"
    "location\n  Condition   1\n  Expression  2\n  Include     4\n\n"
    "label\n  FB         2\n  RD         2\n  unlabeled  1\n  Aardvark   1\n  Weird      1\n"
)


@pytest.mark.parametrize(
    "mixed,expected_json,expected_table",
    [(False, _FIG_REPORT_JSON, _FIG_REPORT_TABLE), (True, _MIXED_REPORT_JSON, _MIXED_REPORT_TABLE)],
)
def test_classify_report_bytes_are_pinned(tmp_path, capsys, mixed, expected_json, expected_table):
    # Key order included: listed keys in their declared order, then any
    # others sorted, and no zero counts.
    corpus = write_fig_corpus(tmp_path / "corpus")
    if mixed:
        _add_mixed_cases(corpus)
    report_path = tmp_path / "report.json"
    assert main(["classify", str(corpus), "--report", str(report_path)]) == 0
    assert report_path.read_text(encoding="utf-8") == expected_json
    assert capsys.readouterr().out == expected_table


def test_classify_report_to_stdout(tmp_path, capsys):
    corpus = write_fig_corpus(tmp_path / "corpus")
    code = main(["classify", str(corpus), "--report", "-"])
    assert code == 0
    assert "cases: 4" in capsys.readouterr().out


def test_classify_missing_root_exit_1(tmp_path, capsys):
    code = main(["classify", str(tmp_path / "missing"), "--report", "-"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "eval"])
def test_corpus_root_that_is_a_file_is_named_so(tmp_path, capsys, command):
    program = write_program(tmp_path, FB_PROGRAM)
    args = ["--program", str(program)] if command == "eval" else []
    for root, why in ((program, "is not a directory"), (tmp_path / "missing", "does not exist")):
        code = main([command, *args, str(root), "--report", "-"])
        assert code == 1
        assert capsys.readouterr().err == f"error: corpus root {root} {why}\n"


def test_eval_fig_corpus_full_accuracy(tmp_path, capsys):
    corpus = write_fig_corpus(tmp_path / "corpus")
    fb = write_program(tmp_path, FB_PROGRAM, "fb.json")
    dup = write_program(tmp_path, DUP_PROGRAM, "dup.json")
    report_path = tmp_path / "eval.json"
    code = main(
        ["eval", "--program", str(fb), "--program", str(dup), str(corpus), "--report", str(report_path)]
    )
    assert code == 0
    data = json.loads(report_path.read_text(encoding="utf-8"))
    assert data["total"] == 4
    assert data["suggested"] == 4
    assert data["matched"] == 4
    assert data["accuracy"] == 1.0
    assert data["coverage"] == 1.0
    assert len(data["per_program"]) == 2
    table = capsys.readouterr().out
    assert "accuracy: 100.0%" in table


# FB_PROGRAM's transformation behind a guard no fig case satisfies.
_NEVER_PROGRAM = Program(
    Condition((Predicate("FrequentPattern", path="never/used.h"),)),
    FB_PROGRAM.transformation,
)


def test_eval_unrelated_program_zero_coverage(tmp_path, capsys):
    corpus = write_fig_corpus(tmp_path / "corpus")
    never = write_program(tmp_path, _NEVER_PROGRAM, "never.json")
    code = main(["eval", "--program", str(never), str(corpus), "--report", "-"])
    assert code == 0
    out = capsys.readouterr().out
    assert "coverage: 0.0%" in out
    assert "accuracy: N/A" in out


_EVAL_ALL_JSON = (
    '{\n  "total": 4,\n  "suggested": 4,\n  "matched": 4,\n  "mismatched": 0,\n'
    '  "no_suggestion": 0,\n  "accuracy": 1.0,\n  "coverage": 1.0,\n  "by_label": {\n'
    '    "FB": {\n      "total": 2,\n      "suggested": 2,\n      "matched": 2,\n'
    '      "mismatched": 0,\n      "no_suggestion": 0,\n      "accuracy": 1.0,\n'
    '      "coverage": 1.0\n    },\n    "RD": {\n      "total": 2,\n'
    '      "suggested": 2,\n      "matched": 2,\n      "mismatched": 0,\n'
    '      "no_suggestion": 0,\n      "accuracy": 1.0,\n      "coverage": 1.0\n    }\n'
    '  },\n  "per_program": [\n    {\n      "program": 0,\n      "total": 4,\n'
    '      "suggested": 2,\n      "matched": 2,\n      "mismatched": 0,\n'
    '      "no_suggestion": 2,\n      "accuracy": 1.0,\n      "coverage": 0.5\n    },\n'
    '    {\n      "program": 1,\n      "total": 2,\n      "suggested": 2,\n'
    '      "matched": 2,\n      "mismatched": 0,\n      "no_suggestion": 0,\n'
    '      "accuracy": 1.0,\n      "coverage": 1.0\n    },\n    {\n      "program": 2,\n'
    '      "total": 0,\n      "suggested": 0,\n      "matched": 0,\n'
    '      "mismatched": 0,\n      "no_suggestion": 0,\n      "accuracy": null,\n'
    '      "coverage": null\n    }\n  ]\n}\n'
)
_EVAL_ALL_TABLE = (
    "cases: 4  suggested: 4  matched: 4  accuracy: 100.0%  coverage: 100.0%\n"
    "  program[0]: suggested 2, matched 2, accuracy 100.0%\n"
    "  program[1]: suggested 2, matched 2, accuracy 100.0%\n"
    "  program[2]: suggested 0, matched 0, accuracy N/A\n"
    "  label FB: 2/2 matched of 2 cases\n  label RD: 2/2 matched of 2 cases\n"
)
_EVAL_NEVER_JSON = (
    '{\n  "total": 4,\n  "suggested": 0,\n  "matched": 0,\n  "mismatched": 0,\n'
    '  "no_suggestion": 4,\n  "accuracy": null,\n  "coverage": 0.0,\n  "by_label": {\n'
    '    "FB": {\n      "total": 2,\n      "suggested": 0,\n      "matched": 0,\n'
    '      "mismatched": 0,\n      "no_suggestion": 2,\n      "accuracy": null,\n'
    '      "coverage": 0.0\n    },\n    "RD": {\n      "total": 2,\n'
    '      "suggested": 0,\n      "matched": 0,\n      "mismatched": 0,\n'
    '      "no_suggestion": 2,\n      "accuracy": null,\n      "coverage": 0.0\n    }\n'
    '  },\n  "per_program": [\n    {\n      "program": 0,\n      "total": 4,\n'
    '      "suggested": 0,\n      "matched": 0,\n      "mismatched": 0,\n'
    '      "no_suggestion": 4,\n      "accuracy": null,\n      "coverage": 0.0\n    }\n'
    '  ]\n}\n'
)
_EVAL_NEVER_TABLE = (
    "cases: 4  suggested: 0  matched: 0  accuracy: N/A  coverage: 0.0%\n"
    "  program[0]: suggested 0, matched 0, accuracy N/A\n"
    "  label FB: 0/0 matched of 2 cases\n  label RD: 0/0 matched of 2 cases\n"
)


@pytest.mark.parametrize("names, expected_json, expected_table", [
    (("fb", "dup", "never"), _EVAL_ALL_JSON, _EVAL_ALL_TABLE),
    (("never",), _EVAL_NEVER_JSON, _EVAL_NEVER_TABLE),
], ids=["fb-dup-never", "never"])
def test_eval_report_bytes_are_pinned(tmp_path, capsys, names, expected_json, expected_table):
    # Key order included; a program tried on no case has null ratios, an
    # overall report with nothing suggested has accuracy null and coverage 0.0.
    corpus = write_fig_corpus(tmp_path / "corpus")
    programs = {"fb": FB_PROGRAM, "dup": DUP_PROGRAM, "never": _NEVER_PROGRAM}
    flags = [arg for name in names for arg in ("--program", str(write_program(tmp_path, programs[name], name)))]
    report_path = tmp_path / "eval.json"
    assert main(["eval", *flags, str(corpus), "--report", str(report_path)]) == 0
    assert report_path.read_text(encoding="utf-8") == expected_json
    assert capsys.readouterr().out == expected_table


def test_eval_empty_corpus_exit_1(tmp_path, capsys):
    empty = tmp_path / "corpus"
    empty.mkdir()
    program = write_program(tmp_path, FB_PROGRAM)
    code = main(["eval", "--program", str(program), str(empty), "--report", "-"])
    assert code == 1


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--print"])  # missing required --program and file
    assert exc.value.code == 2


def _call(argv):
    """``main(argv)``'s exit code, stdout and stderr, argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fig_target(tmp_path):
    """A program file and Fig. 1c's conflicted file, as ``apply --print`` argv."""
    program = write_program(tmp_path, FB_PROGRAM)
    target = tmp_path / "c.cc"
    target.write_text(fig_file_text("c"), encoding="utf-8")
    return ["apply", "--program", str(program), str(target), "--print"]


def test_the_parser_is_built_by_the_first_call_only(tmp_path, monkeypatch):
    argv = _fig_target(tmp_path)
    init = argparse.ArgumentParser.__init__
    built = []

    def counted(self, *args, **kwargs):
        built[-1] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    for _ in range(3):
        built.append(0)
        assert _call(argv)[0] == 0
    assert built[0] > 0 and built[1:] == [0, 0], built


def test_a_usage_error_leaves_nothing_for_the_next_call(tmp_path):
    argv = _fig_target(tmp_path)
    build_parser.cache_clear()
    alone = _call(argv)
    assert alone[:2] == (0, fig_resolved_text("c"))
    build_parser.cache_clear()
    code, out, err = _call(argv[:-1])  # no --print, --diff or --in-place
    assert (code, out) == (2, "") and "one of the arguments --print --in-place --diff is required" in err
    assert _call(argv) == alone


def test_help_wraps_to_the_columns_of_each_call(monkeypatch):
    description = "Learn merge-conflict resolution programs from examples and apply them."
    helps = []
    for columns in (40, 200, 40):
        monkeypatch.setenv("COLUMNS", str(columns))
        code, out, err = _call(["--help"])
        assert (code, err) == (0, "")
        helps.append(out.splitlines())
    assert description in helps[1]
    assert ["Learn merge-conflict resolution", "programs from examples and apply them."] == [
        line for line in helps[0] if line.startswith(("Learn", "programs"))]
    assert helps[2] == helps[0]


@pytest.mark.parametrize("command, indent", [("classify", 2), ("eval", 7)])
def test_report_help_says_that_dash_writes_no_json(monkeypatch, command, indent):
    monkeypatch.setenv("COLUMNS", "200")
    code, out, err = _call([command, "--help"])
    assert (code, err) == (0, "")
    assert ("  --report REPORT" + " " * indent + "JSON report path; with -, no JSON is written "
            "(the summary table goes to stdout either way)") in out.splitlines()


def test_a_batch_of_in_process_calls_gives_what_separate_processes_give(tmp_path):
    # Five files of Fig. 1 chunks, one of them CRLF and one not UTF-8.
    rng = random.Random(0xBA7C)
    fb = write_program(tmp_path, FB_PROGRAM, "fb.json")
    dup = write_program(tmp_path, DUP_PROGRAM, "dup.json")
    argvs = []
    for i in range(5):
        text = "".join(fig_file_text(name) for name in rng.choices("abcd", k=rng.randint(1, 3)))
        data = text.replace("\n", "\r\n").encode("utf-8") if i == 3 else text.encode("utf-8")
        target = tmp_path / f"file{i}.cc"
        target.write_bytes(b"\xff" + data if i == 4 else data)
        argvs.append(["apply", "--program", str(fb), "--program", str(dup), "--print", str(target)])
    batch = [_call(argv) for argv in argvs]
    separate = [_run_module(*argv) for argv in argvs]
    assert batch == [(run.returncode, run.stdout, run.stderr) for run in separate]
    assert [code for code, _, _ in batch] == [0, 0, 0, 0, 1]


def _run_module(*args, module="mergelearn"):
    """``python -m <module>`` as a separate process, importing this checkout's package."""
    return subprocess.run([sys.executable, "-m", module, *args], capture_output=True, text=True,
                          env=checkout_env(), timeout=60)


_CLASSIFY_EACH_ROOT = """
import contextlib, io, json, sys
from mergelearn.cli import main
captured = []
for root in sys.argv[1:]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        main(["classify", root, "--report", "-"])
    captured.append(err.getvalue())
print(json.dumps(captured))
"""


def test_each_call_logs_to_its_own_stderr(tmp_path):
    # In a subprocess: under pytest a root handler is already installed, so main configures no logging.
    skipped = []
    for name in ("first", "second"):
        skipped.append(write_fig_corpus(tmp_path / name) / "merge-003" / f"{name}-bad")
        skipped[-1].mkdir(parents=True)
    run = subprocess.run([sys.executable, "-c", _CLASSIFY_EACH_ROOT, *(str(path.parents[1]) for path in skipped)],
                         capture_output=True, text=True, env=checkout_env(), timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout) == [f"WARNING mergelearn.corpus: skipping {path}: no conflict.txt\n"
                                      for path in skipped]


@pytest.mark.parametrize("command", ["classify", "eval"])
def test_a_corpus_with_no_usable_case_prints_one_error_line(tmp_path, command):
    # In a subprocess, where main's logging writes to stderr: the skip is named in the error line, not logged.
    case = tmp_path / "corpus" / "merge-0" / "case-0"
    case.mkdir(parents=True)
    (case / "conflict.txt").write_text(fig_file_text("c"), encoding="utf-8")
    programs = ["--program", str(write_program(tmp_path, FB_PROGRAM))] if command == "eval" else []
    run = _run_module(command, *programs, str(tmp_path / "corpus"), "--report", "-")
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == (f"error: no usable cases under {tmp_path / 'corpus'} "
                          f"(1 skipped; the first: {case}: missing resolution)\n")


def test_learn_reads_a_fifo_spec_once(tmp_path):
    # A FIFO yields its bytes to one reader: a second open would wait for a writer that never comes.
    spec = write_example_spec(tmp_path, ["c", "d"])
    data = spec.read_bytes()
    fifo = tmp_path / "examples.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as f:
            f.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    out = tmp_path / "fb.json"
    try:
        run = subprocess.run([sys.executable, "-m", "mergelearn", "learn", "--examples", str(fifo), "--out", str(out)],
                             capture_output=True, text=True, env=checkout_env(), timeout=30)
    finally:
        if writer.is_alive():  # the command never opened the FIFO: let the writer's open return
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(5)
    assert not writer.is_alive()
    assert (run.returncode, run.stderr) == (0, "")
    learned = json.loads(out.read_text(encoding="utf-8"))
    assert program_from_json(learned) == FB_PROGRAM
    assert learned["meta"]["spec_hash"] == hashlib.sha256(data).hexdigest()


def test_module_entry_point_exit_codes(tmp_path):
    assert _run_module("--help").returncode == 0
    missing = _run_module("classify", str(tmp_path / "missing"), "--report", "-")
    assert missing.returncode == 1
    assert missing.stderr == f"error: corpus root {tmp_path / 'missing'} does not exist\n"
    top = _run_module("learn", "--examples", "e.json", "--out", str(tmp_path / "x.json"), "--top", "0")
    assert top.returncode == 2
    assert top.stderr == "error: --top must be at least 1\n"


def test_the_cli_module_runs_as_a_script(tmp_path):
    # ``python -m mergelearn.cli`` reaches the module's own ``__main__`` guard.
    assert _run_module("--help", module="mergelearn.cli").returncode == 0
    missing = _run_module("classify", str(tmp_path / "missing"), "--report", "-", module="mergelearn.cli")
    assert missing.returncode == 1
    assert missing.stderr == f"error: corpus root {tmp_path / 'missing'} does not exist\n"


def test_learn_apply_round_trip(tmp_path, capsys):
    spec = write_example_spec(tmp_path, ["c", "d"])
    out = tmp_path / "fb.json"
    assert main(["learn", "--examples", str(spec), "--out", str(out)]) == 0
    for name in ("c", "d"):
        target = tmp_path / f"{name}.cc"
        target.write_text(fig_file_text(name), encoding="utf-8")
        assert main(["apply", "--program", str(out), str(target), "--in-place"]) == 0
        assert target.read_text(encoding="utf-8") == fig_resolved_text(name)
    capsys.readouterr()


def test_learn_and_apply_agree_on_line_endings(tmp_path, capsys):
    # Examples in CRLF files teach the same program as in LF files, and that
    # program resolves a CRLF file in place with its line endings kept.
    learned = {}
    for label, newline in (("lf", "\n"), ("crlf", "\r\n")):
        (tmp_path / label).mkdir()
        spec = write_example_spec(tmp_path / label, ["c", "d"], newline=newline)
        out = tmp_path / label / "learned.json"
        assert main(["learn", "--examples", str(spec), "--out", str(out)]) == 0
        learned[label] = json.loads(out.read_text(encoding="utf-8"))
        del learned[label]["meta"]["spec_hash"]
    assert learned["lf"] == learned["crlf"]
    target = tmp_path / "d.cc"
    target.write_bytes(fig_file_text("d").replace("\n", "\r\n").encode("utf-8"))
    assert main(["apply", "--program", str(tmp_path / "crlf" / "learned.json"), str(target), "--in-place"]) == 0
    assert target.read_bytes() == fig_resolved_text("d").replace("\n", "\r\n").encode("utf-8")
    capsys.readouterr()


def test_apply_side_order_ours_first(tmp_path, capsys):
    # The same file with sections swapped resolves identically once the
    # parser is told the first section is "ours" (the main branch).
    from conftest import FIG1_REGIONS

    spec = FIG1_REGIONS["c"]
    swapped = marker_text(spec["main"], spec["fork"])  # main section first
    target = tmp_path / "swapped.cc"
    target.write_text(swapped, encoding="utf-8")
    program = write_program(tmp_path, FB_PROGRAM)
    code = main(
        ["apply", "--program", str(program), str(target), "--print", "--side-order", "ours-first"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert '#include "base/notreached.h"' in captured.out
    assert '#include "base/logging.h"' not in captured.out


def test_learn_max_depth_flag(tmp_path, capsys):
    spec = write_example_spec(tmp_path, ["c", "d"])
    out = tmp_path / "fb.json"
    code = main(["learn", "--examples", str(spec), "--out", str(out), "--max-depth", "2"])
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert program_from_json(data) == FB_PROGRAM
    assert data["meta"]["config"]["max_concat_depth"] == 2
    capsys.readouterr()


def test_learn_output_is_deterministic(tmp_path, capsys):
    spec = write_example_spec(tmp_path, ["c", "d"])
    first, second = tmp_path / "one.json", tmp_path / "two.json"
    assert main(["learn", "--examples", str(spec), "--out", str(first), "--top", "5"]) == 0
    assert main(["learn", "--examples", str(spec), "--out", str(second), "--top", "5"]) == 0
    assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_keywords_env_config(tmp_path, capsys, monkeypatch):
    keywords = tmp_path / "keywords.json"
    keywords.write_text(json.dumps({"fork": ["EDGEONLY"]}), encoding="utf-8")
    monkeypatch.setenv("MERGELEARN_KEYWORDS", str(keywords))
    conflict = marker_text(["EDGEONLY_FEATURE(x) {"], ["UPSTREAM_FEATURE(x) {"])
    conflict_path = tmp_path / "kw_conflict.txt"
    conflict_path.write_text(conflict, encoding="utf-8")
    resolution_path = tmp_path / "kw_resolution.txt"
    resolution_path.write_text("EDGEONLY_FEATURE(x) {\n", encoding="utf-8")
    spec = tmp_path / "kw.json"
    spec.write_text(
        json.dumps([{"conflict": conflict_path.name, "resolution": resolution_path.name,
                     "file_path": "x.cc"}]),
        encoding="utf-8",
    )
    out = tmp_path / "kw_prog.json"
    assert main(["learn", "--examples", str(spec), "--out", str(out)]) == 0
    program = program_from_json(json.loads(out.read_text(encoding="utf-8")))
    assert any(p.tag == "ForkSpecific" for p in program.condition.predicates)
    capsys.readouterr()


# --- every argv: exit 0, 1 or 2, and a failure is one line naming its input ---

class _In(str):
    """A file name of the argv property's workspace, made absolute when run;
    ``bad`` when it was drawn from its role's invalid inputs."""

    bad = False


def _write_cli_workspace(root: Path) -> None:
    """The inputs the argv property picks from: valid ones and ones a command
    must refuse, each under its name in ``_ROLES``."""
    write_example_spec(root, ["c", "d"])
    (root / "crlf").mkdir()
    write_example_spec(root / "crlf", ["c", "d"], newline="\r\n")
    contradictory = json.loads((root / "examples.json").read_text(encoding="utf-8"))[:1]
    (root / "resolution_other.txt").write_text('#include "base/web.h"\n', encoding="utf-8")
    contradictory.append({**contradictory[0], "resolution": "resolution_other.txt"})
    (root / "contradictory.json").write_text(json.dumps(contradictory), encoding="utf-8")
    write_program(root, FB_PROGRAM)
    programs = [program_to_json(FB_PROGRAM), program_to_json(DUP_PROGRAM)]
    (root / "programs.json").write_text(json.dumps(programs), encoding="utf-8")
    write_fig_corpus(root / "corpus")
    for name in ("dir", "out"):
        (root / name).mkdir()
    texts = {
        "conflict.cc": fig_file_text("c"),
        "crlf.cc": fig_file_text("c").replace("\n", "\r\n"),
        "plain.cc": "int x;\n",
        "unbalanced.cc": "<<<<<<< fork\nx\n",
        "empty.txt": "",
        "deep.json": deep_program_text(600),
        "brackets.json": "[" * 100_000,
        "empty_array.json": "[]",
        "keywords.json": json.dumps({"fork": ["logging"], "main": ["notreached"]}),
        "empty_keyword.json": '{"fork": [""]}',
    }
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")
    for name in ("not_utf8.txt", "not\r\nutf8.txt"):
        (root / name).write_bytes(b"\xff\xfe" + fig_file_text("c").encode("utf-8"))


# Each role's (valid, invalid) inputs. Every role may get a directory, a
# missing file, a NUL or a line break in the path or the wrong kind of file.
_ANY_BAD = ("dir", "missing.json", "a\0b", "not_utf8.txt", "not\r\nutf8.txt", "empty.txt")
_ROLES = {
    "spec": (("examples.json", "crlf/examples.json"),
             ("contradictory.json", "brackets.json", "empty_array.json", "conflict.cc", *_ANY_BAD)),
    "program": (("program.json", "programs.json"),
                ("deep.json", "brackets.json", "empty_array.json", "conflict.cc", *_ANY_BAD)),
    "conflicted": (("conflict.cc", "crlf.cc", "plain.cc"), ("unbalanced.cc", "program.json", *_ANY_BAD)),
    "root": (("corpus",), ("dir", "conflict.cc", "missing", "a\0b")),
    "output": (("out/x.json",), ("missing/x.json", "dir", "a\0b")),
    "keywords": (("keywords.json",), ("empty_keyword.json", "brackets.json", "missing.json", "not_utf8.txt")),
}
_WORDS = ("learn", "apply", "classify", "eval", "--print", "--program", "--top", "--report", "--help", "-", "x")


@st.composite
def _argv(draw):
    """``(argv, keywords file or None)`` from a small grammar of the four
    commands and their flags; argv's paths are ``_In`` names, each invalid
    one time in four."""
    def pick(role):
        valid, invalid = _ROLES[role]
        bad = draw(st.integers(0, 3)) == 0
        name = _In(draw(st.sampled_from(invalid if bad else valid)))
        name.bad = bad
        return name

    command = draw(st.sampled_from(("learn", "apply", "classify", "eval", "words")))
    if command == "learn":
        argv = ["learn", "--examples", pick("spec"), "--out", pick("output")]
        argv += draw(st.sampled_from(([], ["--top", "3"], ["--top", "0"], ["--max-depth", "1"],
                                      ["--max-depth", "0"], ["--side-order", "ours-first"])))
    elif command == "apply":
        argv = ["apply"]
        for _ in range(draw(st.integers(1, 2))):
            argv += ["--program", pick("program")]
        argv += [pick("conflicted"), draw(st.sampled_from(("--print", "--diff", "--in-place")))]
        argv += draw(st.sampled_from(([], ["--partial"], ["--side-order", "ours-first"])))
    elif command in ("classify", "eval"):
        argv = [command, *(["--program", pick("program")] if command == "eval" else []), pick("root"), "--report"]
        argv += ["-" if draw(st.booleans()) else pick("output")]
        argv += draw(st.sampled_from(([], ["--order-insensitive-includes"]))) if command == "eval" else []
    else:  # usage errors, and --help
        argv = draw(st.lists(st.sampled_from(_WORDS), max_size=4))
    return argv, pick("keywords") if draw(st.booleans()) else None


@settings(max_examples=300, deadline=None)
@given(_argv())
@example((["classify", "learn", "--report", "learn"], None))
def test_every_argv_exits_0_1_or_2_and_a_failure_is_one_error_line_naming_its_input(drawn):
    argv, keywords = drawn
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_cli_workspace(root)
        drawn_paths = any(isinstance(arg, _In) for arg in argv)
        bad = [str(root / arg) for arg in argv if isinstance(arg, _In) and arg.bad]
        # A drawn word is a path only after the command, and never as a flag.
        words = [] if drawn_paths else [word for word in argv[1:] if not word.startswith("--")]
        argv = [str(root / arg) if isinstance(arg, _In) else arg for arg in argv]
        with mock.patch.dict(os.environ):
            os.environ.pop("MERGELEARN_KEYWORDS", None)
            if keywords is not None:
                os.environ["MERGELEARN_KEYWORDS"] = str(root / keywords)
            code, _, err = _call(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        # The line names an input that failed: a workspace path drawn as
        # invalid, the keywords file by its variable when it was drawn as
        # invalid, or a word given as a path; a line break in a name is escaped.
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        named = [path.replace("\r", "\\r").replace("\n", "\\n") for path in bad]
        named += ["MERGELEARN_KEYWORDS"] * (keywords is not None and keywords.bad)
        message = lines[0][len("error: "):]
        assert any(name in message for name in named) or any(
            re.search(rf"(^|\s){re.escape(word)}(:|\s|$)", message) for word in words), (argv, keywords, lines)


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_the_shared_parser_parses_as_a_fresh_one(drawn):
    # The shared parser has parsed every earlier example, and every argv of
    # the other tests, before it parses this one.
    argv = [str(arg) for arg in drawn[0]]

    def parse(parser):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                return vars(parser.parse_args(argv))
            except SystemExit as exc:
                return exc.code, out.getvalue(), err.getvalue()

    assert parse(build_parser()) == parse(build_parser.__wrapped__())
