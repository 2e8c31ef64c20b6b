"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time
from contextlib import contextmanager

import pytest

from mergelearn.conflicts import (
    parse_conflict_file,
    render_nodes,
    tokenize_nodes,
)
from mergelearn.corpus import evaluate, load_corpus, report
from mergelearn.dsl import (
    DEFAULT_CONFIG,
    W_BRANCH,
    W_CONSTANTS,
    W_INDEX,
    W_OPERATORS,
    W_PATTERN,
    Concat,
    Condition,
    Predicate,
    Program,
    Remove,
    Select,
    Selection,
    SynthConfig,
    build_pattern_dictionary,
    eval_selection,
    eval_transformation,
    remove_nodes,
    run_program,
    struct_key,
)
from mergelearn import synth
from mergelearn.synth import (
    ExampleSpec,
    learn,
    learn_transformation,
    rank,
)

from conftest import (
    DUP_PROGRAM,
    FB_PROGRAM,
    canonical_selections,
    eval_predicate,
    fig_chunk,
    fig_resolution_nodes,
    gen_conflict,
    gen_program_with_output,
    write_fig_corpus,
)


@contextmanager
def criterion(number, description):
    passed = False
    try:
        yield
        passed = True
    finally:
        print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {description}")


def fig_spec(*names):
    return ExampleSpec(tuple((fig_chunk(n), fig_resolution_nodes(n)) for n in names))


def test_criterion_1_figure1_synthesis_reproduction():
    with criterion(1, "worked-example synthesis: both published programs learned top-ranked in <1s"):
        start = time.perf_counter()
        ranked_cd = learn(fig_spec("c", "d"))
        elapsed_cd = time.perf_counter() - start
        assert ranked_cd.top is not None
        assert ranked_cd.top.program == FB_PROGRAM, "frequent-pattern program is not top-ranked"
        assert elapsed_cd < 1.0, f"learning c+d took {elapsed_cd:.3f}s"

        start = time.perf_counter()
        ranked_a = learn(fig_spec("a"))
        elapsed_a = time.perf_counter() - start
        assert ranked_a.top is not None
        assert ranked_a.top.program == DUP_PROGRAM, "duplicate-removal program is not top-ranked"
        assert elapsed_a < 1.0, f"learning a took {elapsed_a:.3f}s"


def test_criterion_2_ranking_reproduction():
    with criterion(2, "remove/by-path candidate outranks the index-pair candidate at default weights"):
        guard = Condition((Predicate("FrequentPattern", path="base/logging.h"),))
        remove_based = Program(guard, FB_PROGRAM.transformation)
        index_based = Program(
            guard,
            Concat(Select(Selection("MainByIndex", k=0)), Select(Selection("ForkByIndex", k=0))),
        )
        ranked = rank((index_based, remove_based))
        assert [e.program for e in ranked] == [remove_based, index_based]
        assert ranked.entries[0].score < ranked.entries[1].score
        # Regression-pin the default weights this ordering depends on.
        assert (W_OPERATORS, W_CONSTANTS, W_INDEX, W_PATTERN, W_BRANCH) == (1.0, 0.5, 2.0, 1.5, 1.0)


def test_criterion_3_pbe_consistency_500_specs():
    with criterion(3, "500 fuzz specs: learning succeeds and every result reproduces the examples"):
        rng = random.Random(0xC0FFEE)
        checked = 0
        while checked < 500:
            conflict = gen_conflict(rng)
            generated = gen_program_with_output(rng, conflict, depth=3)
            if generated is None:
                continue
            _, output = generated
            if len(output) > 10:
                continue
            spec = ExampleSpec(((conflict, output),))
            ranked = learn(spec)
            assert len(ranked) > 0, "no program learned although the generator found one"
            for entry in list(ranked)[:20]:
                result = run_program(entry.program, conflict)
                assert result.is_resolved, "learned program does not fire on its own example"
                assert result.nodes == output, "learned program output differs from the example"
            checked += 1


def _contiguous_sublists(target):
    subs = {()}
    for i in range(len(target)):
        for j in range(i + 1, len(target) + 1):
            subs.add(target[i:j])
    return subs


def _concat_depth(t):
    if isinstance(t, Concat):
        return 1 + max(_concat_depth(t.left), _concat_depth(t.right))
    return 0


def _brute_consistent_keys(conflict, pdict, target, depth):
    """Bottom-up enumeration of every canonical transformation (concat depth
    <= depth) that evaluates to target. Subtrees of a consistent concat can
    only produce contiguous sublists of the target, so pruning on that is
    lossless."""
    selections = canonical_selections(conflict, pdict)
    subs = _contiguous_sublists(target)
    programs = {}
    for sel, value in selections:
        if value in subs:
            t = Select(sel)
            programs[struct_key(t)] = (t, value)
    for source_tag, region in (("Main", conflict.main_nodes), ("Fork", conflict.fork_nodes)):
        source = Selection(source_tag)
        for sel, value in selections:
            if not value:
                continue
            result = remove_nodes(region, value)
            if result is not None and result in subs:
                t = Remove(source, sel)
                programs[struct_key(t)] = (t, result)
    empties = [t for t, value in programs.values() if value == ()]

    for _ in range(depth):
        groups = {}
        for t, value in programs.values():
            if value:
                groups.setdefault(value, []).append(t)
        additions = {}
        for v1, ts1 in groups.items():
            for v2, ts2 in groups.items():
                combined = v1 + v2
                if combined not in subs:
                    continue
                for t1 in ts1:
                    for t2 in ts2:
                        if 1 + max(_concat_depth(t1), _concat_depth(t2)) > depth:
                            continue
                        t = Concat(t1, t2)
                        key = struct_key(t)
                        if key not in programs:
                            additions[key] = (t, combined)
        programs.update(additions)

    final = {key for key, (t, value) in programs.items() if value == target}
    if target and depth >= 1:
        for t, value in programs.values():
            if value == target and _concat_depth(t) <= depth - 1:
                for e in empties:
                    final.add(struct_key(Concat(t, e)))
    return final


def test_criterion_4_brute_force_oracle_equivalence(monkeypatch):
    with criterion(4, ">=200 small conflicts: learned sets equal brute-force enumeration, <60s"):
        rng = random.Random(0xBEEF)
        config = SynthConfig(max_concat_depth=3)
        # At concat depth 3 a few sets pass the default cap (the largest holds
        # about 50 000 transformations); every set is compared whole.
        monkeypatch.setattr(synth, "MAX_PROGRAMS", 1_000_000)
        start = time.perf_counter()
        instances = 0
        while instances < 200:
            conflict = gen_conflict(rng, max_nodes=rng.choice((1, 2, 3, 4, 5)))
            pdict = build_pattern_dictionary(conflict, config)
            roll = rng.random()
            if roll < 0.7:
                generated = gen_program_with_output(rng, conflict, depth=3, config=config)
                if generated is None:
                    continue
                target = generated[1]
                if len(target) > 6:
                    continue
            elif roll < 0.85:
                nodes = list(conflict.main_nodes + conflict.fork_nodes)
                rng.shuffle(nodes)
                target = tuple(nodes[: rng.randint(1, len(nodes))])
            else:
                target = ()
            learned = learn_transformation(conflict, target, config=config, pdict=pdict)
            assert not learned.truncated, "cap hit on a small instance; comparison would be unsound"
            learned_keys = {struct_key(t) for t in learned.programs}
            brute_keys = _brute_consistent_keys(conflict, pdict, target, depth=3)
            assert learned_keys == brute_keys, (
                f"set mismatch: learned-only={len(learned_keys - brute_keys)} "
                f"brute-only={len(brute_keys - learned_keys)}"
            )
            instances += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle-equivalence suite took {elapsed:.1f}s"


def test_criterion_5_interpreter_algebra():
    with criterion(5, "interpreter algebra properties hold over generated inputs"):
        rng = random.Random(0xA19EB)
        for _ in range(250):
            conflict = gen_conflict(rng)
            pdict = build_pattern_dictionary(conflict, DEFAULT_CONFIG)
            selections = canonical_selections(conflict, pdict)
            sels = [sel for sel, _ in selections]
            a, b, c = (Select(rng.choice(sels)) for _ in range(3))
            left = eval_transformation(Concat(Concat(a, b), c), pdict)
            right = eval_transformation(Concat(a, Concat(b, c)), pdict)
            assert left == right, "concatenation is not associative"

            s = rng.choice(sels)
            assert eval_transformation(Remove(s, s), pdict) == ()
            for sel, value in selections:
                assert eval_selection(sel, pdict) == value

            absent = Selection("MainByPath", path="no/where/at_all.h")
            assert eval_selection(absent, pdict) == ()
            assert eval_transformation(Remove(s, absent), pdict) == eval_selection(s, pdict)

            for tag, whole in (("MainByIndex", "Main"), ("ForkByIndex", "Fork")):
                region = eval_selection(Selection(whole), pdict)
                for k in range(len(region)):
                    assert eval_selection(Selection(tag, k=k), pdict) == (region[k],)

            for key, entry in pdict.items():
                assert eval_predicate(Predicate(key), pdict) == bool(entry)
                assert eval_selection(Selection("Pattern", key=key), pdict) == entry
            assert isinstance(pdict.frequent, frozenset)
            for path in pdict.frequent:
                assert eval_predicate(Predicate("FrequentPattern", path=path), pdict)


def test_criterion_6_guard_refusal():
    with criterion(6, "frequent-pattern program refuses all 101 conflicts lacking its header"):
        assert run_program(FB_PROGRAM, fig_chunk("a")).kind == "no-suggestion"
        rng = random.Random(0x6A7D)
        refused = 0
        for _ in range(100):
            conflict = gen_conflict(rng)  # the path pool never contains base/logging.h
            result = run_program(FB_PROGRAM, conflict)
            assert result.kind == "no-suggestion", "guard fired on a logging-free conflict"
            refused += 1
        assert refused == 100


def test_criterion_7_corpus_round_trip(tmp_path):
    with criterion(7, "figure corpus: learned programs score 4/4 and classification matches"):
        corpus_root = write_fig_corpus(tmp_path / "corpus")
        cases = load_corpus(corpus_root)
        assert len(cases) == 4

        learned_fb = learn(fig_spec("c", "d")).top.program
        learned_dup = learn(fig_spec("a")).top.program
        result = evaluate([learned_fb, learned_dup], cases)
        assert result.total == 4
        assert result.suggested == 4, "coverage is not 4/4"
        assert result.matched == 4, "accuracy is not 4/4"

        classification = report(cases)
        assert classification.file_types == {"C++": 4}
        assert classification.locations == {"Include": 4}
        assert classification.main_sizes == {"1-2": 4}
        assert classification.fork_sizes == {"1-2": 4}


_OUTSIDE_POOL = (
    "// filler comment",
    "int data = 42;",
    "",
    "void Helper();",
    "=======",  # separator-lookalike outside a chunk stays plain text
    "||||||| stray",
)
_REGION_POOL = (
    '#include "base/one.h"',
    '#include "base/two.h"',
    "#include <vector>",
    "RUN_SUITE(Case, 12) {",
    "int value = 0;",
    "",
)


def _gen_marker_file(rng):
    chunk_count = rng.randint(0, 4)
    lines = []
    truth = []
    lines.extend(rng.choice(_OUTSIDE_POOL) for _ in range(rng.randint(0, 3)))
    for i in range(chunk_count):
        fork = [rng.choice(_REGION_POOL) for _ in range(rng.randint(0, 3))]
        main = [rng.choice(_REGION_POOL) for _ in range(rng.randint(0, 3))]
        lines.append("<<<<<<< " + rng.choice(("fork", "HEAD", "x/y")))
        lines.extend(fork)
        if rng.random() < 0.3:
            lines.append("||||||| base")
            lines.extend(rng.choice(_REGION_POOL) for _ in range(rng.randint(0, 2)))
        lines.append("=======")
        lines.extend(main)
        lines.append(">>>>>>> " + rng.choice(("main", "theirs")))
        truth.append((tuple(fork), tuple(main)))
        if i + 1 < chunk_count and rng.random() < 0.75:
            lines.extend(rng.choice(_OUTSIDE_POOL) for _ in range(rng.randint(1, 3)))
    lines.extend(rng.choice(_OUTSIDE_POOL) for _ in range(rng.randint(0, 3)))
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    text = newline.join(lines)
    if rng.random() < 0.8:
        text += newline
    return text, truth


def _round_trips(nodes):
    rendered = render_nodes(nodes)
    relines = rendered.split("\n") if nodes else []
    return tokenize_nodes(relines) == nodes


def test_criterion_8_parser_fidelity_1000_files():
    with criterion(8, "1000 synthetic marker files parse to ground truth with clean round trips"):
        rng = random.Random(0x5EED)
        for _ in range(1000):
            text, truth = _gen_marker_file(rng)
            chunks = parse_conflict_file(text, "gen.cc")
            assert len(chunks) == len(truth), "chunk count mismatch"
            for chunk, (fork, main) in zip(chunks, truth):
                assert chunk.fork_lines == fork
                assert chunk.main_lines == main
                assert _round_trips(chunk.fork_nodes)
                assert _round_trips(chunk.main_nodes)
                assert _round_trips(tokenize_nodes(chunk.context.outside_content))
                for line in chunk.context.outside_content:
                    assert not line.startswith(("<<<<<<<", ">>>>>>>"))
