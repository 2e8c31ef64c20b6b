"""Self-checks of the benchmark: generators, oracles and tracing.

Run with ``python -m pytest bench/tests`` from the repository root. The
workloads are shrunk so that the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import mergelearn  # noqa: E402
from mergelearn import Condition, Predicate, Program, Select, Selection  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "LEARN_SINGLE_SPECS", 12)
    monkeypatch.setattr(workloads, "LEARN_MULTI_SPECS", 12)
    monkeypatch.setattr(workloads, "APPLY_FILES", 3)
    monkeypatch.setattr(workloads, "APPLY_OUTSIDE_LINES", 60)
    monkeypatch.setattr(workloads, "EVAL_ROOTS", 3)


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_run_passes_its_self_checks(small, name):
    summary, lines = run.run_workload(name, seed=3, seconds=0.1, trace=True)
    checks = [line for line in lines if "self-check" in line]
    assert summary["correct"], "\n".join(lines)
    assert summary["failed"] == 0
    assert set(summary["metrics"]) == set(run.PER_LAYER)
    assert any("self times add up" in line for line in checks)
    assert any("resolved equals suggested" in line for line in checks)
    assert all(line.endswith(": ok") for line in checks)
    assert "absent layers: none" in "\n".join(lines)


@pytest.mark.parametrize("name", run.NAMES)
def test_untraced_run_reports_every_end_to_end_metric(small, name):
    summary, lines = run.run_workload(name, seed=3, seconds=0.1, trace=False)
    assert summary["correct"]
    assert [m for m, _ in run.END_TO_END] == list(summary["metrics"])
    assert all(entry["value"] > 0 for entry in summary["metrics"].values())
    assert any(line.split()[0] == "item_ms_tail" and "items)" in line for line in lines)
    if name.startswith("learn-"):
        # Shares are per spec, whatever the number of calls per spec.
        assert any(line.split()[0] == "truncated_share" and line.endswith("/12 specs)") for line in lines)


def _built(workload, seed, tmp_path):
    items, files = workload.build(seed, tmp_path)
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(text.encode("utf-8"))
    return items, files


def test_generators_depend_on_the_seed_only(small, tmp_path):
    first = workloads.EvalWorkload().build(5, tmp_path)[1]
    again = workloads.EvalWorkload().build(5, tmp_path)[1]
    other = workloads.EvalWorkload().build(6, tmp_path)[1]
    assert first == again
    assert first != other
    specs = gen.learn_multi_specs(random.Random(1), 5)
    assert [[tuple(out) for _, out in s] for s in specs] == \
        [[tuple(out) for _, out in s] for s in gen.learn_multi_specs(random.Random(1), 5)]


def test_eval_counts_add_up_and_a_wrong_count_fails(small, tmp_path):
    workload = workloads.EvalWorkload()
    items, _ = _built(workload, 4, tmp_path)
    root = items[0]
    outcome = workload.check(root, workload.run(root))
    report = json.loads((tmp_path / "report.json").read_text())
    assert outcome.ok, outcome.detail
    assert report["suggested"] + report["no_suggestion"] == report["total"] == outcome.units
    root.expected.matched += 1
    assert not workload.check(root, workload.run(root)).ok


def test_apply_oracle_rejects_a_changed_resolution(small, tmp_path):
    workload = workloads.ApplyWorkload()
    items, _ = _built(workload, 4, tmp_path)
    item = items[0]
    assert workload.check(item, workload.run(item)).ok
    item.expected = item.expected.replace("#include", "#import", 1)
    assert not workload.check(item, workload.run(item)).ok


def test_per_layer_values_are_per_pass(small, tmp_path):
    workload = workloads.ApplyWorkload()
    items, _ = _built(workload, 4, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        m = run.measure(workload, items, passes=2, tracer=tracer, max_calls=1)
    finally:
        tracer.uninstall()
    metrics, balanced = run.per_layer(tracer, m)
    assert balanced
    assert metrics["conflicts.parse.calls"] == len(items)
    assert metrics["dsl.run_program.resolved"] == sum(item.suggested for item in items)
    builds = metrics["dsl.pattern_dictionary.builds"]
    assert metrics["dsl.pattern_dictionary.builds_per_chunk"] == pytest.approx(
        builds / sum(item.chunks for item in items))


def test_times_are_scaled_by_the_reference_runs_near_them():
    m = run.Measurement()
    m.refs = [(0.0, 0.020), (1.5, 0.010), (10.0, 0.040)]
    m.groups = [("a", 0.5, 0.6, [0.1, 0.3]), ("b", 9.5, 9.8, [0.2])]
    scaled = m.scaled()
    assert scaled["a"] == pytest.approx([0.1 * run.REF_NOMINAL_S / 0.015, 0.3 * run.REF_NOMINAL_S / 0.015])
    assert scaled["b"] == pytest.approx([0.2 * run.REF_NOMINAL_S / 0.040])


def test_an_untraced_run_makes_a_whole_pass_with_a_reference_run_per_item(small, tmp_path):
    workload = workloads.EvalWorkload()
    items, _ = _built(workload, 4, tmp_path)
    m = run.measure(workload, items, seconds=0.0)
    assert m.passes == 1 and set(m.scaled()) == {workload.key(item) for item in items}
    # One reference run before the first item and one after every item.
    assert len(m.refs) == len(m.groups) + 1


def test_program_outside_the_learners_space_is_refused():
    conflict = gen.draw_conflict(random.Random(0))
    guard = Condition((Predicate("FrequentPattern", path="base/alpha.h"),))
    absent = Program(guard, Select(Selection("ForkByPath", path="not/there.h")))
    present = Program(guard, Select(Selection("Fork")))
    assert not gen.in_learner_space(absent, conflict)
    assert gen.in_learner_space(present, conflict)


def test_wrappers_cover_every_binding_and_are_removed():
    original = mergelearn.dsl.build_pattern_dictionary
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = mergelearn.synth.build_pattern_dictionary
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert mergelearn.dsl.build_pattern_dictionary is wrapped
        assert mergelearn.build_pattern_dictionary is wrapped
        assert mergelearn.corpus.run_program is mergelearn.dsl.run_program is mergelearn.run_program
    finally:
        tracer.uninstall()
    assert mergelearn.synth.build_pattern_dictionary is original


def test_spans_nest_and_self_times_add_up():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spec = mergelearn.ExampleSpec(gen.learn_single_specs(random.Random(7), 1)[0])
        _, wall = tracer.run(mergelearn.learn, spec)
    finally:
        tracer.uninstall()
    assert tracer.calls["synth.guard_ranking"] == 1
    assert tracer.calls["synth.candidates"] == 1
    assert sum(tracer.self_s.values()) == pytest.approx(wall, rel=1e-9)
    assert all(value >= 0 for value in tracer.self_s.values())


def test_badly_nested_spans_are_rejected():
    tracer = tracing.Tracer()
    tracer.spans = [["bench", 0.0, 1.0, -1], ["cli", 0.5, 1.5, 0]]
    tracer._stack = [0]
    tracer._item_chunks = set()
    with pytest.raises(tracing.NestingError):
        tracer._fold()


def test_missing_function_marks_its_layer_absent(monkeypatch):
    monkeypatch.delattr(mergelearn.synth, "intersect_program_sets")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["synth.intersection"]


def test_runner_fails_cleanly_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "apply-large", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
