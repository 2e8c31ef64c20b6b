"""The four benchmark workloads: inputs, the timed call, and the oracle.

Each workload builds a list of items in setup, with the files they need
as a ``{path: text}`` dict, runs one item per timed call, and checks the
call's output outside the timed region. ``run`` is
the only part that is timed; ``check`` returns an Outcome whose digest
identifies the output, so repeated passes and later commits can be
compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass

import mergelearn
from mergelearn import ExampleSpec, cli, run_program, serialize_program

import gen

# The learn workloads replay one fixed spec set, drawn from this seed; the
# run's seed only shuffles the order. Their cost is heavy-tailed (about a
# tenth of the specs hit the 10 000-program cap and take 0.5-4.5 s, the rest
# take milliseconds), so spec sets of 200-250 redrawn per seed cost from 96
# to 139 ms per spec on average, far beyond any useful bound.
LEARN_SEED = 2021
LEARN_SINGLE_SPECS = 140
LEARN_MULTI_SPECS = 200
TOP_K = 20

APPLY_FILES = 30
APPLY_OUTSIDE_LINES = 200

EVAL_ROOTS = 30
EVAL_MERGES = 2
EVAL_FILES_PER_MERGE = 4


@dataclass
class Outcome:
    ok: bool
    digest: str = ""
    units: int = 1  # specs, chunks or cases this item completed
    suggested: int = 0
    no_program: bool = False
    truncated: bool = False
    detail: str = ""


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class LearnWorkload:
    """``learn`` through the public API on one spec per item."""

    unit = "specs"

    def __init__(self, draw, count):
        self._draw = draw
        self._count = count

    def build(self, seed, workdir):
        specs = [ExampleSpec(cases) for cases in self._draw(random.Random(LEARN_SEED), self._count)]
        order = random.Random(seed).sample(range(len(specs)), len(specs))
        return [(index, specs[index]) for index in order], {}

    def warm_item(self, items):
        return min(items, key=lambda item: sum(len(out) for _, out in item[1].cases))

    def key(self, item):
        return item[0]

    def run(self, item):
        # Looked up on the package at call time, so that tracing sees it.
        return mergelearn.learn(item[1])

    def check(self, item, ranked) -> Outcome:
        spec = item[1]
        serialized = []
        for entry in list(ranked)[:TOP_K]:
            serialized.append(serialize_program(entry.program))
            for conflict, output in spec.cases:
                result = run_program(entry.program, conflict)
                if not result.is_resolved or result.nodes != output:
                    return Outcome(False, detail=f"spec {item[0]}: a top-{TOP_K} program "
                                                 f"does not reproduce an example ({result.kind})")
        return Outcome(True, _sha("".join(serialized)), no_program=not ranked, truncated=ranked.truncated)


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _program_args(paths):
    return [arg for path in paths for arg in ("--program", str(path))]


class ApplyWorkload:
    """``mergelearn apply --print`` in-process, one large file per item."""

    unit = "chunks"

    def build(self, seed, workdir):
        rng = random.Random(seed)
        files = {}
        self._programs = _program_args(gen.program_files(workdir / "programs", files))
        items = [gen.apply_file(rng, workdir / f"file-{i:02d}.cc", APPLY_OUTSIDE_LINES, files)
                 for i in range(APPLY_FILES)]
        return items, files

    def warm_item(self, items):
        return items[0]

    def key(self, item):
        return item.path.name

    def run(self, item):
        return _capture(["apply", *self._programs, "--print", str(item.path)])

    def check(self, item, result) -> Outcome:
        code, out, err = result
        name = item.path.name
        if code != 0:
            return Outcome(False, detail=f"{name}: exit code {code}")
        summary = json.loads(err.strip().splitlines()[-1])
        left = sum(1 for line in out.split("\n") if line.startswith("<<<<<<< "))
        if summary["suggested"] + left != summary["total"]:
            return Outcome(False, detail=f"{name}: suggested + no_suggestion != total")
        if out != item.expected or summary["total"] != item.chunks or summary["suggested"] != item.suggested:
            return Outcome(False, detail=f"{name}: resolved text differs from the expected text")
        return Outcome(True, _sha(out), units=item.chunks, suggested=summary["suggested"])


class EvalWorkload:
    """``mergelearn eval`` in-process, one on-disk corpus root per item."""

    unit = "cases"

    def build(self, seed, workdir):
        rng = random.Random(seed)
        files = {}
        self._programs = _program_args(gen.program_files(workdir / "programs", files))
        self._report = workdir / "report.json"
        per_root = EVAL_MERGES * EVAL_FILES_PER_MERGE
        items = [gen.eval_root(rng, workdir / f"root-{i}", EVAL_MERGES, EVAL_FILES_PER_MERGE, i * per_root, files)
                 for i in range(EVAL_ROOTS)]
        return items, files

    def warm_item(self, items):
        return items[0]

    def key(self, item):
        return item.path.name

    def run(self, item):
        return _capture(["eval", *self._programs, str(item.path), "--report", str(self._report)])[0]

    def check(self, item, code) -> Outcome:
        name = item.path.name
        if code != 0:
            return Outcome(False, detail=f"{name}: exit code {code}")
        text = self._report.read_text(encoding="utf-8")
        report = json.loads(text)
        if report["suggested"] + report["no_suggestion"] != report["total"]:
            return Outcome(False, detail=f"{name}: suggested + no_suggestion != total")
        got = {key: report[key] for key in item.expected.as_dict()}
        if got != item.expected.as_dict():
            return Outcome(False, detail=f"{name}: report {got} != expected {item.expected.as_dict()}")
        return Outcome(True, _sha(text), units=report["total"], suggested=report["suggested"])


WORKLOADS = {
    "learn-single": lambda: LearnWorkload(gen.learn_single_specs, LEARN_SINGLE_SPECS),
    "learn-multi": lambda: LearnWorkload(gen.learn_multi_specs, LEARN_MULTI_SPECS),
    "apply-large": ApplyWorkload,
    "eval-corpus": EvalWorkload,
}
