"""Corpus ingestion, conflict classification and program evaluation.

A corpus directory holds one sub-directory per merge, one per conflicting
file, each with the conflicted text, the developer's resolved file and a
small metadata record. Resolutions are aligned back to chunks by anchoring
on the unchanged lines around each conflict.
"""

from __future__ import annotations

import difflib
import errno
import functools
import json
import logging
import os
import posixpath
import re
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path, PurePosixPath

from .conflicts import (
    INCLUDE,
    MACRO,
    START_MARKER,
    ConflictedFile,
    ConflictInput,
    Node,
    conflict_kind,
    read_text,
    split_lines,
    tokenize_nodes,
)
from .dsl import DEFAULT_CONFIG, SynthConfig, first_resolution
from .dsl import run_program  # noqa: F401  re-exported: callers read corpus.run_program

logger = logging.getLogger(__name__)

RESOLUTION_LABELS = ("AFSC", "CH", "Concat", "DDC", "FB", "LC", "RD", "Rename", "SR", "Others")

FILE_TYPES = ("C++", "Dependency", "Headers", "Build", "Python", "Data", "Text", "Others")

LOCATIONS = ("Condition", "Declare", "Expression", "Include", "Loop", "Macro", "Method", "Others")

SIZE_BUCKETS = (
    "0", "1-2", "3-4", "5-6", "7-8", "9-10", "11-15",
    "16-20", "21-25", "26-30", "31-40", "41-50", ">50",
)
_BUCKET_TOPS = (0, 2, 4, 6, 8, 10, 15, 20, 25, 30, 40, 50)


class EmptyCorpusError(ValueError):
    """The corpus directory yielded no usable cases."""


@dataclass(frozen=True)
class CorpusCase:
    conflict: ConflictInput
    human_resolution: tuple[Node, ...]
    merge_id: str
    file_path: str
    chunk_index: int
    label: str | None = None


@dataclass(frozen=True)
class AlignedChunk:
    """Per-chunk alignment outcome; nodes is None when unusable."""

    nodes: tuple[Node, ...] | None
    reason: str | None = None


def align_resolution(parsed: ConflictedFile, resolved_text: str) -> list[AlignedChunk]:
    """Recover each chunk's resolution region of a parsed conflicted file
    from its resolved text.

    The outside lines of the conflicted file (``parsed.outside_content``)
    are matched against the resolved file; a chunk's resolution is
    whatever sits strictly between the matched positions of its flanking
    outside lines. A chunk's gap, the index of the first outside line after
    it, is its span's start less the lines of the spans before it. A chunk
    whose flanks cannot be matched (shared or edited context) is flagged
    ambiguous rather than guessed.
    """
    resolved_lines = split_lines(resolved_text)
    outside = parsed.outside_content
    gaps: list[int] = []  # chunk i sits before outside index gaps[i]
    inside = 0  # the lines of the spans before the chunk
    for start, end in parsed.spans:
        gaps.append(start - inside)
        inside += end - start

    matcher = difflib.SequenceMatcher(None, outside, resolved_lines, autojunk=False)
    mapping: dict[int, int] = {}
    for block in matcher.get_matching_blocks():
        for offset in range(block.size):
            mapping[block.a + offset] = block.b + offset

    results: list[AlignedChunk] = []
    for i, gap in enumerate(gaps):
        if gaps.count(gap) > 1:
            results.append(AlignedChunk(None, "adjacent chunks share the same context gap"))
            continue
        if gap > 0 and (gap - 1) not in mapping:
            results.append(AlignedChunk(None, "preceding context line could not be anchored"))
            continue
        if gap < len(outside) and gap not in mapping:
            results.append(AlignedChunk(None, "following context line could not be anchored"))
            continue
        start = mapping[gap - 1] + 1 if gap > 0 else 0
        # Matching blocks rise in both sequences, so start <= end.
        end = mapping[gap] if gap < len(outside) else len(resolved_lines)
        results.append(AlignedChunk(tokenize_nodes(resolved_lines[start:end], parsed.line_nodes)))
    return results


_MARKER_LINE_RE = re.compile(f"^{START_MARKER}", re.M)


def _listing(path) -> dict[str, os.DirEntry]:
    """The entries of a directory by name, from one listing."""
    with os.scandir(path) as entries:
        return {entry.name: entry for entry in entries}


# The errors on which ``Path.is_file`` and ``Path.is_dir`` of Python 3.10 to
# 3.12 answer False; they raise any other.
_MISSING_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


def _entry_is(kind, entry: os.DirEntry | None) -> bool:
    """``Path.is_file`` or ``Path.is_dir`` for a listed entry, as ``kind`` is
    ``os.DirEntry.is_file`` or ``is_dir``: symlinks are followed, and an entry
    that is missing or whose stat fails as for a missing file is neither."""
    try:
        return entry is not None and kind(entry)
    except OSError as exc:
        if exc.errno not in _MISSING_ERRNOS:
            raise
        return False


_is_file = functools.partial(_entry_is, os.DirEntry.is_file)
_is_dir = functools.partial(_entry_is, os.DirEntry.is_dir)


def _header_reader(case_dir: str, entries: dict[str, os.DirEntry]):
    """Header text for an include path: the case's ``headers/<include path>``
    when the path is relative without ``..`` and that file exists, else
    ``headers/<basename>`` if it exists. None when the case's listing
    ``entries`` has no ``headers/`` directory.

    ``headers/`` is listed on the first lookup, and a path of one part is
    found in that listing; a nested path is stat'ed only when its first part
    is a listed directory."""
    if not _is_dir(entries.get("headers")):
        return None
    headers = Path(case_dir, "headers")
    listed: dict[str, os.DirEntry] | None = None

    def read(path: str) -> str | None:
        nonlocal listed
        if listed is None:
            listed = _listing(headers)
        include = PurePosixPath(path)
        if not include.is_absolute() and ".." not in include.parts:
            if len(include.parts) == 1 and _is_file(listed.get(include.name)):
                return read_text(listed[include.name].path)[0]
            if (len(include.parts) > 1 and _is_dir(listed.get(include.parts[0]))
                    and (headers / include).is_file()):
                return read_text(headers / include)[0]
        by_name = listed.get(posixpath.basename(path))
        return read_text(by_name.path)[0] if _is_file(by_name) else None
    return read


def _subdirectories(path: Path) -> list[Path]:
    """The directories in ``path``, in name order."""
    return [path / name for name, entry in sorted(_listing(path).items()) if _is_dir(entry)]


def load_corpus(root) -> list[CorpusCase]:
    """Load every usable chunk under the corpus root, in stable order.

    Malformed entries (bad markers, missing files, unresolvable alignment)
    are skipped, each with a logged diagnostic, in load order. An entirely
    unusable corpus is an error instead, which logs nothing and names the
    number of skips and the first reason. Each merge and case directory is
    listed once, and only the files the listing shows are opened.
    """
    root = Path(root)
    if not root.is_dir():
        raise EmptyCorpusError(f"corpus root {root} {'is not a directory' if root.exists() else 'does not exist'}")
    cases: list[CorpusCase] = []
    skips: list[str] = []
    for merge_dir in _subdirectories(root):
        for case_dir in _subdirectories(merge_dir):
            cases.extend(_load_case_dir(merge_dir.name, str(case_dir), skips))
    if not cases:
        raise EmptyCorpusError(f"no usable cases under {root}"
                               + (f" ({len(skips)} skipped; the first: {skips[0]})" if skips else ""))
    for skip in skips:
        logger.warning("skipping %s", skip)
    return cases


def _load_case_dir(merge_id: str, case_dir: str, skips: list[str]) -> list[CorpusCase]:
    """The usable chunks of one case directory; each skip's reason goes to ``skips``."""
    try:
        entries = _listing(case_dir)
        conflict_file, resolved_file, meta_file = map(entries.get, ("conflict.txt", "resolved.txt", "meta.json"))
        if not _is_file(conflict_file):
            raise ValueError("no conflict.txt")
        if not _is_file(resolved_file):
            raise ValueError("missing resolution")
        meta = json.loads(read_text(meta_file.path)[0]) if _is_file(meta_file) else {}
        if not isinstance(meta, dict) or not all(
            isinstance(meta.get(key, ""), str) for key in ("file_path", "label", "side_order")
        ):
            raise ValueError("meta.json must be an object whose file_path, label and side_order are strings")
        file_path = meta.get("file_path") or os.path.basename(case_dir)
        conflict_text = read_text(conflict_file.path)[0]
        resolved_text = read_text(resolved_file.path)[0]
        if _MARKER_LINE_RE.search(resolved_text):
            raise ValueError("resolved file still contains markers")
        parsed = ConflictedFile.parse(conflict_text, file_path, side_order=meta.get("side_order", "fork-first"),
                                      header_text=_header_reader(case_dir, entries))
        aligned = align_resolution(parsed, resolved_text)
    except (OSError, ValueError, RecursionError) as exc:
        skips.append(f"{case_dir}: {exc}")
        return []
    out = []
    for index, (chunk, res) in enumerate(zip(parsed.chunks, aligned)):
        if res.nodes is None:
            skips.append(f"{case_dir} chunk {index}: {res.reason}")
            continue
        out.append(CorpusCase(chunk, res.nodes, merge_id, file_path, index, meta.get("label")))
    return out


# --- classification ---------------------------------------------------------

_CPP_EXTS = {".cc", ".cpp", ".cxx"}
_HEADER_EXTS = {".h", ".hpp", ".hh"}


def classify_file_type(path: str) -> str:
    name = posixpath.basename(path)
    suffix = ("." + name.rsplit(".", 1)[-1]) if "." in name else ""
    if name == "DEPS" or suffix == ".gni":
        return "Dependency"
    if name == "BUILD.gn" or suffix == ".ninja":
        return "Build"
    if suffix in _CPP_EXTS:
        return "C++"
    if suffix in _HEADER_EXTS:
        return "Headers"
    if suffix in (".py", ".pyl"):
        return "Python"
    if suffix in (".mm", ".grd"):
        return "Data"
    if suffix in (".md", ".txt") or name.startswith("README"):
        return "Text"
    return "Others"


def size_bucket(line_count: int) -> str:
    for top, bucket in zip(_BUCKET_TOPS, SIZE_BUCKETS):
        if line_count <= top:
            return bucket
    return ">50"


def classify_size(conflict: ConflictInput) -> tuple[str, str]:
    """Bucket each region by its line count, independently."""
    return size_bucket(len(conflict.main_lines)), size_bucket(len(conflict.fork_lines))


_CONDITION_RE = re.compile(r"^(?:\}?\s*else\s+)?(?:if|switch)\s*\(")
_LOOP_RE = re.compile(r"^(?:for|while)\s*\(|^do\s*\{")
_COMMENT_RE = re.compile(r"^(?://|/\*|\*|\*/)")
_METHOD_RE = re.compile(r"^[\w:<>,~&*\s]+\s[\w:~]+\s*\([^;]*\)\s*(?:const\s*)?(?:override\s*)?\{?\s*$")
_DECLARE_RE = re.compile(
    r"^(?:static\s+|const(?:expr)?\s+|inline\s+|extern\s+)*"
    r"[A-Za-z_][\w:<>,]*(?:\s*[*&])?\s+[A-Za-z_]\w*\s*(?:=[^=].*)?;$"
)


def _classify_node(node: Node) -> str:
    if node.kind == INCLUDE:
        return "Include"
    if node.kind == MACRO:
        return "Macro"
    text = node.raw_text
    if not text or _COMMENT_RE.match(text):
        return "Others"
    if _CONDITION_RE.match(text):
        return "Condition"
    if _LOOP_RE.match(text):
        return "Loop"
    if _DECLARE_RE.match(text):
        return "Declare"
    if _METHOD_RE.match(text):
        return "Method"
    return "Expression"


def classify_location(conflict: ConflictInput) -> str:
    """Majority vote of per-line classes over both regions; ties go to Others."""
    votes = Counter(map(_classify_node, conflict.region_nodes()))
    if not votes:
        return "Others"
    best = max(votes.values())
    winners = [cls for cls, n in votes.items() if n == best]
    return winners[0] if len(winners) == 1 else "Others"


@dataclass(frozen=True)
class ClassificationReport:
    total: int
    file_types: dict[str, int]
    main_sizes: dict[str, int]
    fork_sizes: dict[str, int]
    locations: dict[str, int]
    labels: dict[str, int]

    def to_json_dict(self) -> dict:
        return asdict(self)

    def render_table(self) -> str:
        sections = [
            ("file type", self.file_types),
            ("main size", self.main_sizes),
            ("fork size", self.fork_sizes),
            ("location", self.locations),
            ("label", self.labels),
        ]
        lines = [f"cases: {self.total}"]
        for title, counts in sections:
            lines.append("")
            lines.append(title)
            width = max((len(k) for k in counts), default=0)
            for key, value in counts.items():
                lines.append(f"  {key.ljust(width)}  {value}")
        return "\n".join(lines)


def _ordered_counts(order, values) -> dict[str, int]:
    """How often each value occurs: the keys of ``order`` first, in that
    order, then any others sorted."""
    counts = Counter(values)
    return {key: counts.pop(key) for key in order if key in counts} | dict(sorted(counts.items()))


def report(cases) -> ClassificationReport:
    """Aggregate the three classifiers plus provided labels over a corpus."""
    cases = list(cases)
    sizes = [classify_size(case.conflict) for case in cases]
    return ClassificationReport(
        total=len(cases),
        file_types=_ordered_counts(FILE_TYPES, (classify_file_type(case.file_path) for case in cases)),
        main_sizes=_ordered_counts(SIZE_BUCKETS, (main for main, _ in sizes)),
        fork_sizes=_ordered_counts(SIZE_BUCKETS, (fork for _, fork in sizes)),
        locations=_ordered_counts(LOCATIONS, (classify_location(case.conflict) for case in cases)),
        labels=_ordered_counts(RESOLUTION_LABELS + ("unlabeled",), (case.label or "unlabeled" for case in cases)),
    )


# --- evaluation -------------------------------------------------------------

class _Tally(Counter):
    """Cases by outcome: ``matched``, ``mismatched`` or ``no_suggestion``."""

    def as_dict(self) -> dict:
        matched, mismatched, no_suggestion = self["matched"], self["mismatched"], self["no_suggestion"]
        suggested = matched + mismatched
        total = suggested + no_suggestion
        return {
            "total": total,
            "suggested": suggested,
            "matched": matched,
            "mismatched": mismatched,
            "no_suggestion": no_suggestion,
            "accuracy": (matched / suggested) if suggested else None,
            "coverage": (suggested / total) if total else None,
        }


@dataclass(frozen=True)
class EvalReport:
    """The overall values of ``_Tally.as_dict``, except that coverage is 0.0
    rather than None when there are no cases, then the breakdowns."""

    total: int
    suggested: int
    matched: int
    mismatched: int
    no_suggestion: int
    accuracy: float | None
    coverage: float
    by_label: dict[str, dict]
    per_program: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        # Not asdict, which deep-copies every breakdown value: 0.6 ms for 11 labels and 8 programs.
        return dict(vars(self))

    def render_table(self) -> str:
        def pct(value):
            return "N/A" if value is None else f"{100 * value:.1f}%"

        lines = [
            f"cases: {self.total}  suggested: {self.suggested}  "
            f"matched: {self.matched}  accuracy: {pct(self.accuracy)}  coverage: {pct(self.coverage)}"
        ]
        for row in self.per_program:
            lines.append(
                f"  program[{row['program']}]: suggested {row['suggested']}, "
                f"matched {row['matched']}, accuracy {pct(row['accuracy'])}"
            )
        for label, counts in self.by_label.items():
            lines.append(
                f"  label {label}: {counts['matched']}/{counts['suggested']} matched "
                f"of {counts['total']} cases"
            )
        return "\n".join(lines)


def resolutions_match(suggested, actual, conflict: ConflictInput, config: SynthConfig) -> bool:
    if tuple(suggested) == tuple(actual):
        return True
    if config.order_insensitive_includes and conflict_kind(conflict) == "Include":
        return sorted(n.raw_text for n in suggested) == sorted(n.raw_text for n in actual)
    return False


def evaluate(programs, cases, config: SynthConfig = DEFAULT_CONFIG) -> EvalReport:
    """Replay programs over a corpus and compare against human resolutions.

    Programs run in the given order (``dsl.first_resolution``); the first
    Resolved suggestion is the one compared. Guard misses and evaluation
    failures fall through to the next program. A program's ``per_program``
    row counts the cases it was tried on, those no earlier program
    resolved: the ones it fired on are suggested, the rest no_suggestion.
    """
    programs = list(programs)
    overall = _Tally()
    by_label: dict[str, _Tally] = {}
    per_program = [_Tally() for _ in programs]
    for case in cases:
        fired, nodes, failures = first_resolution(programs, case.conflict, config)
        for i, error in failures:
            logger.debug("program %d failed on %s#%d: %s", i, case.file_path, case.chunk_index, error)
        tallies = [overall, by_label.setdefault(case.label or "unlabeled", _Tally())]
        for tally in per_program[:len(programs) if fired is None else fired]:
            tally["no_suggestion"] += 1
        if fired is None:
            outcome = "no_suggestion"
        else:
            tallies.append(per_program[fired])
            matched = resolutions_match(nodes, case.human_resolution, case.conflict, config)
            outcome = "matched" if matched else "mismatched"
        for tally in tallies:
            tally[outcome] += 1
    totals = overall.as_dict()
    return EvalReport(
        **totals | {"coverage": totals["coverage"] or 0.0},
        by_label={label: tally.as_dict() for label, tally in sorted(by_label.items())},
        per_program=tuple({"program": i, **tally.as_dict()} for i, tally in enumerate(per_program)),
    )
