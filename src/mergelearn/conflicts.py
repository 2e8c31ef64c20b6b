"""Parsing of git conflict markers into structured chunks and line nodes.

A conflicted file is split into outside text and marker-delimited chunks.
Each chunk carries two regions (main and fork); region lines are tokenized
into nodes, the atomic units that resolution programs select and combine;
equal lines of one file are tokenized once and share one node.
One ``ConflictedFile`` per parse holds the chunks and is every chunk's
``context``: what each chunk's pattern dictionary reads of the rest of the
file. What it derives from the outside text (the outside lines, their
match index and the stem search behind the Dependency pattern) is computed
the first time a pattern reads it, once per file, and then kept. A file's
bytes become text by one rule, ``decode_text``, and text becomes lines by
one rule, ``split_lines``.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Callable, Mapping

INCLUDE = "include"
MACRO = "macro"
RAW = "raw"

SIDE_ORDERS = ("fork-first", "ours-first")

_INCLUDE_RE = re.compile(r'^#\s*include\s*("[^"]+"|<[^>]+>)$')
_MACRO_RE = re.compile(r"^([A-Z][A-Z0-9_]*)\s*(\(.*)$")

# A marker line is exactly seven marker characters, then whitespace or the
# line's end; a separator takes nothing but whitespace after it. Only a line
# that starts with a marker character is matched against the grammar.
_MARKER_CHARS = "<|=>"
START_MARKER = r"<{7}(?:\s.*)?$"
_MARKER_RE = re.compile(
    rf"(?P<start>{START_MARKER})|(?P<base>\|{{7}}(?:\s.*)?$)|(?P<sep>={{7}}\s*$)|(?P<end>>{{7}}(?:\s.*)?$)")

# Parser state -> (the state each marker it accepts leads to, why any other
# marker is misplaced there). None marks a marker that is plain text there:
# outside a chunk, separator and base lines are.
_TRANSITIONS = {
    "outside": ({"start": "first", "sep": None, "base": None}, "end marker without a matching start marker"),
    "first": ({"sep": "second", "base": "base"}, "marker inside an open conflict section"),
    "base": ({"sep": "second"}, "marker inside a base section"),
    "second": ({"end": "outside"}, "marker inside the second conflict section"),
}


class UnbalancedMarkersError(ValueError):
    """Conflict markers in the file do not nest properly.

    The message is the file's path followed by ``detail``, which is
    ``":<line>: <why>"`` or ``": <why>"``, so a caller can name the file
    another way.
    """

    def __init__(self, file_path: str, detail: str):
        super().__init__(file_path, detail)
        self.detail = detail

    def __str__(self) -> str:
        return "".join(self.args)


@dataclass(frozen=True, slots=True)
class Node:
    """One region line, reduced to what resolutions care about.

    ``raw_text`` is the node's canonical text, and the node renders as it:
    the line with its whitespace normalized, written ``#include "p"`` (or
    ``#include <p>``) for an include and with no space before the first
    ``(`` for a macro, so equality ignores spacing variations of the
    original line. It fixes the node: ``tokenize_line(node.raw_text) ==
    node``.
    """

    kind: str
    raw_text: str

    @property
    def include_path(self) -> str | None:
        """Path between the quotes/brackets of an include, else None."""
        return self.raw_text[10:-1] if self.kind == INCLUDE else None

    @property
    def is_blank(self) -> bool:
        return not self.raw_text


def normalize_line(line: str) -> str:
    """Strip and collapse whitespace runs; the unit of node equality.
    ``str.split`` splits on exactly the characters a regex ``\\s`` matches."""
    return " ".join(line.split())


def tokenize_line(line: str) -> Node:
    text = normalize_line(line)
    m = _INCLUDE_RE.match(text)
    if m:
        return Node(INCLUDE, f"#include {m.group(1)}")
    m = _MACRO_RE.match(text)
    if m:
        return Node(MACRO, m.group(1) + m.group(2))
    return Node(RAW, text)


class LineNodes(dict):
    """One file's ``{line: Node}``: a line is tokenized the first time it is
    looked up, so equal lines share one node. Two threads that look a new
    line up at once may each tokenize it; their nodes are equal."""

    __slots__ = ()

    def __missing__(self, line: str) -> Node:
        node = self[line] = tokenize_line(line)
        return node


def tokenize_nodes(lines, memo: LineNodes | None = None) -> tuple[Node, ...]:
    """Tokenize region lines, one node per line. Total: never fails. Through
    a ``memo``, a line it holds is not tokenized again."""
    return tuple(map(tokenize_line if memo is None else memo.__getitem__, lines))


def render_nodes(nodes) -> str:
    """Render nodes back to text, one line per node."""
    return "\n".join(node.raw_text for node in nodes)


def _stem(path: str) -> str:
    name = posixpath.basename(path)
    return name.rsplit(".", 1)[0] if "." in name else name


def match_key(node: Node):
    """Identity used for duplicate detection; blanks never match, includes
    match by file name."""
    if node.is_blank:
        return None
    if node.kind == INCLUDE:
        return ("include", posixpath.basename(node.include_path))
    return (node.kind, node.raw_text)


def match_index(nodes) -> dict[tuple, tuple[Node, ...]]:
    """The non-blank nodes grouped by ``match_key``, in order."""
    index: dict[tuple, list[Node]] = {}
    for node in nodes:
        key = match_key(node)
        if key is not None:
            index.setdefault(key, []).append(node)
    return {key: tuple(group) for key, group in index.items()}


def _code(lines, nodes) -> str:
    """The lines that are not includes, joined: where Dependency looks for stems."""
    return "\n".join(line for line, node in zip(lines, nodes) if node.kind != INCLUDE)


def _stem_users(paths, outside_code: str, chunk_codes) -> dict[str, frozenset[int]]:
    """For each include path, the chunks whose code uses its stem as a word,
    or none when the outside code does.

    A stem never holds a newline, so no match spans two joined lines, and
    searching each chunk's code apart finds what one search over the
    siblings' code joined finds.
    """
    users: dict[str, frozenset[int]] = {}
    for stem in dict.fromkeys(map(_stem, paths)):
        # Matches exactly where \bstem\b does; with the literal first, the
        # search skips ahead to it instead of trying every position.
        literal = re.escape(stem)
        word = re.compile(rf"{literal}(?<=\b{literal})\b")
        users[stem] = frozenset() if word.search(outside_code) else frozenset(
            i for i, code in enumerate(chunk_codes) if word.search(code))
    return {path: users[_stem(path)] for path in paths}


def _include_paths(chunks) -> dict[str, None]:
    """The distinct include paths of the chunks' regions, first-occurrence order."""
    return dict.fromkeys(n.include_path for chunk in chunks for n in chunk.region_nodes() if n.kind == INCLUDE)


@dataclass(frozen=True)
class ConflictInput:
    """One conflict chunk: the program input ``x``.

    Read-only, so safe to share across workers. The chunk is the
    ``index``-th of ``context``, the ``ConflictedFile`` it was parsed from,
    which holds what the file's chunks share: the outside text, the header
    contents and the sibling chunks. Two chunks are equal when they have
    the same regions at the same index of the same parsed file.
    """

    file_path: str
    main_nodes: tuple[Node, ...]
    fork_nodes: tuple[Node, ...]
    main_lines: tuple[str, ...]
    fork_lines: tuple[str, ...]
    context: ConflictedFile = field(repr=False)
    index: int

    def region_nodes(self) -> tuple[Node, ...]:
        return self.main_nodes + self.fork_nodes


def conflict_kind(conflict: ConflictInput) -> str:
    """Classify a chunk as Include, Macro, Mixed or Other.

    Blank lines are ignored; any non-blank raw line (or an empty chunk)
    makes it Other. Invariant under node order within a region.
    """
    kinds = {n.kind for n in conflict.region_nodes() if not n.is_blank}
    if kinds == {INCLUDE}:
        return "Include"
    if kinds == {MACRO}:
        return "Macro"
    if kinds == {INCLUDE, MACRO}:
        return "Mixed"
    return "Other"


def decode_text(data: bytes) -> tuple[str, str]:
    """The text of a file's bytes, read as text mode reads them (strict
    UTF-8, a BOM kept, CRLF and lone CR read as LF), and its line ending:
    "\r\n" when every line ending in it was CRLF, else "\n"."""
    text = data.decode("utf-8")
    if "\r" not in text:
        return text, "\n"
    crlf = text.count("\r\n")
    newline = "\r\n" if crlf == text.count("\r") == text.count("\n") else "\n"
    return text.replace("\r\n", "\n").replace("\r", "\n"), newline


def read_text(path) -> tuple[str, str]:
    """``decode_text`` of the file's bytes, read in one unbuffered pass."""
    with open(path, "rb", buffering=0) as f:
        return decode_text(f.read())


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, with CRLF read as LF. A final newline ends the
    last line; it does not start an empty one."""
    lines = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


class ConflictedFile:
    """A parsed conflicted file: its chunks and what they share.

    The file's text is held once, as ``lines`` (``split_lines`` of it).
    ``spans[i]`` is the ``(start, end)`` slice of ``lines`` that holds
    chunk ``i``'s marker block, markers included, so an unresolved chunk is
    written back verbatim; the lines outside every span are the outside
    text. Each of ``chunks`` holds its regions' lines and nodes, one
    ``(main_nodes, fork_nodes, main_lines, fork_lines)`` of ``regions``. The
    read-only ``header_contents`` maps include paths to header text when
    the corpus ships headers (empty otherwise). ``line_nodes`` is the
    file's ``LineNodes``: every line of the file is tokenized through it,
    so equal lines are tokenized once and share one node. The outside
    lines, their ``match_index`` (``outside_index``) and ``stem_users``
    (which backs the Dependency pattern, see ``_stem_users``; empty for a
    lone chunk, which has no siblings) are computed on first read and
    cached, so the outside lines are tokenized at most once per file and
    only when a pattern reads them. The caches are write-once and a
    recomputation gives an equal value, so a file and its chunks are safe
    to share across workers.
    """

    def __init__(self, file_path, lines, spans, trailing_newline, regions, header_contents,
                 line_nodes: LineNodes | None = None):
        self.file_path = file_path
        self.lines = lines
        self.spans = spans
        self.trailing_newline = trailing_newline
        self.header_contents = MappingProxyType(header_contents)
        if line_nodes is None:  # a copy: its regions' lines seed the memo
            line_nodes = LineNodes(pair for mn, fn, ml, fl in regions for pair in zip(ml + fl, mn + fn))
        self.line_nodes = line_nodes
        self.chunks = [ConflictInput(file_path, *region, self, i) for i, region in enumerate(regions)]

    def __reduce__(self):
        # Only the inputs: mapping proxies do not pickle, and a copy
        # recomputes its caches on first read.
        regions = tuple((c.main_nodes, c.fork_nodes, c.main_lines, c.fork_lines) for c in self.chunks)
        return ConflictedFile, (self.file_path, self.lines, self.spans, self.trailing_newline, regions,
                                dict(self.header_contents))

    @cached_property
    def outside_content(self) -> tuple[str, ...]:
        # The runs from each span's end (0 first) to the next span's start (the file's end last).
        bounds = (0, *chain.from_iterable(self.spans), len(self.lines))
        return tuple(chain.from_iterable(self.lines[start:end] for start, end in zip(bounds[::2], bounds[1::2])))

    @cached_property
    def _outside_nodes(self) -> tuple[Node, ...]:
        return tokenize_nodes(self.outside_content, self.line_nodes)

    @cached_property
    def outside_index(self) -> Mapping[tuple, tuple[Node, ...]]:
        return MappingProxyType(match_index(self._outside_nodes))

    @cached_property
    def stem_users(self) -> Mapping[str, frozenset[int]]:
        users = {}
        if len(self.chunks) > 1:
            chunk_codes = [_code(c.main_lines + c.fork_lines, c.region_nodes()) for c in self.chunks]
            users = _stem_users(_include_paths(self.chunks), _code(self.outside_content, self._outside_nodes),
                                chunk_codes)
        return MappingProxyType(users)

    @classmethod
    def parse(cls, text: str, file_path: str, side_order: str = "fork-first",
              header_text: Callable[[str], str | None] | None = None) -> "ConflictedFile":
        """Parse marker text into a file that is every chunk's ``context``.

        ``header_text`` returns the header text for an include path, or None
        when there is none; it is asked once per include path of the chunks.
        """
        if side_order not in SIDE_ORDERS:
            raise ValueError(f"side_order must be one of {SIDE_ORDERS}, got {side_order!r}")
        lines = tuple(split_lines(text))

        spans, regions = [], []
        memo = LineNodes()
        state = "outside"
        for lineno, line in enumerate(lines):
            if not line or line[0] not in _MARKER_CHARS or (m := _MARKER_RE.match(line)) is None:
                continue
            moves, misplaced = _TRANSITIONS[state]
            marker = m.lastgroup
            if marker not in moves:
                raise UnbalancedMarkersError(file_path, f":{lineno + 1}: {misplaced}")
            if moves[marker] is None:
                continue
            state = moves[marker]
            if marker == "start":
                marks = {}  # the open chunk's marker line numbers
            marks[marker] = lineno
            if marker == "end":
                start, sep = marks["start"], marks["sep"]
                spans.append((start, lineno + 1))
                # A base section's content is dropped.
                first, second = lines[start + 1:marks.get("base", sep)], lines[sep + 1:lineno]
                main_lines, fork_lines = (second, first) if side_order == "fork-first" else (first, second)
                regions.append((tokenize_nodes(main_lines, memo), tokenize_nodes(fork_lines, memo),
                                main_lines, fork_lines))
        if state != "outside":
            raise UnbalancedMarkersError(file_path, ": unterminated conflict at end of file")
        parsed = cls(file_path, lines, tuple(spans), text.endswith("\n"), regions, {}, memo)
        if header_text is not None:
            parsed.header_contents = MappingProxyType({path: contents for path in _include_paths(parsed.chunks)
                                                       if (contents := header_text(path)) is not None})
        return parsed

    def render(self, resolutions: dict[int, tuple[Node, ...]] | None = None) -> str:
        """Rebuild the file text, substituting resolved chunks.

        Chunks absent from ``resolutions`` keep their original marker block.
        An empty resolution deletes the region without leaving a blank line.
        """
        resolutions = resolutions or {}
        out: list[str] = []
        done = 0  # lines before done are written or replaced
        for index, (start, end) in enumerate(self.spans):
            if index in resolutions:
                out += self.lines[done:start]
                out += (node.raw_text for node in resolutions[index])
                done = end
        out += self.lines[done:]
        text = "\n".join(out)
        # Test the lines, not the text: a lone blank line joins to "".
        if self.trailing_newline and out:
            text += "\n"
        return text


def parse_conflict_file(text: str, file_path: str, side_order: str = "fork-first") -> list[ConflictInput]:
    """Parse marker text into chunks, in file order.

    Returns an empty list for marker-free files; raises
    UnbalancedMarkersError when markers do not nest.
    """
    return ConflictedFile.parse(text, file_path, side_order=side_order).chunks
