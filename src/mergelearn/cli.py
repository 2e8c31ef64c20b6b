"""Command-line interface: learn, apply, classify, eval.

Exit codes: 0 success (including "no suggestion"), 1 operational failure
(an unreadable input or an unwritable output among them), 2 usage error.
All machine-readable output has a stable key order and no timestamps.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import hashlib
import json
import logging
import os
import stat
import sys
import tempfile
from pathlib import Path

from .conflicts import (SIDE_ORDERS, ConflictedFile, UnbalancedMarkersError, decode_text, read_text, split_lines,
                        tokenize_nodes)
from .corpus import evaluate, load_corpus, report
from .dsl import (
    Program,
    SynthConfig,
    config_to_json,
    deserialize_programs,
    first_resolution,
    program_to_json,
)
from .synth import ExampleSpec, learn

KEYWORDS_ENV = "MERGELEARN_KEYWORDS"


def _build_config(args) -> SynthConfig:
    kwargs = {}
    if getattr(args, "max_depth", None) is not None:
        kwargs["max_concat_depth"] = args.max_depth
    if getattr(args, "order_insensitive_includes", False):
        kwargs["order_insensitive_includes"] = True
    keywords_path = os.environ.get(KEYWORDS_ENV)
    if keywords_path:
        try:
            data = json.loads(read_text(keywords_path)[0])
        except (OSError, ValueError, RecursionError) as exc:
            raise ValueError(f"{KEYWORDS_ENV}: {exc}") from exc
        for side in ("fork", "main"):
            words = data.get(side, []) if isinstance(data, dict) else None
            # An empty keyword is in every line, so it would match them all.
            if not isinstance(words, list) or not all(isinstance(w, str) and w for w in words):
                raise ValueError(f"{KEYWORDS_ENV}: expected an object whose fork/main are arrays of non-empty strings")
            if side in data:
                kwargs[f"{side}_keywords"] = tuple(words)
    return SynthConfig(**kwargs)


def _read_text(path) -> tuple[str, str]:
    """``read_text`` of ``path``; a file that is not UTF-8, or a path
    holding a NUL, raises a ValueError that names it."""
    try:
        return read_text(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``; a path holding a NUL raises a ValueError that names it."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_example_spec(path: Path, side_order: str) -> tuple[ExampleSpec, bytes]:
    """The examples of the spec at ``path`` and its bytes, read once, so a FIFO can hold it."""
    try:
        data = path.read_bytes()
        entries = json.loads(decode_text(data)[0])
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: expected a non-empty JSON array of examples")
    base = path.parent
    cases = []
    for i, entry in enumerate(entries):
        where = f"{path}: example {i}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where}: expected an object, found {json.dumps(entry)}")
        for key in ("conflict", "resolution"):
            if key not in entry:
                raise ValueError(f'{where}: missing "{key}"')
        for key in ("conflict", "resolution", "file_path"):
            if key in entry and not isinstance(entry[key], str):
                raise ValueError(f'{where}: "{key}" must be a string, found {json.dumps(entry[key])}')
            if key != "file_path" and "\0" in entry[key]:
                raise ValueError(f'{where}: "{key}" must not contain a NUL character')
        conflict_path = base / entry["conflict"]
        resolution_path = base / entry["resolution"]
        file_path = entry.get("file_path", str(conflict_path))
        try:
            chunks = ConflictedFile.parse(_read_text(conflict_path)[0], file_path, side_order=side_order).chunks
        except UnbalancedMarkersError as exc:
            # ``file_path`` is the logical path used for header lookup; name the file on disk.
            raise ValueError(f"{conflict_path}{exc.detail}") from exc
        if len(chunks) != 1:
            raise ValueError(f"{conflict_path}: example files must contain exactly one conflict, found {len(chunks)}")
        cases.append((chunks[0], tokenize_nodes(split_lines(_read_text(resolution_path)[0]))))
    return ExampleSpec(tuple(cases)), data


def _program_file_json(entry, config: SynthConfig, spec_hash: str, rank_index: int) -> dict:
    out = program_to_json(entry.program)
    out["meta"] = {
        "rank": rank_index,
        "score": entry.score,
        "features": entry.features,
        "spec_hash": spec_hash,
        "config": config_to_json(config),
    }
    return out


def cmd_learn(args) -> int:
    for flag, value in (("--top", args.top), ("--max-depth", args.max_depth)):
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return 2
    config = _build_config(args)
    spec_path = Path(args.examples)
    spec, spec_data = _load_example_spec(spec_path, args.side_order)
    ranked = learn(spec, config)
    if not ranked:
        raise ValueError(f"{spec_path}: no consistent program found for the given examples")
    spec_hash = hashlib.sha256(spec_data).hexdigest()
    top = ranked[: args.top]
    payload = [_program_file_json(entry, config, spec_hash, i) for i, entry in enumerate(top)]
    out_path = Path(args.out)
    _write_text(out_path, json.dumps(payload[0] if len(payload) == 1 else payload, indent=2) + "\n")
    for i, (entry, out) in enumerate(zip(top, payload)):
        feats = " ".join(f"{k}={v}" for k, v in out["meta"]["features"].items())
        print(f"rank={i} score={entry.score:g} {feats}")
    print(f"wrote {len(top)} program(s) to {out_path}")
    return 0


def _load_programs(paths) -> list[Program]:
    """The programs of each file, one program or an array of them. An
    unreadable file raises OSError; anything else wrong with it (not UTF-8,
    not JSON, not a program) raises a ValueError that names the file."""
    programs = []
    for path in paths:
        try:
            programs.extend(deserialize_programs(read_text(path)[0]))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return programs


def cmd_apply(args) -> int:
    config = _build_config(args)
    programs = _load_programs(args.program)
    # A file that had only CRLF line endings is written back so.
    source, newline = _read_text(args.file)
    parsed = ConflictedFile.parse(source, args.file, side_order=args.side_order)
    resolutions = {}
    for index, chunk in enumerate(parsed.chunks):
        fired, nodes, failures = first_resolution(programs, chunk, config)
        for pi, error in failures:
            print(f"note: program {pi} failed on chunk {index}: {error}", file=sys.stderr)
        if fired is not None:
            resolutions[index] = nodes
    total = len(parsed.chunks)
    suggested = len(resolutions)
    resolved_text = parsed.render(resolutions)
    written = False
    if args.print:
        sys.stdout.write(resolved_text)
    elif args.diff:
        diff = difflib.unified_diff(
            source.splitlines(keepends=True),
            resolved_text.splitlines(keepends=True),
            fromfile=args.file,
            tofile=args.file + " (resolved)",
        )
        sys.stdout.writelines(diff)
    else:  # --in-place
        # A file with no conflict chunks has nothing to resolve and stays as it is.
        if suggested and (suggested == total or args.partial):
            # Through a symlink, the file it names is replaced and the link stays.
            _replace_file(Path(os.path.realpath(args.file)), resolved_text, newline)
            written = True
    summary = {"file": args.file, "total": total, "suggested": suggested, "written": written}
    print(json.dumps(summary), file=sys.stderr)
    return 0


def _replace_file(path: Path, text: str, newline: str) -> None:
    """Write text with the given line ending to a temporary file beside
    ``path``, then rename it over ``path``, keeping its mode: a reader sees
    the old file or the new one, never a torn one."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_report(report_arg: str, json_dict: dict, table: str) -> None:
    if report_arg != "-":
        _write_text(report_arg, json.dumps(json_dict, indent=2) + "\n")
    print(table)


def cmd_classify(args) -> int:
    result = report(load_corpus(args.root))
    _write_report(args.report, result.to_json_dict(), result.render_table())
    return 0


def cmd_eval(args) -> int:
    config = _build_config(args)
    result = evaluate(_load_programs(args.program), load_corpus(args.root), config)
    _write_report(args.report, result.to_json_dict(), result.render_table())
    return 0


_REPORT_HELP = "JSON report path; with -, no JSON is written (the summary table goes to stdout either way)"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the four commands, built on the first call and shared by
    every later one: parsing leaves no state in it, and the help formatter
    reads the terminal width each time it prints."""
    parser = argparse.ArgumentParser(
        prog="mergelearn",
        description="Learn merge-conflict resolution programs from examples and apply them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn_p = sub.add_parser("learn", help="learn a program from example resolutions")
    learn_p.add_argument("--examples", required=True, help="JSON example spec file")
    learn_p.add_argument("--out", required=True, help="output program file")
    learn_p.add_argument("--top", type=int, default=1, help="emit up to N programs in rank order")
    learn_p.add_argument("--max-depth", type=int, default=None, help="concat nesting budget")
    learn_p.add_argument("--side-order", choices=SIDE_ORDERS, default="fork-first")
    learn_p.set_defaults(func=cmd_learn)

    apply_p = sub.add_parser("apply", help="apply learned programs to a conflicted file")
    apply_p.add_argument("--program", action="append", required=True, help="program file (repeatable)")
    apply_p.add_argument("file", help="conflicted file")
    mode = apply_p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--print", action="store_true", help="write the resolved file to stdout")
    mode.add_argument("--in-place", action="store_true", help="rewrite the file")
    mode.add_argument("--diff", action="store_true", help="show a unified diff")
    apply_p.add_argument("--partial", action="store_true",
                         help="with --in-place, keep markers on unsuggested chunks")
    apply_p.add_argument("--side-order", choices=SIDE_ORDERS, default="fork-first")
    apply_p.set_defaults(func=cmd_apply)

    classify_p = sub.add_parser("classify", help="classify a conflict corpus")
    classify_p.add_argument("root", help="corpus root directory")
    classify_p.add_argument("--report", required=True, help=_REPORT_HELP)
    classify_p.set_defaults(func=cmd_classify)

    eval_p = sub.add_parser("eval", help="evaluate programs against human resolutions")
    eval_p.add_argument("--program", action="append", required=True, help="program file (repeatable)")
    eval_p.add_argument("root", help="corpus root directory")
    eval_p.add_argument("--report", required=True, help=_REPORT_HELP)
    eval_p.add_argument("--order-insensitive-includes", action="store_true",
                        help="compare include-only resolutions as multisets")
    eval_p.set_defaults(func=cmd_eval)
    return parser


class _StderrHandler(logging.StreamHandler):
    """A handler that writes each record to ``sys.stderr`` as it is when the
    record is emitted, so that every ``main`` call's diagnostics go to that
    call's stderr, not to the stream of the first call."""

    def __init__(self):
        # Not StreamHandler.__init__, which would assign the stream.
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


_STDERR_HANDLER = _StderrHandler()


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s",
                        handlers=[_STDERR_HANDLER])
    args = build_parser().parse_args(argv)
    # The one place a fault becomes an error line: OSError for a file that
    # cannot be read or written, ValueError for input that cannot be used.
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # A path holding a line break is still named on one line.
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
