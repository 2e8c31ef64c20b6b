"""mergelearn: learn merge-conflict resolution strategies from examples.

Small textual conflicts (C/C++ includes and macros especially) are resolved
by a handful of repeating strategies. This package parses conflicted files,
expresses strategies as programs in a tiny guarded-transformation language,
learns those programs from one to three example resolutions, and replays
them on new conflicts.
"""

from .conflicts import (
    ConflictedFile,
    ConflictInput,
    Node,
    UnbalancedMarkersError,
    conflict_kind,
    parse_conflict_file,
    render_nodes,
    tokenize_nodes,
)
from .dsl import (
    Concat,
    Condition,
    Predicate,
    Program,
    Remove,
    Select,
    Selection,
    Suggestion,
    SynthConfig,
    build_pattern_dictionary,
    deserialize_program,
    first_resolution,
    run_program,
    serialize_program,
)
from .synth import ExampleSpec, RankedPrograms, learn
from .corpus import CorpusCase, evaluate, load_corpus, report

__version__ = "0.1.0"

__all__ = [
    "ConflictedFile",
    "ConflictInput",
    "Node",
    "UnbalancedMarkersError",
    "conflict_kind",
    "parse_conflict_file",
    "render_nodes",
    "tokenize_nodes",
    "Concat",
    "Condition",
    "Predicate",
    "Program",
    "Remove",
    "Select",
    "Selection",
    "Suggestion",
    "SynthConfig",
    "build_pattern_dictionary",
    "deserialize_program",
    "first_resolution",
    "run_program",
    "serialize_program",
    "ExampleSpec",
    "RankedPrograms",
    "learn",
    "CorpusCase",
    "evaluate",
    "load_corpus",
    "report",
    "__version__",
]
