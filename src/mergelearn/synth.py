"""Learning resolution programs from example (conflict, resolution) pairs.

Learning is top-down: each operator's inverse maps a desired output to the
sub-outputs its arguments must produce, and recursion bottoms out at
selections. It runs over every example at once: a candidate set is keyed
by one target per example and keeps only programs that every example's
inverses produce, so the set consistent with all examples is generated
directly rather than intersected from per-example sets. Nodes and
selections are interned to ints, so targets and memo keys are int tuples
and the inverses are index lookups. Each example's selection table is
built in one pass from the ids of its two regions, keyed by plain
``(tag, k, path, key)`` tuples, and a ``Selection``, ``Select`` or
``Remove`` is built only for a candidate every example shares. One
additive score, ``dsl.program_score``, ranks candidates. The learner
builds every transformation's rank entry (score, size, structural key,
transformation, Pattern keys) bottom-up with dsl's own constructors,
``rank_entry`` and ``concat_entry``, so ``rank`` computes the same entry
from a finished transformation.

Each candidate set is a lazy stream (``_Stream``): one heap merges its base
candidates and its Concat products best first, pulling an arm's next entry
only when it is needed, so a set is listed in rank order only as far as a
reader pulls it. No set is cut; ``learn_transformation`` lists the first
``MAX_PROGRAMS``.

Guard pairing works on indices (``_pair_guards``). A guarded program
scores its transformation's score plus its guard's. It pulls
transformations from the stream only until no later one can enter its
first ``MAX_PROGRAMS`` pairs. Past that cap, the cut score is found by
bisecting per-guard streams of transformation indices, and the pairs tied
at it are taken in index order. Each stream keeps a prefix, so guard
pairing returns one count per stream and builds no per-pair key. In a
stream the flat key ``(score, size, guard's rank by structural key,
transformation index)`` rises with position, and it is the programs' rank
order: with score, size and guard equal, the transformations' scores and
sizes are equal too, and the transformations are already in structural
order. ``learn`` returns the streams as a ``RankedPrograms``, which merges
them on that key only as far as a caller reads and builds each ``Program``
when it is read: reading the top program merges one pair and builds one.

Candidates are kept in a normal form: a Concat arm that evaluates to
nothing may appear only once, as the right arm of the root. Anything else
is padding that a shorter equivalent program already expresses, and
admitting it makes the candidate space explode.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import logging
from collections.abc import Sequence
from dataclasses import dataclass

from .conflicts import ConflictInput, Node
from .dsl import (
    DEFAULT_CONFIG,
    PATTERN_KEYS,
    Condition,
    PatternDictionary,
    Predicate,
    Program,
    Remove,
    Select,
    Selection,
    SynthConfig,
    Transformation,
    build_pattern_dictionary,
    concat_entry,
    program_features,
    rank_entry,
    remove_nodes,
)

logger = logging.getLogger(__name__)

# Guard subsets are enumerated exhaustively up to this many predicates;
# beyond it only singletons and the full conjunction are considered.
_MAX_SUBSET_PREDICATES = 12

# How many transformations are listed from the root set, and how many pairs
# guard pairing keeps; a result cut by it is marked ``truncated``.
MAX_PROGRAMS = 10_000


class EmptyConditionError(Exception):
    """No predicate holds on every example input."""


@dataclass(frozen=True)
class ExampleSpec:
    """The inductive specification: (input, expected nodes) cases."""

    cases: tuple[tuple[ConflictInput, tuple[Node, ...]], ...]

    def __post_init__(self):
        if not self.cases:
            raise ValueError("an example spec needs at least one case")

    @property
    def inputs(self) -> tuple[ConflictInput, ...]:
        return tuple(conflict for conflict, _ in self.cases)


def _rank_key(entry):
    """Rank entries (``dsl.rank_entry``) sort by score, size, then structure."""
    return entry[:3]


@dataclass(frozen=True)
class ProgramSet:
    """Transformations consistent with one spec, rank-ordered.

    ``entries`` are the learner's rank entries, ``(score, size, struct_key,
    transformation, pattern_keys)``, best first, so later stages reuse them
    instead of recomputing. ``truncated`` means the learner's set holds more
    than the ``MAX_PROGRAMS`` listed here; for a set learned from several
    examples at once, that is the joint set, not a per-example one.
    """

    entries: tuple[tuple, ...]
    truncated: bool = False

    @property
    def programs(self) -> tuple[Transformation, ...]:
        return tuple(entry[3] for entry in self.entries)


@dataclass(frozen=True, slots=True)
class RankedProgram:
    program: Program
    score: float

    @property
    def features(self) -> dict:
        return program_features(self.program)


class RankedPrograms(Sequence):
    """Ranked programs, best first, each built the first time it is read.

    ``entries`` are built ``RankedProgram``s. ``learn`` instead hands over
    ``sources``: its transformation rank entries and guard pairing's streams
    ``(guard entry, guard rank, group, count)``, in which the guard pairs
    with the first ``count`` transformation indices of ``group``. In a
    stream the flat key ``(score, size, guard rank, ti)`` rises with
    position, so a heap of the streams' next pairs, ``(*key, stream,
    position)``, merges them in rank order, only as far as the highest
    index read. The last popped stream's next pair waits outside the heap,
    so a run from one stream costs one comparison a pair. Entry ``i``
    becomes a ``RankedProgram`` when first read and takes its pair's place;
    once every entry is built the sources are dropped. ``len``, truth and
    ``truncated`` build nothing; ``top``, indexing, slicing and iteration
    build only what they touch; ``entries`` builds every one.
    """

    def __init__(self, entries=(), truncated: bool = False, sources: tuple | None = None):
        self._entries, self._sources, self.truncated = list(entries), sources, truncated
        ts, streams = sources or ((), ())
        self._unbuilt = sum(stream[3] for stream in streams)
        self._len = len(self._entries) + self._unbuilt
        self._heap = [(ts[group[0]][0] + guard[0], ts[group[0]][1] + guard[1], guard_rank, group[0], s, 0)
                      for s, (guard, guard_rank, group, _) in enumerate(streams)]
        heapq.heapify(self._heap)
        self._pending = None

    def _entry(self, i: int) -> RankedProgram:
        entries, heap, pending = self._entries, self._heap, self._pending
        while len(entries) <= i:
            ts, streams = self._sources
            entries.append(heapq.heappop(heap) if pending is None else heapq.heappushpop(heap, pending))
            _, _, guard_rank, _, s, p = entries[-1]
            guard, _, group, count = streams[s]
            pending = None
            if p + 1 < count:
                t = ts[group[p + 1]]
                pending = (t[0] + guard[0], t[1] + guard[1], guard_rank, group[p + 1], s, p + 1)
            self._pending = pending
        entry = entries[i]
        if isinstance(entry, tuple):
            ts, streams = self._sources
            score, _, _, ti, s, _ = entry
            entry = entries[i] = RankedProgram(Program(streams[s][0][3], ts[ti][3]), score)
            self._unbuilt -= 1
            if not self._unbuilt:
                self._sources = None
        return entry

    def __getitem__(self, index):
        positions = range(self._len)[index]
        if isinstance(index, slice):
            return [self._entry(i) for i in positions]
        return self._entry(positions)

    def __iter__(self):
        return map(self._entry, range(self._len))

    def __len__(self):
        return self._len

    @property
    def top(self) -> RankedProgram | None:
        return self._entry(0) if self._len else None

    @property
    def entries(self) -> tuple[RankedProgram, ...]:
        return tuple(self)


def wf_concat(output) -> list[tuple[tuple[Node, ...], tuple[Node, ...]]]:
    """Inverse of Concat: every two-part split with both parts non-empty."""
    output = tuple(output)
    return [(output[:i], output[i:]) for i in range(1, len(output))]


def _removed(region: tuple, target: tuple) -> tuple:
    """Inverse of Remove over one source, on items of any hashable kind.
    Remove deletes the first occurrence of each removed item, so only their
    multiset counts: the source minus the target, in source order, returned
    if deleting it leaves the target. Else ``()``, as for an empty removal,
    which a plain selection already expresses, or a target item the source
    lacks; a non-empty removal leaves fewer items than its source."""
    if len(target) >= len(region):
        return ()
    rest = list(region)
    for item in target:
        try:
            rest.remove(item)
        except ValueError:
            return ()
    removed = tuple(rest)
    return removed if remove_nodes(region, removed) == target else ()


def wf_remove(conflict: ConflictInput, target) -> list[tuple[Selection, tuple[Node, ...]]]:
    """Inverse of Remove over whole-branch sources: ``(source, removed nodes)``
    for each source from which Remove can leave the target. The removed
    nodes are grouped, equal nodes together, in the order each first occurs
    in the source."""
    target = tuple(target)
    return [(Selection(tag), tuple(sorted(removed, key=region.index)))
            for tag, region in (("Main", conflict.main_nodes), ("Fork", conflict.fork_nodes))
            if (removed := _removed(region, target))]


class _Stream:
    """A candidate set, listed lazily in rank order.

    ``entries`` is the prefix listed so far. A set with Concat products keeps
    one heap over the next unlisted base entry and the next reachable entry
    of each product, keyed by the full rank key: Concat is monotone in each
    arm's rank and struct keys are unique, so the heap pops the set in rank
    order. A struct key is one flat string, so a tie on score and size costs
    one string comparison, however deep the candidates. Product ``(i, j)``
    is reached only from ``(i, j - 1)`` or, when ``j`` is 0, from ``(i - 1,
    0)``, and an arm's next entry is pulled from its own stream only then. A
    set with no products is its sorted base list.
    """

    def __init__(self, base: list, products: list):
        self._base, self._products = base, products
        if not products:
            self.entries, self._heap = base, []
            return
        self.entries = []
        self._heap = [(concat_entry(left.entries[0], right.entries[0]), p, 0, 0)
                      for p, (left, right) in enumerate(products) if left.pull(1) and right.pull(1)]
        if base:
            self._heap.append((base[0], -1, 0, 0))
        heapq.heapify(self._heap)

    def pull(self, n: int) -> bool:
        """List the first ``n`` entries, or every entry of a shorter set;
        whether the set has ``n``."""
        entries, heap = self.entries, self._heap
        while len(entries) < n and heap:
            cand, p, i, j = heapq.heappop(heap)
            entries.append(cand)
            if p < 0:
                if i + 1 < len(self._base):
                    heapq.heappush(heap, (self._base[i + 1], -1, i + 1, 0))
                continue
            left, right = self._products[p]
            if j == 0 and (i + 1 < len(left.entries) or left.pull(i + 2)):
                heapq.heappush(heap, (concat_entry(left.entries[i + 1], right.entries[0]), p, i + 1, 0))
            if j + 1 < len(right.entries) or right.pull(j + 2):
                heapq.heappush(heap, (concat_entry(left.entries[i], right.entries[j + 1]), p, i, j + 1))
        return len(entries) >= n


class _TransformationLearner:
    """Memoized candidate generation over every example of a spec at once.

    A memo key holds one target per example, and a set holds the
    transformations that map each example's input to its own target.
    Candidates are rank entries (``dsl.rank_entry``) and each set is a
    ``_Stream``, listed in rank order only as far as a reader pulls it. A
    Concat's split on each example is fixed by its left arm's output there,
    so products over different tuples of split points never share a
    structure, and the set built for a target tuple is the intersection of
    the per-example sets. Split points are chosen one example at a time,
    and a choice whose arms no program produces on the examples so far is
    dropped at once, so the walk follows what the examples share instead of
    the product of their splits.

    Equal nodes share an int id, as do equal selections, so targets and memo
    keys are int tuples. Each example's selection table is built in one pass
    from the ids of its two regions: index selections are single ids, path
    selections group the region ids by include path, and each non-empty
    pattern entry is interned once. A selection is a plain ``(tag, k, path,
    key)`` tuple with an id. Each example indexes its selections by value ids
    (the inverse of selection) and its non-empty ones by sorted value ids
    (Remove's multiset), and keeps each region's ids for ``_removed``. The
    inverses emit ``(source id or -1, selection id)`` pairs; ``_base``
    builds transformations only for shared pairs, and ``selection`` builds
    each of their ``Selection``s once.
    """

    def __init__(self, conflicts, pdicts):
        self._ids: dict = {}  # node -> id
        keys: dict = {}  # (tag, k, path, key) -> selection id
        self._indexes = []  # per example: (selections by value, by sorted value, (source id, region ids))
        for conflict, pdict in zip(conflicts, pdicts):
            sides = (("Main", conflict.main_nodes, self.intern(conflict.main_nodes)),
                     ("Fork", conflict.fork_nodes, self.intern(conflict.fork_nodes)))
            table = [((tag, None, None, None), ids) for tag, _, ids in sides]
            table += [((tag + "ByIndex", k, None, None), (i,)) for tag, _, ids in sides for k, i in enumerate(ids)]
            for tag, nodes, ids in sides:
                by_path: dict = {}
                for node, i in zip(nodes, ids):
                    if (path := node.include_path) is not None:
                        by_path.setdefault(path, []).append(i)
                table += [((tag + "ByPath", None, path, None), tuple(by_path[path])) for path in sorted(by_path)]
            table += [(("Pattern", None, None, key), self.intern(entry))
                      for key in PATTERN_KEYS if (entry := pdict.patterns.get(key))]
            by_value, by_multiset = {}, {}
            for key, value in table:
                sid = keys.setdefault(key, len(keys))
                by_value.setdefault(value, []).append(sid)
                if value:
                    by_multiset.setdefault(tuple(sorted(value)), []).append(sid)
            regions = tuple((keys[tag, None, None, None], ids) for tag, _, ids in sides)
            self._indexes.append((by_value, by_multiset, regions))
        self._keys = list(keys)
        self._selections: dict = {}  # selection id -> Selection, built on first use
        self._core_memo: dict = {}
        self._base_memo: dict = {}
        self._emitted_memo: dict = {}
        self._feasible_memo: dict = {}

    def intern(self, nodes) -> tuple[int, ...]:
        """The ids of ``nodes``; a node new to the learner gets a fresh id."""
        ids = self._ids
        return tuple(ids.setdefault(node, len(ids)) for node in nodes)

    def _emitted(self, example: int, target: tuple[int, ...]) -> set:
        """The ``(source id or -1, selection id)`` pairs of the selections and
        removes that one example's inverses emit for target."""
        emitted = self._emitted_memo.get((example, target))
        if emitted is None:
            by_value, by_multiset, regions = self._indexes[example]
            emitted = {(-1, sid) for sid in by_value.get(target, ())}
            emitted.update((source, sid) for source, region in regions  # no removable value is ()
                           for sid in by_multiset.get(tuple(sorted(_removed(region, target))), ()))
            self._emitted_memo[example, target] = emitted
        return emitted

    def _shared(self, targets: tuple) -> set:
        """The pairs that every example's inverses emit for its target.
        Equal pairs are equal transformations, so this is the intersection
        of the per-example candidates. ``targets`` may cover only the first
        examples."""
        first, *others = (self._emitted(example, target) for example, target in enumerate(targets))
        return first.intersection(*others)

    def _base(self, targets: tuple) -> list:
        """Depth-independent candidates, as rank entries in rank order."""
        cands = self._base_memo.get(targets)
        if cands is None:
            sel = self.selection
            cands = self._base_memo[targets] = sorted(
                rank_entry(Select(sel(sid)) if source < 0 else Remove(sel(source), sel(sid)))
                for source, sid in self._shared(targets))
        return cands

    def selection(self, sid: int) -> Selection:
        """The selection with id ``sid``, built and validated on first use."""
        built = self._selections.get(sid)
        if built is None:
            built = self._selections[sid] = Selection(*self._keys[sid])
        return built

    def _feasible(self, targets: tuple, depth: int) -> bool:
        """Whether some candidate within ``depth`` maps each of the first
        ``len(targets)`` examples to its target: ``core`` is non-empty."""
        found = self._feasible_memo.get((targets, depth))
        if found is None:
            found = bool(self._shared(targets)) or (
                depth > 0 and next(self._splits(targets, depth - 1), None) is not None)
            self._feasible_memo[targets, depth] = found
        return found

    def _splits(self, targets: tuple, depth: int, pad: bool = False):
        """The ``(left, right)`` target tuples of the Concats over ``targets``
        whose arms both have candidates at ``depth``. Each example splits its
        target in two non-empty parts or, with ``pad``, keeps it whole on the
        left. Split points are chosen one example at a time, and a choice is
        dropped as soon as either arm has no candidate on the examples chosen
        so far, so only split tuples some program could take are walked."""
        def grow(left, right):
            k = len(left)
            if k == len(targets):
                yield left, right
                return
            options = wf_concat(targets[k])
            if pad:
                options.append((targets[k], ()))
            for l, r in options:
                l, r = (*left, l), (*right, r)
                if self._feasible(l, depth) and self._feasible(r, depth):
                    yield from grow(l, r)
        return grow((), ())

    def _products(self, splits, depth: int) -> list:
        """Concat arm pairs over ``splits``, tuples of ``(left, right)`` targets."""
        return [(self.core(left, depth), self.core(right, depth)) for left, right in splits]

    def core(self, targets: tuple, depth: int) -> _Stream:
        """Candidates with no empty-evaluating Concat arm anywhere."""
        stream = self._core_memo.get((targets, depth))
        if stream is None:
            products = self._products(self._splits(targets, depth - 1), depth - 1) if depth > 0 else []
            stream = self._core_memo[targets, depth] = _Stream(self._base(targets), products)
        return stream

    def full(self, targets: tuple, depth: int) -> _Stream:
        """Core candidates plus root Concats whose right arm is empty on some
        example. The padded splits include the core ones, and no other set
        uses the core set of the root, so one stream merges them all."""
        if depth == 0 or not all(targets):
            return self.core(targets, depth)
        return _Stream(self._base(targets), self._products(self._splits(targets, depth - 1, pad=True), depth - 1))


def _candidates(conflicts, targets, pdicts, config: SynthConfig) -> _Stream:
    """Every transformation within ``config.max_concat_depth`` mapping each
    input to exactly its target node list, as a stream in rank order."""
    learner = _TransformationLearner(conflicts, pdicts)
    return learner.full(tuple(map(learner.intern, targets)), config.max_concat_depth)


def _learn_transformations(conflicts, targets, pdicts, config: SynthConfig) -> ProgramSet:
    """The first ``MAX_PROGRAMS`` of ``_candidates``, marked ``truncated`` when
    there are more."""
    root = _candidates(conflicts, targets, pdicts, config)
    truncated = root.pull(MAX_PROGRAMS + 1)
    return ProgramSet(tuple(root.entries[:MAX_PROGRAMS]), truncated=truncated)


def learn_transformation(conflict: ConflictInput, target, config: SynthConfig = DEFAULT_CONFIG,
                         pdict: PatternDictionary | None = None) -> ProgramSet:
    """All transformations within ``config.max_concat_depth`` mapping the
    input to exactly the target node list, rank-ordered."""
    if pdict is None:
        pdict = build_pattern_dictionary(conflict, config)
    return _learn_transformations((conflict,), (target,), (pdict,), config)


def learn_condition(inputs, config: SynthConfig = DEFAULT_CONFIG, pdicts=None) -> Condition:
    """Conjunction of every predicate true on all inputs.

    FrequentPattern paths are the include paths present in every input's
    regions. Raises EmptyConditionError when nothing holds everywhere.
    ``pdicts``, when given, are the inputs' dictionaries, in order.
    """
    if pdicts is None:
        pdicts = [build_pattern_dictionary(conflict, config) for conflict in inputs]
    predicates = [Predicate(tag) for tag in PATTERN_KEYS if all(pd.patterns.get(tag) for pd in pdicts)]
    shared_paths: set[str] | None = None
    for pd in pdicts:
        paths = set(pd.frequent)
        shared_paths = paths if shared_paths is None else shared_paths & paths
    for path in sorted(shared_paths or ()):
        predicates.append(Predicate("FrequentPattern", path=path))
    if not predicates:
        raise EmptyConditionError("no predicate holds on every example input")
    return Condition(tuple(predicates))


def intersect_program_sets(sets) -> ProgramSet:
    """Keep the first set's entries whose structure is in every other set.

    Membership on the carried structural keys is all it takes: each set
    holds only programs that reproduce its own example, because the inverses
    emit nothing else, and ``struct_key`` identifies a program, so a key in
    every set is a program that reproduces every example. The first set's
    rank order is kept. ``learn`` does not call this: it builds the joint set
    directly, and where no input set is cut the two agree entry for entry.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one program set")
    others = [{entry[2] for entry in other.entries} for other in sets[1:]]
    survivors = [entry for entry in sets[0].entries if all(entry[2] in keys for keys in others)]
    return ProgramSet(tuple(survivors), truncated=any(s.truncated for s in sets))


def rank(programs) -> RankedPrograms:
    """Order programs or transformations by ``program_score``, best first.

    Ties break on the serialized form: fewer AST nodes first, then the
    structural key. ``learn`` returns its programs in the same order.
    """
    ordered = sorted(map(rank_entry, programs), key=_rank_key)
    return RankedPrograms([RankedProgram(entry[3], entry[0]) for entry in ordered])


def _guard_candidates(condition: Condition):
    """Rank entries of the non-empty predicate subsets of the condition, cheapest first."""
    preds = condition.predicates
    if len(preds) <= _MAX_SUBSET_PREDICATES:
        subsets = [
            combo
            for size in range(1, len(preds) + 1)
            for combo in itertools.combinations(preds, size)
        ]
    else:
        subsets = [(p,) for p in preds]
        subsets.append(preds)
    return sorted((rank_entry(Condition(subset)) for subset in subsets), key=_rank_key)


def _pair_guards(root: _Stream, guards):
    """Guarded programs over the first ``MAX_PROGRAMS`` transformations of
    ``root`` and guard entries ``guards``, both rank-ordered: the first
    ``MAX_PROGRAMS`` admissible pairs by ``(score, ti, gi)``, as streams
    ``(guard entry, guard rank by structural key, group, count)`` that keep
    the first ``count`` indices of ``group`` under the guard, and whether
    any admissible pair was left out.

    A Pattern selection's bonus is earned only under a guard naming its key,
    so a transformation pairs only with guards holding all its keys, and the
    program then scores ``t.score + g.score``. Transformations with the same
    keys form a group; under each admissible guard a group is a stream whose
    scores rise with ``ti``. Transformations are pulled from ``root`` until
    the pairs scoring below the next one's score plus the cheapest guard's
    reach the cap: no later pair can then be kept or tie with a kept one,
    and one is left out, since every transformation admits the full
    condition. The rule is checked at each new score once the first
    ``ceil(MAX_PROGRAMS / len(guards))``, too few to reach the cap, are in.
    Past the cap, a stream keeps every pair below the cut score, then its
    share of the ties at it, taken in ``(ti, gi)`` order: under one guard
    the chosen ties are a prefix of the stream's tied run, so one count
    holds them. These are exactly the pairs a best-first merge of the
    streams would take.
    """
    ts, first = root.entries, -(-MAX_PROGRAMS // len(guards))
    cheapest = min(guard[0] for guard in guards)
    groups: dict = {}  # pattern keys -> (group, the group's scores, admissible (guard score, gi))
    stopped, n = False, 0
    root.pull(first)
    while n < MAX_PROGRAMS and (n < len(ts) or root.pull(n + 1)):
        t = ts[n]
        if n >= first and t[0] > ts[n - 1][0]:
            below = sum(bisect.bisect_left(scores, t[0] + cheapest - g)
                        for _, scores, admissible in groups.values() for g, _ in admissible)
            if below >= MAX_PROGRAMS:
                stopped = True
                break
        keys = frozenset(t[4])
        if keys not in groups:
            groups[keys] = ([], [], [(guard[0], gi) for gi, guard in enumerate(guards) if keys <= guard[4]])
        group, scores, _ = groups[keys]
        group.append(n)
        scores.append(t[0])
        n += 1
    streams = []  # (guard score, gi, group, the group's scores)
    levels = set()  # every score a pair can have
    for group, scores, admissible in groups.values():
        levels.update(g + s for s in set(scores) for g in {g for g, _ in admissible})
        streams += [(g, gi, group, scores) for g, gi in admissible]
    counts = [len(group) for _, _, group, _ in streams]
    total = sum(counts)
    if total > MAX_PROGRAMS:
        levels = sorted(levels)
        limit = levels[bisect.bisect_left(levels, MAX_PROGRAMS, key=lambda score: sum(
            bisect.bisect_right(scores, score - g) for g, _, _, scores in streams))]
        tied = []
        for s, (g, gi, group, scores) in enumerate(streams):
            counts[s], high = bisect.bisect_left(scores, limit - g), bisect.bisect_right(scores, limit - g)
            tied.append(zip(group[counts[s]:high], itertools.repeat(gi), itertools.repeat(s)))
        for _, _, s in itertools.islice(heapq.merge(*tied), MAX_PROGRAMS - sum(counts)):
            counts[s] += 1
    guard_rank = {gi: rank for rank, gi in enumerate(sorted(range(len(guards)), key=lambda gi: guards[gi][2]))}
    return ([(guards[gi], guard_rank[gi], group, count) for (_, gi, group, _), count in zip(streams, counts) if count],
            stopped or total > MAX_PROGRAMS)


def learn(spec: ExampleSpec, config: SynthConfig = DEFAULT_CONFIG) -> RankedPrograms:
    """Learn ranked programs consistent with every example.

    The transformations are generated for all examples jointly, as one
    stream in rank order, and guard pairing pulls from it only as many as
    can reach its ``MAX_PROGRAMS`` cap. The result is marked ``truncated``,
    and a warning logged, when the stream holds more than ``MAX_PROGRAMS``
    transformations or guard pairing left a pair out. The result holds
    guard pairing's streams, merges them in rank order only as far as a
    caller reads, and builds each entry's ``Program`` the first time it is
    read. Returns an empty result (never raises) when no predicate holds
    on all inputs or no transformation reproduces all outputs.
    """
    pdicts = [build_pattern_dictionary(conflict, config) for conflict in spec.inputs]
    try:
        condition_full = learn_condition(spec.inputs, config, pdicts)
    except EmptyConditionError:
        logger.info("no program found: no predicate holds on every example")
        return RankedPrograms()
    root = _candidates(spec.inputs, (output for _, output in spec.cases), pdicts, config)
    if not root.pull(1):
        logger.info("no program found: no transformation is consistent with every example")
        return RankedPrograms()

    guards = _guard_candidates(condition_full)
    streams, cut = _pair_guards(root, guards)
    truncated = cut or root.pull(MAX_PROGRAMS + 1)
    if truncated:
        logger.warning("learned programs truncated at %d; results may be incomplete", MAX_PROGRAMS)
    return RankedPrograms((), truncated, sources=(root.entries, streams))
