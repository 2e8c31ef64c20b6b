"""Learning resolution programs from example (conflict, resolution) pairs.

Learning is top-down: each operator's inverse maps a desired output to the
sub-outputs its arguments must produce, and recursion bottoms out at
selections. It runs over every example at once: a candidate set is keyed
by one target per example and keeps only programs that every example's
inverses produce, so the set consistent with all examples is generated
directly rather than intersected from per-example sets. Nodes and
selections are interned to ints, so targets and memo keys are int tuples
and the inverses are index lookups. Each example's selection table walks
the rows of ``dsl.SELECTIONS`` in one pass over the ids of its two
regions, keyed by plain ``(tag, k, path, key)`` tuples, and a
``Selection``, ``Select`` or ``Remove`` is built only for a candidate
every example shares. Its Pattern rows come only from the keys whose entry
is non-empty on every example, so an example computes no entry that was
empty on an example before it. One additive score, ``dsl.program_score``,
ranks candidates. The learner builds every transformation's rank entry
(score, size, structural key, transformation, Pattern keys) bottom-up with
dsl's own constructors, ``rank_entry`` and ``concat_entry``, so ``rank``
computes the same entry from a finished transformation.

Each candidate set is a lazy stream (``_Stream``): one heap merges its base
candidates and its Concat products best first, pulling an arm's next entry
only when it is needed, so a set is listed in rank order only as far as a
reader pulls it. No set is cut; ``learn_transformation`` lists the first
``MAX_PROGRAMS``; the root's product whose left arm is the whole target
waits behind an exact lower bound until a reader gets that far.

Guard pairing is one more ``_Stream`` product, so it runs only as far as
a caller reads. A guard, any non-empty subset of the predicates that hold
on all examples, comes from a lazy best-first stream (``_Guards``); a
guarded program scores its transformation's plus its guard's, and a guard
admits a transformation when it names every Pattern key the
transformation selects. ``learn`` lists one transformation and one guard
and returns a ``RankedPrograms`` over the product of the guards and the
root stream: a pair's entry is ``(score, size, guard's structural key,
transformation's structural key, guard, transformation)``, which sorts as
the program's rank entry, and only the pairs whose guard admits the
transformation are listed; a ``Program`` is built only for an entry that
is read. So reading the top program lists what it needs. The list is cut at
``MAX_PROGRAMS`` entries; ties at the cut fall in rank order, so a cut list
is the uncut list's prefix.

Candidates are kept in a normal form: a Concat arm that evaluates to
nothing may appear only once, as the right arm of the root. Anything else
is padding that a shorter equivalent program already expresses, and
admitting it makes the candidate space explode.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from .conflicts import ConflictInput, Node
from .dsl import (
    DEFAULT_CONFIG,
    PATTERN_KEYS,
    SELECTIONS,
    W_OPERATORS,
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

# How many transformations ``learn_transformation`` lists, and how many
# programs a learned list holds; a result cut by it is marked ``truncated``.
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
    """Ranked programs, best first, listed off one rank-ordered ``_Stream``
    only as far as a caller reads, each built the first time it is read.

    ``learn``'s stream pairs guards with transformations; ``rank``'s is its
    sorted entries. An entry's first field is its score. Its program is its
    fourth field in ``rank``'s list; in ``learn``'s, the ``Program`` of its
    last two, the guard and the transformation, is built when the entry is
    read. Reading an entry replaces it with a ``RankedProgram``. The list
    stops at ``MAX_PROGRAMS`` entries. Listing one more marks the list
    ``truncated`` and logs that results may be incomplete; then, or when
    the stream runs dry, the stream, and with it the learner, is let go.
    ``len`` and ``truncated`` list up to one entry past the cap, which
    settles the cut; ``top``, indexing, slicing and iteration list and
    build only about as far as they read; ``entries`` reads every one.
    """

    def __init__(self, stream: _Stream):
        self._stream, self._entries, self._truncated = stream, stream.entries, False

    def _list(self, n: int) -> int:
        """List until ``n`` entries are listed, the cap is passed or the
        stream runs dry; the number listed, at most ``MAX_PROGRAMS``."""
        stream, entries = self._stream, self._entries
        if stream is not None and len(entries) < n:
            more = stream.pull(min(n, MAX_PROGRAMS + 1))
            if len(entries) > MAX_PROGRAMS:
                logger.warning("learned programs truncated at %d; results may be incomplete", MAX_PROGRAMS)
                self._truncated = True
                del entries[MAX_PROGRAMS:]
            if not more or self._truncated:
                self._stream = None
        return len(entries)

    def _entry(self, i: int) -> RankedProgram:
        entry = self._entries[i]
        if type(entry) is tuple:
            program = entry[3] if len(entry) == 4 else Program(entry[4], entry[5])
            entry = self._entries[i] = RankedProgram(program, entry[0])
        return entry

    def __getitem__(self, index):
        # A read that counts from the front lists only as far as it reaches;
        # one that counts from the end needs the length.
        if isinstance(index, slice):
            start, stop, step = index.start or 0, index.stop, index.step or 1
            forward = step > 0 and start >= 0 and stop is not None and stop >= 0
            return [self._entry(i) for i in range(self._list(stop) if forward else len(self))[index]]
        return self._entry(range(self._list(index + 1) if index >= 0 else len(self))[index])

    def __iter__(self):
        # Lists ahead of the reader by at most one more than it has read.
        i = 0
        while i < self._list(2 * i + 1):
            for i in range(i, len(self._entries)):
                yield self._entry(i)
            i += 1

    def __len__(self):
        return self._list(MAX_PROGRAMS + 1)

    def __bool__(self):
        return bool(self._entries) or self._stream is not None and bool(self._stream._heap)

    @property
    def truncated(self) -> bool:
        """Whether the learned list holds more than ``MAX_PROGRAMS`` programs."""
        len(self)
        return self._truncated

    @property
    def top(self) -> RankedProgram | None:
        return self[0] if self else None

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


class _Stream:
    """A candidate set, listed lazily in rank order.

    ``entries`` is the prefix listed so far. A set with products keeps one
    heap over the next unlisted base entry and the next reachable entry of
    each product, keyed by the full rank key. A product's entry is ``join``
    of its arms' entries, by default ``concat_entry``; ``join`` is monotone
    in each arm's rank and joined keys are unique, so the heap pops the set
    in rank order. A struct key is one flat string, so a tie on score and
    size costs one string comparison, however deep the candidates. A popped
    product pair is listed when ``keep``, given its arms' entries, allows
    it, or always when ``keep`` is ``None``. Product ``(i, j)`` is reached
    only from ``(i, j - 1)`` or, when ``j`` is 0, from ``(i - 1, 0)``, and
    an arm's next entry is pulled from its own stream only then. A set with
    no products is its sorted base list. A ``deferred`` Concat product
    waits as a lower bound (see ``full``) until popping it builds the left
    arm and lets the learner go.
    """

    def __init__(self, base: list, products: list, deferred: tuple | None = None, join=concat_entry, keep=None):
        self._base, self._products, self._deferred, self._join, self._keep = base, products, None, join, keep
        if not products and deferred is None:
            self.entries, self._heap = base, []
            return
        self.entries = []
        self._heap = [(join(left.entries[0], right.entries[0]), p, 0, 0)
                      for p, (left, right) in enumerate(products) if left.pull(1) and right.pull(1)]
        if base:
            self._heap.append((base[0], -1, 0, 0))
        heapq.heapify(self._heap)
        if deferred is not None and self._heap and deferred[2].pull(1):
            h, y, self._deferred = self._heap[0][0], deferred[2].entries[0], deferred
            heapq.heappush(self._heap, ((h[0] + y[0] + W_OPERATORS, h[1] + y[1] + 1, ""), -2, 0, 0))

    def pull(self, n: int) -> bool:
        """List the first ``n`` entries, or every entry of a shorter set;
        whether the set has ``n``. The entry after a popped one in its own
        run stays out of the heap while it is still the least, so a run of
        pops from one product or the base costs one comparison each."""
        entries, heap, base, products, join, keep = (self.entries, self._heap, self._base, self._products,
                                                      self._join, self._keep)
        item = None
        while len(entries) < n and (heap or item):
            cand, p, i, j = heapq.heappushpop(heap, item) if item else heapq.heappop(heap)
            item = None
            if p == -2:  # the deferred product's bound: build the product
                learner, left, right, depth = self._deferred
                self._deferred, left = None, learner.core(left, depth)
                if left.pull(1):
                    heapq.heappush(heap, (join(left.entries[0], right.entries[0]), len(products), 0, 0))
                    products.append((left, right))
                continue
            if p < 0:
                entries.append(cand)
                if i + 1 < len(base):
                    item = (base[i + 1], -1, i + 1, 0)
                continue
            left, right = products[p]
            if keep is None or keep(left.entries[i], right.entries[j]):
                entries.append(cand)
            if j == 0 and (i + 1 < len(left.entries) or left.pull(i + 2)):
                heapq.heappush(heap, (join(left.entries[i + 1], right.entries[0]), p, i + 1, 0))
            if j + 1 < len(right.entries) or right.pull(j + 2):
                item = (join(left.entries[i], right.entries[j + 1]), p, i, j + 1)
        if item:
            heapq.heappush(heap, item)
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
    keys are int tuples. An example is its chunk's dictionary, and its
    selection table walks the rows of ``dsl.SELECTIONS`` once: a whole
    region's row interns the region's ids, its index rows are single ids,
    its path rows group the ids by include path, and the pattern row
    interns the entry of each key that is non-empty on every example. A
    selection is a plain ``(tag, k, path, key)`` tuple with an id. Each
    example indexes its selections by value ids (the inverse of selection)
    and its non-empty ones by sorted value ids (Remove's multiset), and
    keeps each region's ids for ``_removed``. The inverses emit ``(source
    id or -1, selection id)`` pairs; ``_base`` builds the shared pairs'
    transformations, and ``selection`` their ``Selection``s once.
    """

    def __init__(self, pdicts):
        self._ids: dict = {}  # node -> id
        keys: dict = {}  # (tag, k, path, key) -> selection id
        self._indexes = []  # per example: (selections by value, by sorted value, (source id, region ids))
        # Only a key whose entry is non-empty on every example can give a
        # shared Pattern selection; the short-circuit reads no entry of an
        # example after one where it was empty.
        patterns = [key for key in PATTERN_KEYS if all(pdict.entry(key) for pdict in pdicts)]
        for pdict in pdicts:
            conflict, table, sources, region_ids = pdict.conflict, [], [], {}
            for tag, (region, literal, _, _) in SELECTIONS.items():
                if region is None:
                    table += [((tag, None, None, key), self.intern(pdict.entry(key))) for key in patterns]
                elif literal is None:  # a whole region: its ids, interned once, serve its later rows
                    ids = region_ids[region] = self.intern(getattr(conflict, region))
                    sources.append(((tag, None, None, None), ids))
                    table.append(sources[-1])
                elif literal == "k":
                    table += [((tag, k, None, None), (i,)) for k, i in enumerate(region_ids[region])]
                else:
                    by_path: dict = {}
                    for node, i in zip(getattr(conflict, region), region_ids[region]):
                        if (path := node.include_path) is not None:
                            by_path.setdefault(path, []).append(i)
                    table += [((tag, None, path, None), tuple(by_path[path])) for path in sorted(by_path)]
            by_value, by_multiset = {}, {}
            for key, value in table:
                sid = keys.setdefault(key, len(keys))
                by_value.setdefault(value, []).append(sid)
                if value:
                    by_multiset.setdefault(tuple(sorted(value)), []).append(sid)
            regions = tuple((keys[key], ids) for key, ids in sources)
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
        left, though not every example at once: ``full`` defers that split.
        Split points are chosen one example at a time, and a choice is
        dropped as soon as either arm has no candidate on the examples chosen
        so far, so only split tuples some program could take are walked. The
        walk is depth-first over an explicit stack, one ``(left, right,
        options)`` per example chosen so far, so any number of examples
        fits in the call stack."""
        def choices(left, right):
            k = len(left)
            options = wf_concat(targets[k])
            if pad and (any(right) or k + 1 < len(targets)):
                options.append((targets[k], ()))
            return left, right, iter(options)

        stack = [choices((), ())]
        while stack:
            left, right, options = stack[-1]
            for l, r in options:
                l, r = (*left, l), (*right, r)
                if self._feasible(l, depth) and self._feasible(r, depth):
                    if len(l) < len(targets):
                        stack.append(choices(l, r))
                        break
                    yield l, r
            else:
                stack.pop()

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
        uses the core set of the root, so one stream merges them all. The
        product of ``core(targets, depth - 1)`` and the empty targets' set
        waits behind ``(h.score + y0.score + W_OPERATORS, h.size + y0.size +
        1, "")``: ``h``, the least other item, sorts at or before every left
        arm, which the core part of the root holds, ``y0`` is the first right
        arm, and ``""`` sorts before every key."""
        if depth == 0 or not all(targets):
            return self.core(targets, depth)
        return _Stream(self._base(targets), self._products(self._splits(targets, depth - 1, pad=True), depth - 1),
                       (self, targets, self.core(tuple(() for _ in targets), depth - 1), depth - 1))


def _candidates(pdicts, targets, config: SynthConfig) -> _Stream:
    """Every transformation within ``config.max_concat_depth`` mapping each
    dictionary's chunk to exactly its target node list, in rank order."""
    learner = _TransformationLearner(pdicts)
    return learner.full(tuple(map(learner.intern, targets)), config.max_concat_depth)


def _learn_transformations(pdicts, targets, config: SynthConfig) -> ProgramSet:
    """The first ``MAX_PROGRAMS`` of ``_candidates``, marked ``truncated`` when
    there are more."""
    root = _candidates(pdicts, targets, config)
    truncated = root.pull(MAX_PROGRAMS + 1)
    return ProgramSet(tuple(root.entries[:MAX_PROGRAMS]), truncated=truncated)


def learn_transformation(conflict: ConflictInput, target, config: SynthConfig = DEFAULT_CONFIG,
                         pdict: PatternDictionary | None = None) -> ProgramSet:
    """All transformations within ``config.max_concat_depth`` mapping the
    input to exactly the target node list, rank-ordered."""
    if pdict is None:
        pdict = build_pattern_dictionary(conflict, config)
    return _learn_transformations((pdict,), (target,), config)


def learn_condition(inputs, config: SynthConfig = DEFAULT_CONFIG, pdicts=None) -> Condition:
    """Conjunction of every predicate true on all inputs.

    FrequentPattern paths are the include paths present in every input's
    regions. Raises EmptyConditionError when nothing holds everywhere or
    there is no input. ``pdicts``, when given, are the inputs'
    dictionaries, in order.
    """
    if pdicts is None:
        pdicts = [build_pattern_dictionary(conflict, config) for conflict in inputs]
    if not pdicts:
        raise EmptyConditionError("no example input")
    predicates = [Predicate(tag) for tag in PATTERN_KEYS if all(pd.entry(tag) for pd in pdicts)]
    shared_paths = frozenset.intersection(*(pd.frequent for pd in pdicts))
    predicates += [Predicate("FrequentPattern", path=path) for path in sorted(shared_paths)]
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
    structural key. ``learn`` returns its programs in the same order, and
    this list too holds at most ``MAX_PROGRAMS``.
    """
    ordered = sorted(map(rank_entry, programs), key=itemgetter(0, 1, 2))
    return RankedPrograms(_Stream([entry[:4] for entry in ordered], []))


class _Guards:
    """A condition's non-empty predicate subsets as rank entries, listed lazily
    best first; ``entries`` is the prefix listed, ``len`` counts all. A guard
    costs ``W_CONSTANTS`` per path predicate, so the subsets with ``b`` paths
    tie on score and levels in ``b`` order are in rank order; a level is listed
    whole, sorted by size and key (condition order is not key order)."""

    def __init__(self, condition: Condition):
        # learn_condition lists the tag predicates first, so a subset of
        # tags followed by a subset of paths keeps the condition's order.
        preds = self._preds = condition.predicates
        tags = [p for p in preds if p.path is None]
        self._tag_subsets = [subset for a in range(len(tags) + 1) for subset in itertools.combinations(tags, a)]
        self._paths = [p for p in preds if p.path is not None]
        self._b = 0  # the path count of the next level to list
        self.entries: list = []

    def __len__(self):
        return 2 ** len(self._preds) - 1

    def pull(self, n: int) -> bool:
        """List the first ``n`` guards, or all of fewer; whether there are ``n``."""
        entries, paths = self.entries, self._paths
        while len(entries) < n:
            if self._b > len(paths):
                return False
            chosen = itertools.combinations(paths, self._b)
            self._b += 1
            entries += sorted((rank_entry(Condition(tagged + part)) for part in chosen
                               for tagged in self._tag_subsets if tagged or part), key=itemgetter(1, 2))
        return True


def _guarded_entry(guard: tuple, t: tuple) -> tuple:
    """A guarded program's entry, ``(score, size, guard key, transformation
    key, Condition, Transformation)``: it sorts as the program's rank entry
    when the guard admits the transformation, which then earns every
    Pattern credit. Its ``Program`` is built when the entry is read."""
    return t[0] + guard[0], t[1] + guard[1], guard[2], t[2], guard[3], t[3]


def _admits(guard: tuple, t: tuple) -> bool:
    """Whether a guard names every Pattern key the transformation selects."""
    return not t[4] or guard[4].issuperset(t[4])


def learn(spec: ExampleSpec, config: SynthConfig = DEFAULT_CONFIG) -> RankedPrograms:
    """Learn ranked programs consistent with every example.

    The transformations are generated for all examples jointly, as one
    stream in rank order. ``learn`` lists the first of them and the first
    guard, and the returned ``RankedPrograms`` lists the admissible
    (guard, transformation) pairs best first only as far as a caller
    reads, up to ``MAX_PROGRAMS`` programs. Returns an empty result (never
    raises) when no predicate holds on all inputs or no transformation
    reproduces all outputs.
    """
    pdicts = [build_pattern_dictionary(conflict, config) for conflict in spec.inputs]
    try:
        condition_full = learn_condition(spec.inputs, config, pdicts)
    except EmptyConditionError:
        logger.info("no program found: no predicate holds on every example")
        return RankedPrograms(_Stream([], []))
    root = _candidates(pdicts, (output for _, output in spec.cases), config)
    if not root.pull(1):
        logger.info("no program found: no transformation is consistent with every example")
        return RankedPrograms(_Stream([], []))
    return RankedPrograms(_Stream([], [(_Guards(condition_full), root)], join=_guarded_entry, keep=_admits))
