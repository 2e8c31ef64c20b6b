"""Benchmark runner for mergelearn.

    python3 bench/run.py --workload learn-single --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the program is imported from ``src/``.
One process runs one workload in a single thread, one item at a time
(closed loop with one client). ``setup_s`` is the median of five imports
of mergelearn plus the median of five builds of the inputs, each with one
warm-up item. The runner then replays a whole pass over the workload's
items, and more items until ``--seconds`` have passed, timing only the
call into mergelearn and running ``gc.collect()`` between calls, outside
the timed region. A fixed reference loop runs between items, and every
reported time is scaled by it to the host's median speed (see
REF_NOMINAL_S).

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics: every call is made once
untraced and once with every layer's public functions wrapped in spans
(see tracing.py), and the runner reports per-pass totals.
Every output is checked by the workload's own oracle; the lines above the
result give item_ms_tail with its rank, the shares and the output digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import logging
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
NAMES = ("learn-single", "learn-multi", "apply-large", "eval-corpus")

SETUP_REPEATS = 5
ITEM_MIN_S = 0.5
ITEM_MAX_CALLS = 5
TAIL_MIN_BEYOND = 10

# The reference loop (reference_s) and its median time on a shared 2-vCPU
# 2.1 GHz VM with Python 3.11. The speed such a host gives one process
# drifts by up to a third within a minute, so every reported time is scaled
# by REF_NOMINAL_S over the median of the reference runs made within
# REF_WINDOW_S of it: it reads as the time on that host at its median speed.
REF_NOMINAL_S = 0.010
REF_WINDOW_S = 1.0
REF_RUNS = 3  # reference runs after each set-up step

# item_ms_tail is printed on the report lines but not returned: on a 2-vCPU
# VM its spread (quartile distance over median) reached 0.29 over ten seeds
# unscaled, and 0.17 over five seeds on learn-multi scaled, against 0.25 for
# the largest bound a metric may have.
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metric -> (layer, what, unit). "self_s" is the layer's self time,
# "total_s" its time with its children, "calls" its span count; any other
# key names a counter kept by tracing.py.
PER_LAYER = {
    "synth.guard_ranking.self_s": ("synth.guard_ranking", "self_s", "s"),
    "synth.guard_ranking.programs_out": ("synth.guard_ranking", "programs_out", "count"),
    "synth.intersection.self_s": ("synth.intersection", "self_s", "s"),
    "synth.intersection.programs_in": ("synth.intersection", "programs_in", "count"),
    "synth.intersection.programs_out": ("synth.intersection", "programs_out", "count"),
    "synth.candidates.calls": ("synth.candidates", "calls", "count"),
    "synth.candidates.self_s": ("synth.candidates", "self_s", "s"),
    "synth.candidates.programs": ("synth.candidates", "programs", "count"),
    "synth.candidates.truncated": ("synth.candidates", "truncated", "count"),
    "synth.condition.self_s": ("synth.condition", "self_s", "s"),
    "dsl.pattern_dictionary.builds": ("dsl.pattern_dictionary", "calls", "count"),
    "dsl.pattern_dictionary.self_s": ("dsl.pattern_dictionary", "self_s", "s"),
    "dsl.pattern_dictionary.total_s": ("dsl.pattern_dictionary", "total_s", "s"),
    "dsl.pattern_dictionary.builds_per_chunk": ("dsl.pattern_dictionary", "builds_per_chunk", "count/chunk"),
    "conflicts.tokenize.calls": ("conflicts.tokenize", "calls", "count"),
    "conflicts.tokenize.nodes": ("conflicts.tokenize", "nodes", "count"),
    "conflicts.tokenize.self_s": ("conflicts.tokenize", "self_s", "s"),
    "conflicts.parse.calls": ("conflicts.parse", "calls", "count"),
    "conflicts.parse.self_s": ("conflicts.parse", "self_s", "s"),
    "dsl.run_program.calls": ("dsl.run_program", "calls", "count"),
    "dsl.run_program.self_s": ("dsl.run_program", "self_s", "s"),
    "dsl.run_program.resolved": ("dsl.run_program", "resolved", "count"),
    "dsl.run_program.no_suggestion": ("dsl.run_program", "no_suggestion", "count"),
    "dsl.run_program.failed": ("dsl.run_program", "failed", "count"),
    "corpus.load.self_s": ("corpus.load", "self_s", "s"),
    "corpus.align.calls": ("corpus.align", "calls", "count"),
    "corpus.align.self_s": ("corpus.align", "self_s", "s"),
    "corpus.align.unusable": ("corpus.align", "unusable", "count"),
    "corpus.evaluate.self_s": ("corpus.evaluate", "self_s", "s"),
    "dsl.serialization.calls": ("dsl.serialization", "calls", "count"),
    "dsl.serialization.self_s": ("dsl.serialization", "self_s", "s"),
    "cli.self_s": ("cli", "self_s", "s"),
    "bench.self_s": ("bench", "self_s", "s"),
    "trace.wall_s": ("trace", "wall_s", "s"),
    "trace.overhead_s": ("trace", "overhead_s", "s"),
}


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _import_program() -> float:
    """Import mergelearn from this checkout's src/, or exit with an error.

    The import is part of every user's set-up. It is made SETUP_REPEATS
    times, each from scratch (mergelearn's modules dropped from
    sys.modules first); returns the median time at the host's median
    speed. The first import may also compile the sources, which a user's
    later runs do not pay; the median leaves it out.
    """
    if not (SRC / "mergelearn" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'mergelearn'} not found; run from a mergelearn checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [name for name in sys.modules if name == "mergelearn" or name.startswith("mergelearn.")]:
            del sys.modules[name]
        start = perf_counter()
        import mergelearn

        times.append((perf_counter() - start) * host_scale([reference_s() for _ in range(REF_RUNS)]))
    if Path(mergelearn.__file__).resolve().parent != SRC / "mergelearn":
        sys.exit(f"error: imported mergelearn from {mergelearn.__file__}, not from {SRC}")
    return statistics.median(times)


# --- measurement ------------------------------------------------------------

def reference_s() -> float:
    """Time one run of a fixed integer loop, with the collector off.

    The loop holds nothing of mergelearn's, so no change to the program
    moves its time: how long it takes tells how fast the shared host runs
    the interpreter at that moment. Of the loops tried (this one, string
    keys in a dict, a sort with grouping, sets of small tuples, nested
    tuples), this one tracked the workloads' own times best: over four
    minutes of contention, in 15 s blocks, their time moved with its time
    to the power 0.75 to 1.06 (correlation 0.89 to 0.95), where the others
    gave 0.38 to 0.92.
    """
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for i in range(120_000):
            total += (i * i) % 7
        return perf_counter() - start
    finally:
        gc.enable()


def host_scale(refs) -> float:
    """The factor that turns a time measured beside the reference runs
    ``refs`` into a time at the host's median speed."""
    return REF_NOMINAL_S / statistics.median(refs)


def setup(workload, seed, workdir):
    """Build the inputs and run one warm-up item, SETUP_REPEATS times.

    Returns the last build's items and the median time of one build and
    warm-up, each at the host's median speed (scaled by REF_RUNS reference
    runs right after it). Writing the input files is left out of that
    time: it is the benchmark's work, not the program's, and file creation
    time in a shared sandbox varied fivefold between runs.
    """
    times = []
    items = None
    for rep in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        rep_dir = workdir / f"setup-{rep}"
        gc.collect()
        start = perf_counter()
        items, files = workload.build(seed, rep_dir)
        built = perf_counter()
        rep_dir.mkdir(parents=True)
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode("utf-8"))
        warm = perf_counter()
        workload.run(workload.warm_item(items))
        elapsed = built - start + perf_counter() - warm
        times.append(elapsed * host_scale([reference_s() for _ in range(REF_RUNS)]))
    return items, statistics.median(times)


class Measurement:
    """The calls of one measured run, grouped by item."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}  # item key -> seconds, one per call
        self.groups: list[tuple] = []  # (item key, start, end, seconds of each call back to back)
        self.refs: list[tuple[float, float]] = []  # (time taken, seconds) of each reference run
        self.outcomes = []
        self.first: dict[str, object] = {}  # item key -> Outcome of its first call
        self.digests: dict[str, str] = {}  # item key -> digest of its output
        self.untraced_s = 0.0  # when tracing: the same calls, untraced
        self.passes = 0  # whole passes made

    @property
    def timed_s(self) -> float:
        return sum(sum(runs) for runs in self.durations.values())

    def reference(self) -> None:
        self.refs.append((perf_counter(), reference_s()))

    def scaled(self) -> dict[str, list[float]]:
        """Every call's time at the host's median speed, by item key."""
        taken = [t for t, _ in self.refs]
        out: dict[str, list[float]] = {}
        for key, start, end, runs in self.groups:
            near = self.refs[bisect_left(taken, start - REF_WINDOW_S):bisect_right(taken, end + REF_WINDOW_S)]
            scale = host_scale([s for _, s in near])
            out.setdefault(key, []).extend(run * scale for run in runs)
        return out


def measure(workload, items, seconds=None, passes=None, tracer=None, max_calls=ITEM_MAX_CALLS):
    """Run passes over ``items``: ``passes`` whole ones, or, given
    ``seconds``, one whole pass and then items until ``seconds`` have
    passed. With a tracer the run is whole passes, as many as fill about
    ``seconds`` judging by the first, so that per-pass counts are exact.

    Within a pass an item is called back to back until its calls add up to
    ITEM_MIN_S or number ``max_calls``, so that the cheap items that set the
    median and the tail are timed several times and their median drops
    short bursts of machine noise. Back to back rather than in later sweeps:
    the items themselves are spread over the pass, while later sweeps over
    the cheap items would all fall at its end. An item whose output differs
    from its output in the first call fails. A reference run before and
    after an item's calls gives the host's speed while they ran.

    With a tracer, every traced call follows the same call untraced, so
    that machine noise hits both alike and their difference is the
    tracing overhead.
    """
    from workloads import Outcome

    m = Measurement()
    start = perf_counter()
    m.reference()
    while True:
        for item in items:
            key = workload.key(item)
            runs = []
            began = perf_counter()
            for _ in range(max_calls):
                gc.collect()
                elapsed = None
                t0 = perf_counter()
                try:
                    if tracer is None:
                        raw = workload.run(item)
                        elapsed = perf_counter() - t0
                    else:
                        workload.run(item)
                        m.untraced_s += perf_counter() - t0
                        gc.collect()
                        t0 = perf_counter()
                        raw, elapsed = tracer.run(workload.run, item)
                    outcome = workload.check(item, raw)
                except Exception as exc:  # the item fails; the run goes on
                    if elapsed is None:
                        elapsed = perf_counter() - t0
                    outcome = Outcome(False, detail=f"{key}: {type(exc).__name__}: {exc}")
                if outcome.ok and m.digests.setdefault(key, outcome.digest) != outcome.digest:
                    outcome.ok = False
                    outcome.detail = f"{key}: output differs from its first call"
                runs.append(elapsed)
                m.outcomes.append(outcome)
                m.first.setdefault(key, outcome)
                if sum(runs) >= ITEM_MIN_S:
                    break
            m.groups.append((key, began, perf_counter(), runs))
            m.durations.setdefault(key, []).extend(runs)
            m.reference()
            if passes is None and m.passes and perf_counter() - start >= seconds:
                return m
        m.passes += 1
        if passes is None and tracer is not None:
            passes = max(1, round(seconds / (perf_counter() - start)))
        if passes is not None and m.passes >= passes or passes is None and perf_counter() - start >= seconds:
            return m


def tail(latencies):
    """(rank label, value): the highest percentile with at least
    TAIL_MIN_BEYOND samples above it (nearest rank), else the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return "max", ordered[-1]
    return f"p{100 * (n - TAIL_MIN_BEYOND) / n:.1f}", ordered[n - TAIL_MIN_BEYOND - 1]


def end_to_end(m, setup_s):
    """Latency is per item, the median over its calls at the host's median
    speed, so that a burst of machine noise is dropped and the tail's rank
    depends on the number of items, not on how many calls fit. Throughput
    is one pass's units over the sum of those latencies. Also returns the
    same latency and throughput figures unscaled, for the report lines."""
    units = sum(o.units for o in m.first.values())
    latencies = [statistics.median(runs) for runs in m.scaled().values()]
    raw = [statistics.median(runs) for runs in m.durations.values()]
    rank, tail_s = tail(latencies)
    values = {
        "setup_s": setup_s,
        "items_per_s": units / sum(latencies),
        "item_ms_p50": 1000 * statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unscaled = {"items_per_s": units / sum(raw), "item_ms_p50": 1000 * statistics.median(raw)}
    return values, 1000 * tail_s, f"{rank} of {len(latencies)} items", unscaled


def per_layer(tracer, m):
    """Per-pass totals of every per-layer metric, and the self-check that
    the layers' self times add up to the traced time."""
    values = {}
    for metric, (layer, what, _) in PER_LAYER.items():
        if layer == "trace":
            value = m.timed_s if what == "wall_s" else m.timed_s - m.untraced_s
        elif what == "self_s":
            value = tracer.self_s[layer]
        elif what == "total_s":
            value = tracer.total_s[layer]
        elif what == "calls":
            value = tracer.calls[layer]
        elif what == "builds_per_chunk":  # a ratio, not a per-pass total
            values[metric] = tracer.calls[layer] / tracer.chunks_built if tracer.chunks_built else 0
            continue
        else:
            value = tracer.counts[f"{layer}.{what}"]
        values[metric] = value / m.passes
    balanced = math.isclose(sum(tracer.self_s.values()), m.timed_s, rel_tol=1e-9, abs_tol=1e-9)
    return values, balanced


def run_workload(name, seed, seconds, trace, import_s=0.0):
    """Set up and measure one workload; returns (summary, lines to print)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        items, build_s = setup(workload, seed, workdir)
        if not trace:
            m = measure(workload, items, seconds=seconds)
        else:
            from tracing import Tracer

            # One call per item and pass, so that per-pass counts are exact.
            tracer = Tracer()
            tracer.install()
            try:
                m = measure(workload, items, seconds=seconds, tracer=tracer, max_calls=1)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted = len(m.outcomes)
    failures = [o for o in m.outcomes if not o.ok]
    digest = _workload_digest(m.digests)
    lines = [f"{name}  seed={seed}  {len(items)} items x {m.passes} pass(es) = {attempted} timed calls, "
             f"{sum(o.units for o in m.outcomes)} {workload.unit}, {m.timed_s:.2f} s timed"]
    checks = []
    if trace:
        metrics, balanced = per_layer(tracer, m)
        units = {metric: unit for metric, (_, _, unit) in PER_LAYER.items()}
        checks.append(("self times add up to the traced time", balanced))
        if "dsl.run_program" not in tracer.absent:
            suggested = sum(o.suggested for o in m.outcomes) / m.passes
            checks.append(("dsl.run_program.resolved equals suggested",
                           metrics["dsl.run_program.resolved"] == suggested))
        lines.append("  per pass:")
        for metric, value in metrics.items():
            lines.append(f"  {metric:42s} {value:.6g} {units[metric]}")
        lines.append("  absent layers: " + (", ".join(tracer.absent) or "none"))
    else:
        metrics, tail_ms, rank, unscaled = end_to_end(m, import_s + build_s)
        units = dict(END_TO_END)
        for metric, value in metrics.items():
            if metric == "setup_s":
                note = f"  (median import {import_s:.4f} s + median build {build_s:.4f} s)"
            elif metric in unscaled:
                note = f"  (unscaled {unscaled[metric]:.6g})"
            else:
                note = ""
            lines.append(f"  {metric:18s} {value:.6g} {units[metric]}{note}")
        lines.append(f"  {'item_ms_tail':18s} {tail_ms:.6g} ms  ({rank})")
    lines.append(f"  {'failed_share':18s} {len(failures) / attempted:.4g} ({len(failures)}/{attempted})")
    if workload.unit == "specs":
        for label, flag in (("no_program_share", "no_program"), ("truncated_share", "truncated")):
            hits = sum(getattr(o, flag) for o in m.first.values())
            lines.append(f"  {label:18s} {hits / len(m.first):.4g} ({hits}/{len(m.first)} specs)")
    lines.append(f"  digest {digest} ({_golden_status(name, seed, digest)})")
    for label, passed in checks:
        lines.append(f"  self-check: {label}: {'ok' if passed else 'FAILED'}")
    for failure in failures[:10]:
        lines.append(f"  FAILED {failure.detail}")
    summary = {
        "correct": not failures and all(passed for _, passed in checks),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
    }
    return summary, lines


def _workload_digest(digests):
    joined = "\n".join(digests[key] for key in sorted(digests))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _golden_status(name, seed, digest):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.is_file() else {}
    recorded = golden.get(name, {}).get(str(seed))
    if recorded is None:
        return "no golden digest recorded for this seed"
    return "matches golden" if recorded == digest else "DIFFERS from golden"


def _run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    ok = True
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        ok = ok and proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_s = _import_program()
    if args.workload == "all":
        return _run_all(args)
    os.environ.pop("MERGELEARN_KEYWORDS", None)
    # Installed before the CLI's own basicConfig, which then does nothing:
    # warnings are still formatted, as for a user, but go nowhere.
    logging.basicConfig(stream=_Discard(), level=logging.WARNING)
    summary, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
