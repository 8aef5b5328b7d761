"""One benchmark process: set up a workload, run it, print one JSON line.

Started by run.py as `python3 perfbench/workloads.py '<json spec>'`.  The
spec names the mode (`setup`, `run` or `trace`), the workload, the seed,
the seconds to measure and, for verify runs, the first call index and
the call limit.  The package is imported from the checkout's `src/` only.

Workloads (closed loop, one client):

- verify-b2: `oracle.verify_random(b=2, n=4, jobs=1)` calls of one trial;
  every universe element is checked, so build and sweep dominate.
- verify-b8: one `oracle.verify_random(b=8, n=4, jobs=2)` call of 200
  trials per process (run.py starts a fresh process per repetition), so
  each repetition pays the pool start and the per-worker universe table.
- serve-b16: batches of 1 write (build_from_ordinals, serialize,
  deserialize) and 1,000 reads (decode, query) against the reloaded
  structure.  1/8 of reads ask for a member, 1/8 for another block on a
  member's line (the C path), the rest are uniform over the universe.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"

VERIFY = {
    # trials per call, worker processes, queries per subset, trials per
    # traced call (the traced run always uses jobs=1, in one process).
    "verify-b2": {"b": 2, "trials": 1, "jobs": 1, "per_subset": 64, "traced_trials": 16},
    "verify-b8": {"b": 8, "trials": 200, "jobs": 2, "per_subset": 4 + 10_000, "traced_trials": 20},
}
SERVE_B = 16
READS_PER_WRITE = 1000
MEMBERS = 4
# The counters that must repeat exactly for a seed are taken over this many
# traced serve-b16 batches (verify workloads: over the first traced call).
COUNT_PREFIX_BATCHES = 4
READ_SAMPLES = 1 << 16
WRITE_SAMPLES = 1 << 16


def import_package():
    """Import bitprobe4 from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import bitprobe4
    from bitprobe4 import geometry, oracle, scheme, tables

    if not Path(bitprobe4.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"bitprobe4 imported from {bitprobe4.__file__}, not {SRC}")
    return {
        "package": bitprobe4,
        "geometry": geometry,
        "scheme": scheme,
        "tables": tables,
        "oracle": oracle,
    }


def call_seed(seed: int, call: int) -> int:
    """Seed of the call-th verify_random call of a run seeded with seed."""
    return seed * 1_000_003 + call


class Samples:
    """Latency samples in a preallocated typed array of fixed capacity.

    Only every stride-th value is kept.  When the array is full, every
    second kept sample is dropped and the stride doubles, so memory never
    grows with the run length and the kept samples stay evenly spread over
    the whole run.
    """

    def __init__(self, capacity: int):
        self.buf = array("d", bytes(8 * capacity))
        self.capacity = capacity
        self.kept = 0
        self.seen = 0
        self.stride = 1

    def add(self, value: float) -> None:
        self.seen += 1
        if self.seen % self.stride:
            return
        if self.kept == self.capacity:
            half = self.capacity // 2
            self.buf[:half] = self.buf[1 : self.capacity : 2]
            self.kept = half
            self.stride *= 2
            if self.seen % self.stride:
                return
        self.buf[self.kept] = value
        self.kept += 1

    def values(self) -> list[float]:
        return self.buf[: self.kept].tolist()


class Tally:
    """Counters and latency samples (ns) of a measured run."""

    def __init__(self):
        self.subsets = self.attempted = self.failed = self.busy_ns = 0
        # Time spent in, and number of, reads and writes: mean latencies.
        self.read_ns_sum = self.read_ops = self.write_ns_sum = self.write_ops = 0
        # CLOCK_MONOTONIC at the start and end of the measured steps, which
        # run.py matches with the speed reference's samples.
        self.window_ns = (0, 0)
        self.reads = Samples(READ_SAMPLES)
        self.writes = Samples(WRITE_SAMPLES)

    def result(self) -> dict:
        keys = ("subsets", "attempted", "failed", "busy_ns", "window_ns")
        keys += ("read_ns_sum", "read_ops", "write_ns_sum", "write_ops")
        out = {k: getattr(self, k) for k in keys}
        for kind, samples in (("read", self.reads), ("write", self.writes)):
            out[f"{kind}_ns"] = samples.values()
            out[f"{kind}_seen"] = samples.seen
        return out


def measure(step, seconds: float, max_steps: int | None = None) -> Tally:
    """Call step(tally) until `seconds` pass, or `max_steps` times."""
    tally = Tally()
    start = time.monotonic_ns()
    deadline = time.perf_counter() + seconds
    steps = 0
    while True:
        step(tally)
        steps += 1
        if time.perf_counter() >= deadline if max_steps is None else steps >= max_steps:
            tally.window_ns = (start, time.monotonic_ns())
            return tally


def peak_rss_kb() -> tuple[int, int]:
    """Peak RSS of this process and of its largest waited-for child, in KB."""
    return (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# ---------------------------------------------------------------------------
# verify-b2 and verify-b8


def verify_failures(report, trials: int, per_subset: int) -> int:
    """Wrong answers and violations in one call's report; every expected
    query counts as failed when the call's own counts do not add up."""
    expected = trials * per_subset
    if report is None or report.subsets_checked != trials or report.queries_checked != expected:
        return expected
    if sum(report.case_histogram.values()) != trials:
        return expected
    return report.failures_total + report.trace_violations


def verify_call(mods, cfg, seed: int, call: int, trials: int, jobs: int):
    """One verify_random call; returns (duration ns, queries failed)."""
    t0 = time.perf_counter_ns()
    try:
        report = mods["oracle"].verify_random(
            cfg["b"], trials, call_seed(seed, call), MEMBERS, jobs=jobs
        )
    except Exception:
        report = None
    dur = time.perf_counter_ns() - t0
    return dur, verify_failures(report, trials, cfg["per_subset"])


def run_verify(mods, spec) -> Tally:
    cfg = VERIFY[spec["workload"]]
    trials = cfg["trials"]
    calls = itertools.count(spec.get("first_call", 0))

    def step(tally: Tally) -> None:
        dur, bad = verify_call(mods, cfg, spec["seed"], next(calls), trials, cfg["jobs"])
        tally.subsets += trials
        tally.attempted += trials * cfg["per_subset"]
        tally.failed += bad
        tally.busy_ns += dur
        # verify_random does not expose single builds or queries, so each
        # call gives one amortized sample of each: its time per subset and
        # per query.
        tally.writes.add(dur / trials)
        tally.reads.add(dur / (trials * cfg["per_subset"]))
        tally.write_ns_sum += dur
        tally.write_ops += trials
        tally.read_ns_sum += dur
        tally.read_ops += trials * cfg["per_subset"]

    return measure(step, spec["seconds"], spec.get("max_calls"))


# ---------------------------------------------------------------------------
# serve-b16


class Serve:
    """The serve-b16 client: seeded writes and reads, each op timed alone."""

    def __init__(self, mods, seed: int):
        self.g = mods["geometry"]
        self.mods = mods
        self.p = self.g.Params(SERVE_B)
        self.m = self.p.universe_size
        self.seed = seed
        self.rng = random.Random(seed)
        self.ordinals = array("q", bytes(8 * READS_PER_WRITE))

    def next_batch(self, w: int) -> tuple[int, ...]:
        """The w-th write's subset, and its reads into self.ordinals."""
        g, p, rng = self.g, self.p, self.rng
        subset = self.mods["oracle"].draw_subset(self.seed, w, MEMBERS, self.m)
        neighbours = []
        for n in subset:
            blk = g.element_from_ordinal(p, n).block
            neighbours.extend(
                g.BlockAddr(blk.s, x, y)
                for x, y in g.points_on_line(p, g.line_of(blk))
                if (x, y) != (blk.x, blk.y)
            )
        for j in range(READS_PER_WRITE):
            r = rng.random()
            if r < 0.125:
                n = subset[rng.randrange(MEMBERS)]
            elif r < 0.25 and neighbours:
                blk = neighbours[rng.randrange(len(neighbours))]
                n = g.element_to_ordinal(p, g.ElementAddr(blk, rng.randrange(SERVE_B)))
            else:
                n = rng.randrange(self.m)
            self.ordinals[j] = n
        return subset

    def batch(self, subset: tuple[int, ...], tally: Tally) -> int:
        """Run one write and its reads, timing each; returns the busy ns."""
        scheme, tables = self.mods["scheme"], self.mods["tables"]
        decode, query, p = self.g.element_from_ordinal, scheme.query, self.p
        clock = time.perf_counter_ns
        start = clock()
        tally.subsets += 1
        tally.attempted += 1
        try:
            st = tables.deserialize(tables.serialize(scheme.build_from_ordinals(p, subset)))
        except Exception:
            tally.failed += 1
            busy = clock() - start
            tally.busy_ns += busy
            return busy
        dur = clock() - start
        tally.writes.add(dur)
        tally.write_ns_sum += dur
        tally.write_ops += 1
        members = frozenset(subset)
        tally.attempted += READS_PER_WRITE
        for n in self.ordinals:
            t0 = clock()
            try:
                got, trace = query(st, decode(p, n))
            except Exception:
                tally.failed += 1
                continue
            dur = clock() - t0
            tally.reads.add(dur)
            tally.read_ns_sum += dur
            tally.read_ops += 1
            if got != (n in members) or len(trace) != 2 or trace[0][0] != "A":
                tally.failed += 1
        busy = clock() - start
        tally.busy_ns += busy
        return busy


def run_serve(mods, spec, serve: Serve) -> Tally:
    batches = itertools.count()

    def step(tally: Tally) -> None:
        serve.batch(serve.next_batch(next(batches)), tally)

    return measure(step, spec["seconds"])


# ---------------------------------------------------------------------------
# Traced run: the workload's seeded steps in one process, spans recorded.


def replay_builds(mods, tracer, b: int, seed: int, trials: int) -> int:
    """Rebuild a traced verify call's subsets with scheme.build and round-trip
    them through the byte format, so build, fill and the tables layer are
    measured on the workload's own inputs.  Returns the failures found."""
    oracle, scheme, tables = mods["oracle"], mods["scheme"], mods["tables"]
    p = mods["geometry"].Params(b)
    failed = 0
    tracer.measuring = False
    try:
        for t in range(trials):
            combo = oracle.draw_subset(seed, t, MEMBERS, p.universe_size)
            st = scheme.build_from_ordinals(p, combo)
            if tables.deserialize(tables.serialize(st)) != st:
                failed += 1
    except Exception:
        failed += 1
    finally:
        tracer.measuring = True
    return failed


def trace_verify(mods, tracer, spec) -> dict:
    cfg = VERIFY[spec["workload"]]
    seed, trials = spec["seed"], cfg["traced_trials"]
    attempted = failed = 0
    utilization = 0.0
    if cfg["jobs"] > 1:
        # Pool utilization comes from one untraced call with the workload's
        # worker pool, made before anything is cached in this process.
        cpu0, t0 = children_cpu_s(), time.perf_counter()
        dur, bad = verify_call(mods, cfg, seed, 0, cfg["trials"], cfg["jobs"])
        utilization = (children_cpu_s() - cpu0) / (cfg["jobs"] * (time.perf_counter() - t0))
        attempted += cfg["trials"] * cfg["per_subset"]
        failed += bad

    def traced_call(call: int) -> int:
        nonlocal attempted, failed
        with tracer.installed(mods):
            dur, bad = verify_call(mods, cfg, seed, call, trials, 1)
            failed += bad + replay_builds(mods, tracer, cfg["b"], call_seed(seed, call), trials)
        attempted += trials * cfg["per_subset"]
        return dur

    # Call 0 is traced alone: it pays the lazy per-process work and its
    # counters are the ones that must repeat exactly for the seed.
    traced_call(0)
    counts = dict(tracer.counts)
    untraced_ns = traced_ns = 0
    deadline = time.perf_counter() + spec["seconds"]
    call = 1
    while call == 1 or time.perf_counter() < deadline:
        dur, bad = verify_call(mods, cfg, seed, call, trials, 1)
        untraced_ns += dur
        failed += bad
        attempted += trials * cfg["per_subset"]
        traced_ns += traced_call(call)
        call += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "counts": counts,
        "overhead": traced_ns / untraced_ns,
        "pool_utilization": utilization,
    }


def trace_serve(mods, tracer, spec, serve: Serve) -> dict:
    tally = Tally()
    failed = 0

    def traced_batch(subset) -> int:
        """Serve.batch with the layer functions wrapped; returns busy ns."""
        nonlocal failed
        with tracer.installed(mods):
            busy = serve.batch(subset, tally)
            # Classifying the written subset is not part of the workload, but
            # measures scheme.classify on its inputs too.
            tracer.measuring = False
            try:
                decode = mods["geometry"].element_from_ordinal
                mods["scheme"].classify(serve.p, {decode(serve.p, n).block for n in subset})
            except Exception:
                failed += 1
            finally:
                tracer.measuring = True
        return busy

    def next_batch(w: int):
        # Input generation is not part of the workload's time, but its
        # oracle.draw_subset calls are recorded.
        tracer.measuring = False
        try:
            with tracer.installed(mods):
                return serve.next_batch(w)
        finally:
            tracer.measuring = True

    for w in range(COUNT_PREFIX_BATCHES):
        traced_batch(next_batch(w))
    counts = dict(tracer.counts)
    untraced_ns = traced_ns = 0
    deadline = time.perf_counter() + spec["seconds"]
    w = COUNT_PREFIX_BATCHES
    while w == COUNT_PREFIX_BATCHES or time.perf_counter() < deadline:
        subset = next_batch(w)
        untraced_ns += serve.batch(subset, tally)
        traced_ns += traced_batch(subset)
        w += 1
    return {
        "attempted": tally.attempted,
        "failed": tally.failed + failed,
        "counts": counts,
        "overhead": traced_ns / untraced_ns,
        "pool_utilization": 0.0,
    }


def per_layer(tracer, run: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the tracer, plus the names never exercised."""
    idle: list[str] = []

    def per_call(name: str, scale: float) -> float:
        calls, total = tracer.stat(name)
        if not calls:
            idle.append(name)
            return 0.0
        return total / calls / scale

    def ratio(num: float, den: float, name: str) -> float:
        if not den:
            idle.append(name)
            return 0.0
        return num / den

    counts = run["counts"]
    build_calls, build_ns = tracer.stat("scheme.build")
    fill_ns = (
        build_ns
        - tracer.child_total("scheme.build", "scheme.group")
        - tracer.child_total("scheme.build", "scheme.assign")
    )
    metrics = {
        "geometry.decode.ns_per_call": per_call("geometry.decode", 1),
        "scheme.group.us_per_call": per_call("scheme.group", 1e3),
        "scheme.classify.us_per_call": per_call("scheme.classify", 1e3),
        "scheme.assign.us_per_call": per_call("scheme.assign", 1e3),
        "scheme.assign.candidates_per_call": ratio(
            counts.get("assign_candidates", 0), counts.get("assign_calls", 0), "scheme.assign"
        ),
        "scheme.assign.useful_ratio": ratio(
            counts.get("assign_calls", 0), counts.get("assign_candidates", 0), "scheme.assign"
        ),
        "scheme.build.us_per_call": per_call("scheme.build", 1e3),
        "scheme.fill.us_per_call": ratio(fill_ns / 1e3, build_calls, "scheme.build"),
        "scheme.query.ns_per_call": per_call("scheme.query", 1),
        "scheme.query.c_probe_share": ratio(
            counts.get("query_c_probes", 0), counts.get("query_calls", 0), "scheme.query"
        ),
        "tables.serialize.us_per_call": per_call("tables.serialize", 1e3),
        "tables.deserialize.us_per_call": per_call("tables.deserialize", 1e3),
        "tables.blob_bytes": ratio(
            counts.get("blob_bytes", 0), counts.get("serialize_calls", 0), "tables.serialize"
        ),
        "oracle.draw_subset.us_per_call": per_call("oracle.draw_subset", 1e3),
        "oracle.draw_nonmembers.ms_per_call": per_call("oracle.draw_nonmembers", 1e6),
        "oracle.element_table.s": tracer.element_table_first_ns / 1e9,
        "oracle.pool.utilization": run["pool_utilization"],
        "oracle.sweep.ns_per_query": ratio(
            tracer.counts.get("sweep_ns", 0), tracer.counts.get("sweep_queries", 0), "oracle.sweep"
        ),
        "trace.overhead": run["overhead"],
    }
    if not tracer.element_table_first_ns:
        idle.append("oracle.element_table")
    if not run["pool_utilization"]:
        idle.append("oracle.pool")
    for layer in ("geometry", "scheme", "tables", "oracle"):
        metrics[f"{layer}.self_share"] = tracer.layer_self_ns.get(layer, 0) / tracer.root_ns
    return metrics, sorted(set(idle))


def run_trace(mods, spec, ready_at: float, serve: Serve | None) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    if serve is None:
        run = trace_verify(mods, tracer, spec)
    else:
        run = trace_serve(mods, tracer, spec, serve)
    rss_self, rss_children = peak_rss_kb()
    metrics, idle = per_layer(tracer, run)
    spans = TRACE_DIR / f"spans-{spec['workload']}-seed{spec['seed']}.csv"
    tracer.write_csv(spans)
    return {
        "ready_at": ready_at,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
        "counts": {
            k: metrics[k]
            for k in (
                "scheme.assign.candidates_per_call",
                "scheme.query.c_probe_share",
                "tables.blob_bytes",
            )
        },
        "missing": tracer.missing,
        "not_exercised": idle,
        "unreadable": sorted(k for k in tracer.counts if k.startswith("unreadable:")),
        "spans_file": str(spans.relative_to(ROOT)),
        "spans_kept": tracer.stored,
        "spans_dropped": tracer.dropped,
        "rss_kb": max(rss_self, rss_children),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    mods = import_package()
    serve = None if spec["workload"] in VERIFY else Serve(mods, spec["seed"])
    ready_at = time.monotonic()
    if spec["mode"] == "setup":
        out = {"ready_at": ready_at}
    elif spec["mode"] == "trace":
        out = run_trace(mods, spec, ready_at, serve)
    else:
        tally = run_verify(mods, spec) if serve is None else run_serve(mods, spec, serve)
        rss_self, rss_children = peak_rss_kb()
        out = {"ready_at": ready_at, "rss_kb": max(rss_self, rss_children), **tally.result()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
