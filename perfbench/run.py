#!/usr/bin/env python3
"""Benchmark of the bitprobe4 package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-b2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
makes the traced run, which reports the per-layer metrics and the tracing
overhead.  Every run checks its answers and its counts.  The output is one
line per metric (name, value, unit, sample count), a provenance line, and
as the last line a JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The result and the traced run's spans are also written under
`.perfbench/`.  `--workload all` runs every workload in turn.

Each measurement runs in a child process (perfbench/workloads.py), so
set-up is timed from process start and every run starts with cold caches.
A measured process runs on as many CPUs as it has workers (one, or two
for verify-b8), and its times are scaled to a reference speed of the
machine, which samplers on those CPUs measure while it runs
(perfbench/reference.py).  The unscaled figures are printed beside the
scaled ones.
Exit codes: 0 correct, 1 a wrong answer or count, 2 the run could not be
made (no package source in this checkout, a child crashed or timed out).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Speed
from workloads import ROOT, SRC, TRACE_DIR, VERIFY

WORKER = Path(__file__).resolve().parent / "workloads.py"
WORKLOADS = ("verify-b2", "verify-b8", "serve-b16")
# Processes that only set up; setup_s is the median of their times.
SETUP_SPAWNS = 11
# Latency percentiles are medians over windows of this many samples, so
# each window's p99 has at least 10 samples beyond it.
WINDOW = 1024
# A run, children included, ends within this many seconds.
RUN_BUDGET_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "subsets_per_s": "1/s",
    "ops_per_s": "1/s",
    "read_mean_us": "us",
    "write_mean_us": "us",
    "peak_rss_mb": "MB",
}
# Percentiles of single operations: printed and kept in the result file,
# but not end-to-end metrics of BENCHMARK.json.  A shared host's vCPUs
# switch between speeds up to 1.9x apart within milliseconds (reference.py),
# so the latencies of one run form two clusters whose sizes drift; the
# median jumps between them and the slowest 1% falls in the slow spells.
# Scaled by the measured speed, sets of ten runs of the same code spread
# by up to 28% (p50) and 38% (p99), the mean latencies by at most 4%.
PERCENTILE_UNITS = {"read_p50_us": "us", "read_p99_us": "us", "write_p50_us": "us", "write_p99_us": "us"}


PER_LAYER_UNITS = {
    "geometry.decode.ns_per_call": "ns",
    "scheme.group.us_per_call": "us",
    "scheme.classify.us_per_call": "us",
    "scheme.assign.us_per_call": "us",
    "scheme.assign.candidates_per_call": "count",
    "scheme.assign.useful_ratio": "ratio",
    "scheme.build.us_per_call": "us",
    "scheme.fill.us_per_call": "us",
    "scheme.query.ns_per_call": "ns",
    "scheme.query.c_probe_share": "share",
    "tables.serialize.us_per_call": "us",
    "tables.deserialize.us_per_call": "us",
    "tables.blob_bytes": "bytes",
    "oracle.draw_subset.us_per_call": "us",
    "oracle.draw_nonmembers.ms_per_call": "ms",
    "oracle.element_table.s": "s",
    "oracle.pool.utilization": "ratio",
    "oracle.sweep.ns_per_query": "ns",
    "trace.overhead": "ratio",
    "geometry.self_share": "share",
    "scheme.self_share": "share",
    "tables.self_share": "share",
    "oracle.self_share": "share",
}


class BenchError(RuntimeError):
    """The run could not be made; no result is printed."""


def spawn(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run one child to completion; returns its JSON result and start time."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{spec['mode']} process for {spec['workload']} timed out")
    finally:
        # Stop anything left in the child's session (pool workers), also
        # when this process is interrupted or terminated.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(
            f"{spec['mode']} process for {spec['workload']} exited with "
            f"{proc.returncode}:\n{err.decode(errors='replace')[-3000:]}"
        )
    return json.loads(out.decode().splitlines()[-1]), started


def measure(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """End-to-end run with tracing off; times at the reference speed of
    the machine (reference.py)."""
    base = {"workload": workload, "seed": seed}
    # The measured processes run on the first `jobs` CPUs, with a sampler
    # of the speed reference on each.
    all_cpus = sorted(os.sched_getaffinity(0))
    cpus = all_cpus[: VERIFY.get(workload, {}).get("jobs", 1)]
    raw_setup, children = [], []
    os.sched_setaffinity(0, cpus)
    try:
        with Speed(cpus) as speed:
            setup_start = time.monotonic_ns()
            for _ in range(SETUP_SPAWNS):
                res, started = spawn({**base, "mode": "setup"}, deadline)
                raw_setup.append(res["ready_at"] - started)
            setup_end = time.monotonic_ns()
            if workload == "verify-b8":
                # A fresh process per verify_random call, as a command-line
                # user pays it: interpreter, pool start and per-worker
                # universe table.
                start = time.monotonic()
                while len(children) < 2 or time.monotonic() - start < seconds:
                    spec = {**base, "mode": "run", "seconds": 0, "first_call": len(children), "max_calls": 1}
                    children.append(spawn(spec, deadline))
            else:
                children.append(spawn({**base, "mode": "run", "seconds": seconds}, deadline))
    finally:
        os.sched_setaffinity(0, all_cpus)
    setup_scale, _ = speed.scale(setup_start, setup_end)
    setup = [t * setup_scale for t in raw_setup]
    raw, results, scales, points = [], [], [], 0
    for res, _ in children:
        scale, n = speed.scale(*res["window_ns"])
        raw.append(res)
        results.append(rescaled(res, scale))
        scales.append(scale)
        points += n

    def total(key: str) -> float:
        return sum(r[key] for r in results)

    busy_s = total("busy_ns") / 1e9
    pooled = {kind: [v / 1e3 for r in results for v in r[f"{kind}_ns"]] for kind in ("read", "write")}
    metrics = {
        "setup_s": statistics.median(setup),
        "subsets_per_s": total("subsets") / busy_s,
        "ops_per_s": total("attempted") / busy_s,
        "read_mean_us": total("read_ns_sum") / total("read_ops") / 1e3,
        "write_mean_us": total("write_ns_sum") / total("write_ops") / 1e3,
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024,
    }
    percentiles = {
        f"{kind}_p{round(q * 100)}_us": windowed(pooled[kind], q) for kind in ("read", "write") for q in (0.5, 0.99)
    }
    samples = {
        "setup_s": f"median of {len(setup)} set-ups",
        "read_mean_us": f"mean of {total('read_ops')} reads",
        "write_mean_us": f"mean of {total('write_ops')} writes",
    }
    # A verify sample is one verify_random call's time per subset or query.
    unit = "calls" if workload in VERIFY else "{kind}s"
    for kind in ("read", "write"):
        kept = len(pooled[kind])
        samples[f"{kind}_p50_us"] = samples[f"{kind}_p99_us"] = (
            f"median of {max(1, kept // WINDOW)} windows of {min(kept, WINDOW)}+ samples; "
            f"{kept} samples evenly spread over {total(kind + '_seen')} " + unit.format(kind=kind)
        )
    if workload == "verify-b8":
        samples["peak_rss_mb"] = f"largest of {len(results)} processes and their workers"
    raw_busy_s = sum(r["busy_ns"] for r in raw) / 1e9
    return {
        "attempted": total("attempted"),
        "failed": total("failed"),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "percentiles": {k: {"value": v, "unit": PERCENTILE_UNITS[k]} for k, v in percentiles.items()},
        "samples": samples,
        "reference": {
            "cpus": cpus,
            "samples": points,
            "scale": statistics.fmean(scales),
            "setup_scale": setup_scale,
            "unscaled_setup_s": statistics.median(raw_setup),
            "unscaled_subsets_per_s": total("subsets") / raw_busy_s,
            "unscaled_ops_per_s": total("attempted") / raw_busy_s,
        },
    }


def rescaled(res: dict, scale: float) -> dict:
    """A child's result with its times at reference speed."""
    out = {**res}
    for key in ("busy_ns", "read_ns_sum", "write_ns_sum"):
        out[key] = res[key] * scale
    for kind in ("read", "write"):
        out[f"{kind}_ns"] = [v * scale for v in res[f"{kind}_ns"]]
    return out


def windowed(values: list[float], q: float) -> float:
    """Median over consecutive windows of WINDOW samples of each window's
    q-quantile; a shorter remainder joins the last window.  Samples are in
    time order, so a slow spell of the machine moves a few windows, not
    the median."""
    n = max(1, len(values) // WINDOW)
    bounds = [i * WINDOW for i in range(n)] + [len(values)]
    return statistics.median(percentile(values[a:b], q) for a, b in zip(bounds, bounds[1:]))


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated q-quantile (0 <= q <= 1) of values."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def trace(workload: str, seed: int, seconds: int, deadline: float) -> dict:
    """Traced run in one process: per-layer metrics and tracing overhead."""
    res, _ = spawn({"workload": workload, "seed": seed, "mode": "trace", "seconds": seconds}, deadline)
    return {
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in res["metrics"].items()},
        "counts": res["counts"],
        "missing": res["missing"],
        "not_exercised": res["not_exercised"],
        "unreadable": res["unreadable"],
        "spans": f"{res['spans_file']} ({res['spans_kept']} kept, {res['spans_dropped']} beyond capacity)",
    }


def provenance(workload: str, seed: int, seconds: int, traced: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "jobs": 1 if traced else VERIFY.get(workload, {}).get("jobs", 1),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_one(workload: str, seed: int, seconds: int, traced: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    result = (trace if traced else measure)(workload, seed, seconds, deadline)
    result["correct"] = result["failed"] == 0
    result["provenance"] = provenance(workload, seed, seconds, traced)
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"result-{workload}-seed{seed}-trace{traced}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_summary(workload: str, result: dict) -> None:
    print(f"== {workload}")
    samples = result.get("samples", {})
    for name, m in {**result["metrics"], **result.get("percentiles", {})}.items():
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:38s} {m['value']:<16.6g} {m['unit']}{note}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':38s} {share:<16.6g} share  ({result['failed']} of {result['attempted']} ops)")
    for key in ("reference", "counts", "missing", "not_exercised", "unreadable", "spans"):
        if key in result:
            print(f"  {key}: {json.dumps(result[key])}")
    print(f"  provenance: {json.dumps(result['provenance'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the running child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "bitprobe4" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'bitprobe4'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, args.trace)
            print_summary(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in results.values())
    if args.workload == "all":
        print(json.dumps({name: {"correct": r["correct"], "metrics": r["metrics"]} for name, r in results.items()}))
    else:
        r = results[args.workload]
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"], "metrics": r["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
