"""Speed reference: tracks the speed of the CPUs while a run measures.

On a shared virtual machine the speed of a vCPU changes with the load of
the host: on the 2-vCPU Xeon (Sapphire Rapids) VM this benchmark was tuned
on, it switched within milliseconds between speeds up to about 1.9x apart,
and the share of time at each speed drifted over minutes, so ten 30-second
runs of the same code spread by up to 40%.

While a workload runs, one sampler process per CPU that the workload uses
wakes every SAMPLE_INTERVAL_S, runs a fixed pure-Python loop and records
the CPU time it took (CPU time, so the time the workload's process holds
the CPU does not count).  A run reports its times scaled to the speed at
which the loop takes REF_SAMPLE_NS of CPU time.  A sample's scale is
REF_SAMPLE_NS / loop time, and a run's times are scaled by the mean scale
of the samples taken while it ran, its mean speed.  The samplers run
outside the
measured process, so nothing the package does (threads, a large heap)
changes the scale; a change that makes the package k times slower makes
the reported times k times larger.  Runs also report the unscaled
throughput and the scale.  The samplers take about 2% of each CPU.

Started as `python3 perfbench/reference.py`, the module is a sampler: it
samples until its stdin closes, then prints its samples as one JSON list
of (CLOCK_MONOTONIC ns, loop CPU ns) pairs, flattened.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

# About 0.5 ms of CPU time in the slower of the two speeds above, with
# Python 3.11; REF_SAMPLE_NS is that time, the speed of scale 1.0.
SAMPLE_ITERATIONS = 600
REF_SAMPLE_NS = 500_000
SAMPLE_INTERVAL_S = 0.02


def reference_loop(n: int) -> int:
    """Dict and int work, the mix of the package's hot paths.  It makes no
    object that the garbage collector tracks, so it never runs a collection."""
    d: dict[int, int] = {}
    acc = 0
    for i in range(n):
        key = (i & 1023) * 8 + i % 7
        d[key] = (d.get(key, 0) + (i ^ acc)) & 0xFFFF
        acc = (acc * 31 + len(d)) & 0xFFFFFFFF
    return acc


class Speed:
    """Samplers pinned to the CPUs `cpus`, sampling until stop()."""

    def __init__(self, cpus: list[int]):
        self.procs: list[subprocess.Popen] = []
        self.samples: list[tuple[int, int]] = []
        try:
            for cpu in cpus:
                proc = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve())],
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                )
                self.procs.append(proc)
                os.sched_setaffinity(proc.pid, {cpu})
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Stop every sampler, wait for it and collect its samples."""
        for proc in self.procs:
            try:
                out, _ = proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            flat = json.loads(out) if proc.returncode == 0 and out else []
            self.samples.extend(zip(flat[::2], flat[1::2]))
        self.procs = []

    def scale(self, start_ns: int, end_ns: int) -> tuple[float, int]:
        """Mean scale over the samples taken between two CLOCK_MONOTONIC
        times, and their number."""
        points = [REF_SAMPLE_NS / ns for t, ns in self.samples if start_ns <= t <= end_ns and ns > 0]
        if not points:
            raise RuntimeError("the speed reference took no sample while the workload ran")
        return statistics.fmean(points), len(points)

    def __enter__(self) -> Speed:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def sampler() -> int:
    out = array("q")
    # stdin turns readable when it is closed: the end of the run.
    while not select.select([sys.stdin], [], [], SAMPLE_INTERVAL_S)[0]:
        t = time.monotonic_ns()
        c0 = time.thread_time_ns()
        reference_loop(SAMPLE_ITERATIONS)
        out.append(t)
        out.append(time.thread_time_ns() - c0)
    sys.stdout.write(json.dumps(out.tolist()))
    return 0


if __name__ == "__main__":
    sys.exit(sampler())
