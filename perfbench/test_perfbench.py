"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They start benchmark processes, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from reference import Speed  # noqa: E402
from workloads import ROOT, Samples  # noqa: E402


def child(spec: dict) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def bench(root: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_samples_stay_within_capacity_and_spread_over_the_run():
    s = Samples(8)
    for v in range(100):
        s.add(v)
    assert s.seen == 100
    assert s.values() == list(range(s.stride - 1, 100, s.stride))
    assert s.stride == 16


def test_rescaled_scales_every_time_and_nothing_else():
    res = {"busy_ns": 100, "read_ns_sum": 80, "write_ns_sum": 10, "read_ns": [10.0], "write_ns": [20.0], "read_ops": 3}
    out = run.rescaled(res, 0.5)
    assert out == {
        "busy_ns": 50, "read_ns_sum": 40, "write_ns_sum": 5, "read_ns": [5.0], "write_ns": [10.0], "read_ops": 3,
    }


def test_speed_samplers_sample_until_stopped():
    start = time.monotonic_ns()
    with Speed([min(os.sched_getaffinity(0))]) as speed:
        procs = list(speed.procs)
        time.sleep(0.3)
    assert [proc.returncode for proc in procs] == [0] and speed.samples
    scale, n = speed.scale(start, time.monotonic_ns())
    assert scale > 0 and n == len(speed.samples)


def test_windowed_percentile_ignores_a_slow_window():
    values = [1.0] * run.WINDOW + [100.0] * run.WINDOW + [2.0] * (run.WINDOW + 5)
    assert run.windowed(values, 0.99) == 2.0
    assert run.windowed([3.0, 1.0, 2.0], 0.5) == 2.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(workload):
    spec = {"mode": "trace", "workload": workload, "seed": 7, "seconds": 1}
    first, second = child(spec), child(spec)
    assert first["failed"] == second["failed"] == 0
    assert first["counts"] == second["counts"]
    assert set(first["metrics"]) == set(run.PER_LAYER_UNITS)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "verify-b2")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", ["verify-b2", "serve-b16"])
def test_wrong_answers_fail_the_run(tmp_path, workload):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = tmp_path / "src" / "bitprobe4" / "__init__.py"
    # Flip the answer for every element with block index 1.
    init.write_text(
        init.read_text()
        + "\nfrom . import oracle as _o, scheme as _s\n_q = _s.query\n"
        "def _wrong(st, e):\n    got, trace = _q(st, e)\n    return got != (e.i == 1), trace\n"
        "_s.query = _o.query = _wrong\n"
    )
    proc = bench(tmp_path, workload)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0
