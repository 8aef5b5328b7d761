"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to watch the lines appear;
on 2 cores (Python 3.11) the exhaustive b=2 run takes 9–18 s with both
cores and the randomized b=3/4 run 2–3 s.
"""

import os
from collections import Counter

import pytest

from bitprobe4.geometry import BlockAddr, Params, line_of, points_on_line
from bitprobe4.oracle import (
    audit_bit_flips,
    draw_subset,
    space_audit,
    verify_exhaustive,
    verify_random,
)
from bitprobe4.scheme import CaseLabel, build_from_ordinals
from bitprobe4.tables import deserialize, serialize
from .reference import anchor_bounds, lines_of_superblock, num_lines

JOBS = int(os.environ.get("BITPROBE4_JOBS", min(os.cpu_count() or 1, 8)))

# Case counts at b=2, cross-checked against an independent enumeration of
# block configurations weighted by the subsets inducing each configuration.
B2_HISTOGRAM = {
    CaseLabel.I: 444_384,
    CaseLabel.II: 16,
    CaseLabel.IIIA: 2_720,
    CaseLabel.IIIB: 2_704,
    CaseLabel.IVA: 0,
    CaseLabel.IVB: 320,
    CaseLabel.IVC_i: 4_768,
    CaseLabel.IVC_ii: 15_936,
    CaseLabel.IVD: 104_512,
    CaseLabel.FEWER_THAN_4_BLOCKS: 103_761,
}


def report_line(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def exhaustive_b2_report():
    return verify_exhaustive(2, max_n=4, jobs=JOBS)


def test_criterion_1_exhaustive_correctness(exhaustive_b2_report):
    r = exhaustive_b2_report
    ok = (
        r.subsets_checked == 679_121
        and r.queries_checked == 679_121 * 64
        and r.failures_total == 0
        and r.case_histogram == B2_HISTOGRAM
    )
    report_line(
        "1 exhaustive b=2",
        ok,
        f"{r.subsets_checked} subsets, {r.queries_checked} queries, "
        f"{r.failures_total} failures in {r.elapsed:.1f}s",
    )
    assert r.subsets_checked == 679_121
    assert r.queries_checked == 43_463_744
    assert r.failures_total == 0, r.failures[:5]
    # every case label occurs except IVA, whose three-way coincidence needs
    # three superblocks; the enumerator demonstrates the zero
    assert r.case_histogram == B2_HISTOGRAM


def test_frozen_histogram_cross_check():
    # independent derivation of B2_HISTOGRAM: enumerate block configurations
    # and weight each by the number of subsets inducing exactly that set of
    # non-empty blocks (1 to 2 members per block at b=2, at most 4 total)
    from itertools import combinations, product
    from math import comb, prod

    from bitprobe4.scheme import classify

    p = Params(2)
    blocks = [BlockAddr(s, x, y) for s in (1, 2) for y in range(4) for x in range(4)]
    weights = {
        j: sum(
            prod(comb(2, c) for c in counts)
            for counts in product((1, 2), repeat=j)
            if sum(counts) <= 4
        )
        for j in range(5)
    }
    assert weights == {0: 1, 1: 3, 2: 9, 3: 20, 4: 16}
    hist = {label: 0 for label in CaseLabel}
    for j in range(5):
        for config in combinations(blocks, j):
            hist[classify(p, config)] += weights[j]
    assert hist == B2_HISTOGRAM


def test_criterion_2_randomized_correctness():
    r3 = verify_random(3, trials=100_000, seed=1, jobs=JOBS)
    r4 = verify_random(4, trials=10_000, seed=1, jobs=JOBS)
    ok = r3.failures_total == 0 and r4.failures_total == 0
    report_line(
        "2 randomized b=3,4",
        ok,
        f"b=3: {r3.queries_checked} queries, {r3.failures_total} failures "
        f"({r3.elapsed:.1f}s); b=4: {r4.queries_checked} queries, "
        f"{r4.failures_total} failures ({r4.elapsed:.1f}s)",
    )
    assert r3.queries_checked == 100_000 * 729
    assert r3.failures_total == 0, r3.failures[:5]
    assert r4.queries_checked == 10_000 * 4096
    assert r4.failures_total == 0, r4.failures[:5]


def test_criterion_3_probe_discipline(exhaustive_b2_report):
    r = exhaustive_b2_report
    ok = r.trace_violations == 0 and r.queries_checked == 43_463_744
    report_line(
        "3 probe discipline",
        ok,
        f"{r.queries_checked} traces checked, {r.trace_violations} violations",
    )
    assert r.trace_violations == 0
    assert r.queries_checked == 43_463_744


def test_criterion_4_space_formulas():
    rows = space_audit(range(2, 17))
    ok = True
    for row in rows:
        b = row.b
        expected_b = b * ((b * b - 1) * b * (b + 3) // 2 + b)
        ok &= row.a_bits == b**5 and row.c_bits == b**5
        ok &= row.b_bits == expected_b
        ok &= row.ratio <= 3.1
        if b >= 4:
            ok &= row.ratio <= 3.0
    by_b = {row.b: row for row in rows}
    ok &= by_b[2][1:4] == (32, 34, 32)
    ok &= by_b[4][1:4] == (1024, 856, 1024)
    report_line(
        "4 space formulas",
        ok,
        f"b=2..16 exact; ratios {by_b[2].ratio:.4f} down to {by_b[16].ratio:.4f}",
    )
    assert ok
    assert by_b[2][1:4] == (32, 34, 32)
    assert by_b[4][1:4] == (1024, 856, 1024)


def test_criterion_5_line_family_properties():
    checked = 0
    for b in range(2, 9):
        p = Params(b)
        g = p.grid_side
        for s in range(1, b + 1):
            lines = list(lines_of_superblock(p, s))
            lo, hi = anchor_bounds(p, s)
            assert len(lines) == hi - lo == num_lines(p, s) == (s + 1) * (g - 1) + 1
            covered = Counter()
            for l in lines:
                pts = points_on_line(p, l)
                assert pts, f"empty line {l} at b={b}"
                covered.update(pts)
            # partition: each of the g*g grid points on exactly one line
            assert len(covered) == g * g and set(covered.values()) == {1}
            for y in range(g):
                for x in range(g):
                    assert lo <= line_of(BlockAddr(s, x, y)).anchor < hi
            checked += 1
        # lines from different superblocks share at most one grid point
        for s1 in range(1, b + 1):
            for s2 in range(s1 + 1, b + 1):
                shared = Counter()
                for y in range(g):
                    for x in range(g):
                        shared[
                            line_of(BlockAddr(s1, x, y)), line_of(BlockAddr(s2, x, y))
                        ] += 1
                assert max(shared.values()) <= 1
    report_line("5 line families", True, f"b=2..8, {checked} line families, 0 violations")


def test_criterion_6_determinism_and_serialization():
    p = Params(3)
    mismatches = 0
    for t in range(1000):
        size = t % 5
        subset = draw_subset(42, t, size, p.universe_size)
        blob1 = serialize(build_from_ordinals(p, subset))
        blob2 = serialize(build_from_ordinals(p, tuple(reversed(subset))))
        if blob1 != blob2:
            mismatches += 1
            continue
        restored = deserialize(blob1)
        if serialize(restored) != blob1:
            mismatches += 1
    report_line("6 determinism", mismatches == 0, f"1000 rebuilds, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_7_fault_sensitivity():
    report = audit_bit_flips(2, structures=100, seed=0)
    changing = report.flips - report.harmless
    ok = (
        report.flips == 100 * 98
        and report.detected + report.harmless == report.flips
        and report.detected >= 0.99 * changing
    )
    report_line(
        "7 fault sensitivity",
        ok,
        f"{report.flips} flips: {report.detected} detected, "
        f"{report.harmless} proven harmless (rate {report.detection_rate:.4f})",
    )
    assert report.flips == 9800
    assert report.detected + report.harmless == report.flips
    assert report.detected >= 0.99 * changing
    if report.harmless:
        assert report.harmless_examples, "harmless flips must be reported, not dropped"
