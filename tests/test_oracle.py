import math
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest

from bitprobe4 import oracle, scheme
from bitprobe4.geometry import INVERSE_TABLE_MAX_B, Params, element_from_ordinal
from bitprobe4.oracle import (
    FeasibilityError,
    audit_bit_flips,
    draw_subset,
    space_audit,
    verify_exhaustive,
    verify_random,
    yes_set,
)
from bitprobe4.scheme import CaseLabel, build, build_from_ordinals, classify, query
from bitprobe4.tables import serialize
from .reference import GOLDEN, set_bit, splitmix64_stream
from .test_golden import patch_fill, set_extra_bits


def report_key(report):
    """Everything that must be deterministic (elapsed time is not)."""
    return (
        report.b,
        report.subsets_checked,
        report.queries_checked,
        report.failures,
        report.failures_total,
        report.case_histogram,
        report.trace_violations,
    )


class TestCheckMembership:
    """The membership check of `_check_subsets`, on one subset at b=2."""

    def test_clean_structure_passes(self):
        partial = oracle._check_subsets(Params(2), [((3, 17), None)], 32)
        report = oracle._merge(2, [partial], 32, 0.0)
        assert report.failures_total == 0 and report.trace_violations == 0
        assert report.queries_checked == 64

    def test_flipped_bit_is_caught(self, monkeypatch):
        def flip(p, grouped, st):
            st.table_b.flip(0)
            st.table_c.flip(12)

        patch_fill(monkeypatch, 2, flip)
        _, _, failures, total, _ = oracle._check_subsets(Params(2), [((3, 17), None)], 32)
        assert total >= 1
        first = failures[0]
        assert len(first.trace) == 2 and first.trace[0][0] == "A"

    # probes: None checks the universe, (seed, trial) the members and a
    # non-member sample.
    @pytest.mark.parametrize("probes", [None, (1, 0)])
    @pytest.mark.parametrize("member", [-1, 64, 100])
    def test_out_of_range_member_rejected(self, member, probes):
        # A member no structure can answer YES for is a wrong answer that
        # no probe of [0, b**6) reaches; it must not pass silently.
        with pytest.raises(ValueError, match=rf"ordinal {member} out of range \[0, 64\)"):
            oracle._check_subsets(Params(2), [((member,), probes)], 32)

    def test_failure_cap(self, monkeypatch):
        def set_b(p, grouped, st):
            for pos in range(st.table_b.nbits):
                set_bit(st.table_b, pos, 1)

        patch_fill(monkeypatch, 2, set_b)
        _, _, failures, total, _ = oracle._check_subsets(Params(2), [((), None)], 5)
        assert len(failures) == 5
        assert total > 5


class TestYesSet:
    @pytest.mark.parametrize("b", [2, 3, 4])
    @pytest.mark.parametrize("full", [True, False])
    def test_dense_tables(self, b, full):
        # A bits seeded at random; B and C bits all set (every answer is
        # YES) or seeded at random (A decides which of them is read)
        p = Params(b)
        st = build_from_ordinals(p, [])
        stream = splitmix64_stream(b)
        for table in (st.table_a, st.table_b, st.table_c):
            for pos in range(table.nbits):
                set_bit(table, pos, 1 if full and table is not st.table_a else next(stream) & 1)
        expected = {
            n for n in range(p.universe_size) if query(st, element_from_ordinal(p, n))[0]
        }
        assert len(expected) == p.universe_size if full else 0 < len(expected) < p.universe_size
        assert yes_set(st) == expected

    @pytest.mark.parametrize("b", [3, 4, INVERSE_TABLE_MAX_B + 1])
    def test_one_b_line_per_b_bit(self, monkeypatch, b):
        # Above INVERSE_TABLE_MAX_B, yes_set walks Params.line_blocks of
        # line pos // b once per 1 bit at pos, also where three members
        # share one block and its line slot and where the dense tables fill
        # every slot with several bits; up to it, it reads the mask of each
        # 1 bit's line and walks no line_blocks, with the same answers.
        p = Params(b)
        members = [0, 1, 2, b**5]
        dense = build_from_ordinals(p, [])
        stream = splitmix64_stream(b)
        for table in (dense.table_a, dense.table_b):
            for pos in range(table.nbits):
                set_bit(table, pos, next(stream) & 1)
        calls = []
        line_blocks = Params.line_blocks

        def counting(self, line):
            calls.append(line)
            return line_blocks(self, line)

        monkeypatch.setattr(Params, "line_blocks", counting)
        for st, expected in ((build_from_ordinals(p, members), set(members)), (dense, None)):
            ones = list(st.table_b.ones())
            assert len({pos // b for pos in ones}) < len(ones)
            calls.clear()
            got = yes_set(st)
            assert calls == ([pos // b for pos in ones] if b > INVERSE_TABLE_MAX_B else [])
            if expected is not None:
                assert got == expected


class TestLazySample:
    def test_clean_run_draws_no_nonmembers(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("non-members drawn for a clean structure")

        monkeypatch.setattr(oracle, "_draw_nonmembers", refuse)
        report = verify_random(8, trials=20, seed=4)
        assert report.verdict == "PASS"
        assert report.queries_checked == 20 * (4 + oracle.NONMEMBER_PROBES)

    @pytest.mark.parametrize("wrong", ["false_positive", "false_negative"])
    def test_draws_only_to_locate_a_false_positive(self, monkeypatch, wrong):
        # Every build of the subset has the bit that the target's second
        # probe reads flipped: a non-member's turns its answer YES, a
        # member's turns it NO.
        p = Params(5)
        m = p.universe_size
        combo = draw_subset(2, 0, 4, m)
        eager = [*combo, *oracle._draw_nonmembers(2, 0, oracle.NONMEMBER_PROBES, m, frozenset(combo))]
        st = build_from_ordinals(p, combo)
        target = eager[-1] if wrong == "false_positive" else combo[1]
        _, (name, pos, _) = query(st, element_from_ordinal(p, target))[1]
        {"B": st.table_b, "C": st.table_c}[name].flip(pos)
        calls = []
        draw = oracle._draw_nonmembers

        def flip(p, grouped, built):
            {"B": built.table_b, "C": built.table_c}[name].flip(pos)

        patch_fill(monkeypatch, p.b, flip)
        monkeypatch.setattr(oracle, "_draw_nonmembers", lambda *a: calls.append(a) or draw(*a))
        subsets, queries, failures, total, _ = oracle._check_subsets(p, [(combo, (2, 0))], 10_000)
        assert (subsets, queries) == (1, 4 + oracle.NONMEMBER_PROBES)
        assert len(calls) == (wrong == "false_positive")
        eager_failures = [
            oracle.Failure(combo, n, n in combo, got, trace)
            for n in eager
            for got, trace in [query(st, element_from_ordinal(p, n))]
            if got != (n in combo)
        ]
        assert (failures, total) == (eager_failures, len(eager_failures))
        assert target in [f.element for f in failures]

    def test_traces_stop_once_the_cap_is_full(self, monkeypatch):
        # 668 wrong answers over 200 subsets, but only the one kept is traced.
        calls = []
        trace = oracle.query
        patch_fill(monkeypatch, 3, set_extra_bits)
        monkeypatch.setattr(oracle, "query", lambda *a: calls.append(a) or trace(*a))
        report = verify_random(3, 200, 1, failure_cap=1)
        assert (report.failures_total, len(report.failures), len(calls)) == (668, 1, 1)


class TestKernelMatchesBuild:
    """The tables `_check_subsets` checks for each subset (ints up to
    INVERSE_TABLE_MAX_B, a `Structure` above it) are those of the structure
    `build_from_ordinals` builds for it, and the one `build` makes of its
    element addresses, and its histogram label is `classify`'s."""

    def check(self, monkeypatch, b, combos):
        recorded = []
        patch_fill(monkeypatch, b, lambda p, grouped, st: recorded.append((grouped, st)))
        p = Params(b)
        for combo in combos:
            *_, hist = oracle._check_subsets(p, [(combo, None)], 32)
            ((grouped, st),) = recorded
            recorded.clear()
            assert serialize(st) == serialize(build_from_ordinals(p, combo)), combo
            addrs = [element_from_ordinal(p, n) for n in combo]
            assert serialize(st) == serialize(build(p, addrs)), combo
            label = classify(p, grouped.keys())
            assert hist == [int(lab is label) for lab in oracle._CASE_ORDER], combo

    def test_b2_every_subset_up_to_two(self, monkeypatch):
        m = Params(2).universe_size
        combos = [c for k in range(3) for c in combinations(range(m), k)]
        assert len(combos) == 1 + 64 + 2016
        self.check(monkeypatch, 2, combos)

    @pytest.mark.parametrize("b,count", [(2, 2000), (3, 300), (4, 200), (8, 60)])
    def test_seeded_four_subsets(self, monkeypatch, b, count):
        m = Params(b).universe_size
        self.check(monkeypatch, b, [draw_subset(9, t, 4, m) for t in range(count)])


class TestPatchPoints:
    """The verifier fills each subset's tables in one home, read on every
    subset: `oracle._routing_bits` up to INVERSE_TABLE_MAX_B, and
    `oracle._fill_tables` above it.  So a patch of that home or of
    `scheme._routing_valid` (tests/test_golden.py) reaches every subset:
    each subset is filled once, in its b's home, after at least one routing
    check of its blocks."""

    @pytest.mark.parametrize("run, home", [
        (lambda: verify_random(2, 50, 3, jobs=1), "_routing_bits"),
        (lambda: verify_exhaustive(2, max_n=2), "_routing_bits"),
        (lambda: verify_random(6, 20, 3, jobs=1), "_fill_tables"),
    ], ids=["random", "exhaustive", "random-b6"])
    def test_every_subset_is_routed_and_filled(self, monkeypatch, run, home):
        events = []
        valid = scheme._routing_valid

        def counting(name):
            fill = getattr(oracle, name)

            def counted(p, grouped, asg):
                events.append((name, frozenset(grouped)))
                return fill(p, grouped, asg)

            return counted

        def counting_valid(p, non_empty, to_b, to_c):
            events.append(("route", non_empty))
            return valid(p, non_empty, to_b, to_c)

        for name in ("_routing_bits", "_fill_tables"):
            monkeypatch.setattr(oracle, name, counting(name))
        monkeypatch.setattr(scheme, "_routing_valid", counting_valid)
        report = run()
        fills = [k for k, (kind, _) in enumerate(events) if kind != "route"]
        assert len(fills) == report.subsets_checked
        assert {events[k][0] for k in fills} == {home}
        for prev, k in zip([-1] + fills, fills):
            blocks = events[k][1]
            if blocks:
                assert ("route", blocks) in events[prev + 1 : k]


class TestCleanRunsBuildNoTables:
    """Up to INVERSE_TABLE_MAX_B a subset's tables stay ints: a clean run
    wraps none of them in a `Structure`, and a failing run wraps each
    failing subset's once, to trace its evidence."""

    def count_structures(self, monkeypatch):
        calls = []
        wrap = oracle._structure_of_bits

        def counted(p, *bits):
            calls.append(bits)
            return wrap(p, *bits)

        monkeypatch.setattr(oracle, "_structure_of_bits", counted)
        return calls

    @pytest.mark.parametrize("run", [
        lambda: verify_random(2, 500, 1),
        lambda: verify_exhaustive(2, max_n=2),
    ], ids=["random", "exhaustive"])
    def test_a_clean_run_builds_no_tables(self, monkeypatch, run):
        calls = self.count_structures(monkeypatch)
        report = run()
        assert (report.verdict, len(calls)) == ("PASS", 0)

    def test_each_failing_subset_builds_its_tables_once(self, monkeypatch):
        patch_fill(monkeypatch, 2, set_extra_bits)
        calls = self.count_structures(monkeypatch)
        report = verify_exhaustive(2, max_n=2, failure_cap=1 << 20)
        failing = {f.subset for f in report.failures}
        assert len(report.failures) == report.failures_total  # none left untraced
        assert 0 < len(failing) < report.subsets_checked
        assert len(calls) == len(failing)


class TestOneYesSetPerSubset:
    """`_check_subsets` computes each subset's YES set once, also for a
    subset that fails: its wrong answers are traced from that set."""

    @pytest.mark.parametrize("b, name, run", [
        (2, "_yes_bits", lambda: verify_exhaustive(2, max_n=2)),
        (6, "yes_set", lambda: verify_random(6, 20, 1)),
    ], ids=["exhaustive-b2", "random-b6"])
    def test_a_failing_run_computes_one_yes_set_per_subset(self, monkeypatch, b, name, run):
        calls = []
        inner = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args: calls.append(args) or inner(*args))
        patch_fill(monkeypatch, b, set_extra_bits)
        report = run()
        assert report.failures_total > 0
        assert len(calls) == report.subsets_checked


class TestOneJobShape:
    """At jobs=1 a run is one task: chunks only feed a worker pool, and the
    report does not depend on them."""

    def test_random_is_one_chunk(self, monkeypatch):
        tasks = []
        chunk = oracle._random_chunk
        monkeypatch.setattr(oracle, "_random_chunk", lambda task: tasks.append(task) or chunk(task))
        report = verify_random(3, 1000, 1, jobs=1)
        assert [(lo, hi) for _, _, _, lo, hi, _ in tasks] == [(0, 1000)]
        assert report.subsets_checked == 1000

    def test_exhaustive_is_one_chunk(self, monkeypatch):
        tasks = []
        chunk = oracle._exhaustive_chunk
        monkeypatch.setattr(oracle, "_exhaustive_chunk", lambda task: tasks.append(task) or chunk(task))
        serial = verify_exhaustive(2, max_n=3, jobs=1)
        monkeypatch.undo()  # a pool cannot pickle the lambda
        total = sum(math.comb(64, k) for k in range(4))
        assert [(lo, hi) for _, _, lo, hi, _ in tasks] == [(0, total)]
        assert serial.subsets_checked == total
        assert report_key(serial) == report_key(verify_exhaustive(2, max_n=3, jobs=2))

    def test_two_jobs_at_b8_are_two_tasks_of_100(self, monkeypatch):
        seen = []

        def in_process(worker, tasks, jobs):
            seen.append((jobs, [(lo, hi) for _, _, _, lo, hi, _ in tasks]))
            return list(map(worker, tasks))

        monkeypatch.setattr(oracle, "_run_tasks", in_process)
        report = verify_random(8, 200, 5, jobs=2)
        assert seen == [(2, [(0, 100), (100, 200)])]
        assert report_key(report) == report_key(verify_random(8, 200, 5, jobs=1))


class TestMerge:
    def test_sums_partials_in_order_and_caps_failures(self):
        order = oracle._CASE_ORDER
        partials = [
            (2, 128, ["f1", "f2", "f3"], 5, [int(k == 0) * 2 for k in range(len(order))]),
            (1, 64, [], 0, [int(k == 1) for k in range(len(order))]),
            (3, 192, ["f4", "f5"], 2, [int(k == 0) * 3 for k in range(len(order))]),
        ]
        r = oracle._merge(2, partials, 4, 0.5)
        assert (r.subsets_checked, r.queries_checked, r.failures_total) == (6, 384, 7)
        assert r.failures == ["f1", "f2", "f3", "f4"]
        assert r.case_histogram == {lab: {0: 5, 1: 1}.get(k, 0) for k, lab in enumerate(order)}
        assert partials[0][2] == ["f1", "f2", "f3"]


class TestRunTasks:
    def test_pool_size_clamped_to_cpu_count(self, monkeypatch):
        sizes = []

        class FakePool:
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return [fn(t) for t in tasks]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(oracle.multiprocessing, "get_context", lambda *a: FakeContext())
        assert oracle._run_tasks(abs, list(range(-50, 0)), 10_000) == list(range(50, 0, -1))
        assert oracle._run_tasks(abs, [-1, -2], 10_000) == [1, 2]
        assert oracle._run_tasks(abs, [-1, -2], 1) == [1, 2]
        assert sizes == [3, 2]

    def test_one_job_needs_no_cpu_count(self, monkeypatch):
        def cpu_count():
            raise AssertionError("os.cpu_count is only needed for jobs > 1")

        monkeypatch.setattr(oracle.os, "cpu_count", cpu_count)
        assert oracle._run_tasks(abs, [-1, -2], 1) == [1, 2]


class TestVerifyExhaustive:
    def test_singletons(self):
        report = verify_exhaustive(2, max_n=1)
        assert report.subsets_checked == 65
        assert report.queries_checked == 65 * 64
        assert report.failures_total == 0
        assert report.verdict == "PASS"
        assert report.case_histogram[CaseLabel.FEWER_THAN_4_BLOCKS] == 65

    def test_pairs_parallel_matches_serial(self):
        serial = verify_exhaustive(2, max_n=2, jobs=1)
        parallel = verify_exhaustive(2, max_n=2, jobs=2)
        assert report_key(serial) == report_key(parallel)
        assert serial.subsets_checked == 1 + 64 + math.comb(64, 2)

    def test_refuses_infeasible(self):
        with pytest.raises(FeasibilityError, match="subsets"):
            verify_exhaustive(9)
        with pytest.raises(FeasibilityError):
            verify_exhaustive(3, max_n=4)

    def test_override_allows_more(self):
        # b=3 singletons are far below any limit; force a tiny limit to be
        # sure the guard keys off the override value
        with pytest.raises(FeasibilityError):
            verify_exhaustive(2, max_n=1, max_queries=10)
        report = verify_exhaustive(3, max_n=1)
        assert report.subsets_checked == 730

    def test_rejects_bad_max_n(self):
        with pytest.raises(ValueError):
            verify_exhaustive(2, max_n=5)

    def test_rejects_zero_failure_cap(self):
        with pytest.raises(ValueError, match="failure_cap must be >= 1"):
            verify_exhaustive(2, max_n=1, failure_cap=0)
        with pytest.raises(ValueError, match="failure_cap must be >= 1"):
            verify_random(2, trials=5, seed=1, failure_cap=0)

    def test_empty_subset_does_not_copy_the_universe(self):
        # b=12 has 2,985,984 elements; copying their ordinals peaks near 114 MB.
        tracemalloc.start()
        try:
            report = verify_exhaustive(12, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.subsets_checked, report.queries_checked, report.verdict) == (1, 12**6, "PASS")
        assert peak <= 5 * 2**20

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_bad_jobs(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            verify_exhaustive(2, max_n=1, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            verify_random(2, trials=5, seed=1, jobs=jobs)


class TestVerifyRandom:
    def test_reproducible(self):
        first = verify_random(3, trials=200, seed=1)
        second = verify_random(3, trials=200, seed=1, jobs=2)
        assert report_key(first) == report_key(second)
        assert first.verdict == "PASS"
        assert first.queries_checked == 200 * 729

    def test_seed_changes_draws(self):
        assert draw_subset(1, 0, 4, 729) != draw_subset(2, 0, 4, 729)

    def test_draws_are_sorted_distinct(self):
        for t in range(50):
            s = draw_subset(9, t, 4, 64)
            assert list(s) == sorted(set(s)) and len(s) == 4

    def test_sampled_mode_above_b4(self):
        report = verify_random(5, trials=2, seed=3)
        assert report.queries_checked == 2 * (4 + 10_000)
        assert report.verdict == "PASS"

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            verify_random(2, trials=0, seed=1)

    def test_splitmix_reference_values(self):
        # splitmix64 of seed 0: first outputs per the reference algorithm
        stream = splitmix64_stream(0)
        assert next(stream) == 0xE220A8397B1DCDAF
        assert next(stream) == 0x6E789E6AA1B965F4

    @pytest.mark.parametrize("seed,trial", [(0, 0), (1, 5), (42, 999), (-7, 3)])
    def test_draw_subset_follows_the_splitmix_stream(self, seed, trial):
        # A trial draws from the stream seeded with the first value of the
        # stream seeded with seed + (trial - 1)*GOLDEN, rejecting values at
        # or above the largest multiple of m, so the draw is unbiased.
        m = 729
        stream = splitmix64_stream(next(splitmix64_stream(seed + (trial - 1) * GOLDEN)))
        limit = (1 << 64) - (1 << 64) % m
        expected = set()
        while len(expected) < 4:
            z = next(stream)
            if z < limit:
                expected.add(z % m)
        assert draw_subset(seed, trial, 4, m) == tuple(sorted(expected))


class TestDrawLimits:
    def test_impossible_draws_refused(self):
        # A draw from m > 2**64 values, or of more values than lie outside
        # the exclusions, used to loop forever, so the calls run in a child
        # process with a timeout.
        src = str(Path(oracle.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import bitprobe4.oracle as o\n"
            "for f, args in [(o.draw_subset, (0, 0, 1, 2**65)), (o.draw_subset, (0, 0, 5, 4)),\n"
            "                (o._draw_nonmembers, (0, 0, 3, 4, frozenset({1, 2})))]:\n"
            "    try:\n"
            "        f(*args)\n"
            "    except ValueError as e:\n"
            "        print('refused:', e)\n"
        )
        out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            f"refused: draws need a range [0, m) with 1 <= m <= 2**64, got m={2**65}",
            "refused: cannot draw 5 distinct values from the 4 of [0, 4) not excluded",
            "refused: cannot draw 3 distinct values from the 2 of [0, 4) not excluded",
        ]

    def test_draws_at_the_limits(self):
        assert draw_subset(0, 0, 4, 4) == (0, 1, 2, 3)
        assert oracle._draw_nonmembers(0, 0, 2, 4, frozenset({1, 2})) == [0, 3]
        (z,) = draw_subset(0, 0, 1, 2**64)  # no value is rejected
        assert z == next(splitmix64_stream(next(splitmix64_stream(-GOLDEN))))
        with pytest.raises(ValueError):
            draw_subset(0, 0, 0, 0)


class TestSpaceAudit:
    def test_spot_rows(self):
        rows = {row.b: row for row in space_audit(range(2, 17))}
        assert rows[2][1:] == (32, 34, 32, 98, 98 / 32)
        assert rows[4][1:] == (1024, 856, 1024, 2904, 2904 / 1024)
        # 2097152 + 620416 bits over b**5 = 1048576, just under 2.6
        assert rows[16].ratio == pytest.approx(2717568 / 1048576)
        assert rows[16].ratio < 3.0

    def test_ratio_decreasing_and_bounded(self):
        rows = space_audit(range(2, 17))
        ratios = [row.ratio for row in rows]
        assert all(r <= 3.1 for r in ratios)
        assert all(earlier > later for earlier, later in zip(ratios, ratios[1:]))

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            space_audit([1])


class TestReportFormats:
    def test_csv_layout(self):
        report = verify_exhaustive(2, max_n=1)
        lines = report.to_csv().splitlines()
        assert lines[0] == "b,subsets,queries,failures,seconds"
        assert lines[1].startswith("2,65,4160,0,")
        assert lines[2] == "label,count"
        assert "FEWER_THAN_4_BLOCKS,65" in lines
        assert len(lines) == 3 + len(CaseLabel)

    def test_text_verdict(self):
        report = verify_exhaustive(2, max_n=1)
        text = report.to_text()
        assert "verdict: PASS" in text
        assert "failures=0" in text


class TestFlipAudit:
    def test_small_audit_accounts_for_every_flip(self):
        report = audit_bit_flips(2, structures=5, seed=0)
        assert report.flips == 5 * 98
        assert report.detected + report.harmless == report.flips
        assert report.detection_rate == 1.0
        if report.harmless:
            assert report.harmless_examples

    def test_harmless_flips_on_empty_structure(self):
        # seed 0, trial 0 draws the empty subset: every element probes table
        # B, so flipping any A or C bit cannot change an answer, while every
        # one of the 34 B-bit flips must be caught
        report = audit_bit_flips(2, structures=1, seed=0)
        assert report.harmless_examples[0].subset == ()
        assert report.harmless == 64
        assert report.detected == 34

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            audit_bit_flips(2, structures=0)

    def test_oversized_b_refused_before_drawing(self):
        # Drawing from a b**6 > 2**64 universe never returns, so the call runs
        # in a child process with a timeout.
        src = str(Path(oracle.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import bitprobe4.oracle as o; o.audit_bit_flips(2000, 3, seed=1)"
        out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, timeout=60)
        assert out.returncode == 1
        assert "ValueError" in out.stderr and "table bits" in out.stderr
