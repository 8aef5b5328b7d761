import math
from itertools import combinations

import pytest

from bitprobe4 import oracle, scheme
from bitprobe4.geometry import Params, element_from_ordinal
from bitprobe4.oracle import (
    FeasibilityError,
    audit_bit_flips,
    check_membership,
    draw_subset,
    space_audit,
    verify_exhaustive,
    verify_random,
    yes_set,
)
from bitprobe4.scheme import CaseLabel, build, build_from_ordinals, classify, query
from bitprobe4.tables import serialize
from .reference import GOLDEN, set_bit, splitmix64_stream


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
    def test_clean_structure_passes(self):
        st = build_from_ordinals(Params(2), [3, 17])
        res = check_membership(st, [3, 17])
        assert res.failures_total == 0 and res.trace_violations == 0
        assert res.queries == 64

    def test_flipped_bit_is_caught(self):
        st = build_from_ordinals(Params(2), [3, 17])
        st.table_b.flip(0)
        st.table_c.flip(12)
        res = check_membership(st, [3, 17])
        assert res.failures_total >= 1
        first = res.failures[0]
        assert len(first.trace) == 2 and first.trace[0][0] == "A"

    @pytest.mark.parametrize("probe", [-1, 64, 100])
    def test_out_of_range_probe_rejected(self, probe):
        st = build_from_ordinals(Params(2), [63])
        with pytest.raises(ValueError, match="probe ordinals"):
            check_membership(st, [], [0, probe])

    @pytest.mark.parametrize("probes", [None, [0, 1]])
    @pytest.mark.parametrize("member", [-1, 64, 100])
    def test_out_of_range_member_rejected(self, member, probes):
        # A member no structure can answer YES for is a wrong answer that
        # no probe of [0, b**6) reaches; it must not pass silently.
        st = build_from_ordinals(Params(2), [])
        with pytest.raises(ValueError, match="member ordinals"):
            check_membership(st, [member], probes)

    def test_failure_cap(self):
        st = build_from_ordinals(Params(2), [])
        for pos in range(st.table_b.nbits):
            set_bit(st.table_b, pos, 1)
        res = check_membership(st, [], cap=5)
        assert len(res.failures) == 5
        assert res.failures_total > 5


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

    @pytest.mark.parametrize("b", [3, 4])
    def test_one_b_line_per_b_bit(self, monkeypatch, b):
        # yes_set inverts B positions through Params.b_line, once per 1
        # bit, also where three members share one block and its line slot
        # and where the dense tables fill every slot with several bits.
        p = Params(b)
        members = [0, 1, 2, b**5]
        dense = build_from_ordinals(p, [])
        stream = splitmix64_stream(b)
        for table in (dense.table_a, dense.table_b):
            for pos in range(table.nbits):
                set_bit(table, pos, next(stream) & 1)
        calls = []
        b_line = Params.b_line

        def counting(self, pos):
            calls.append(pos)
            return b_line(self, pos)

        monkeypatch.setattr(Params, "b_line", counting)
        for st, expected in ((build_from_ordinals(p, members), set(members)), (dense, None)):
            ones = list(st.table_b.ones())
            assert len({b_line(p, pos)[:2] for pos in ones}) < len(ones)
            calls.clear()
            got = yes_set(st)
            assert calls == ones
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
        p = Params(5)
        m = p.universe_size
        combo = draw_subset(2, 0, 4, m)
        sample = oracle._Sample(combo, 2, 0, m)
        eager = list(sample)
        assert len(eager) == len(sample) == 4 + oracle.NONMEMBER_PROBES
        st = build_from_ordinals(p, combo)
        target = eager[-1] if wrong == "false_positive" else combo[1]
        _, (name, pos, _) = query(st, element_from_ordinal(p, target))[1]
        {"B": st.table_b, "C": st.table_c}[name].flip(pos)

        calls = []
        draw = oracle._draw_nonmembers
        monkeypatch.setattr(oracle, "_draw_nonmembers", lambda *a: calls.append(a) or draw(*a))
        lazy = check_membership(st, combo, sample, cap=None)
        assert len(calls) == (wrong == "false_positive")
        assert lazy == check_membership(st, combo, eager, cap=None)
        assert target in [f.element for f in lazy.failures]


class TestKernelMatchesBuild:
    """Every structure `_check_subsets` builds is the one `build_from_ordinals`
    builds for its subset, and the one `build` makes of its element addresses,
    and its histogram label is `classify`'s."""

    def check(self, monkeypatch, b, combos):
        recorded = []
        fill = oracle._fill_tables

        def recording(p, grouped, asg):
            st = fill(p, grouped, asg)
            recorded.append((grouped, st))
            return st

        monkeypatch.setattr(oracle, "_fill_tables", recording)
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
    """`oracle._fill_tables` and `scheme._routing_valid` are read on every
    build, so a patch of either (tests/test_golden.py) reaches every subset:
    each subset is filled once, after at least one routing check of its
    blocks."""

    @pytest.mark.parametrize("run", [
        lambda: verify_random(2, 50, 3, jobs=1),
        lambda: verify_exhaustive(2, max_n=2),
    ], ids=["random", "exhaustive"])
    def test_every_subset_is_routed_and_filled(self, monkeypatch, run):
        events = []
        fill, valid = oracle._fill_tables, scheme._routing_valid

        def counting_fill(p, grouped, asg):
            events.append(("fill", frozenset(grouped)))
            return fill(p, grouped, asg)

        def counting_valid(p, non_empty, to_b, to_c):
            events.append(("route", non_empty))
            return valid(p, non_empty, to_b, to_c)

        monkeypatch.setattr(oracle, "_fill_tables", counting_fill)
        monkeypatch.setattr(scheme, "_routing_valid", counting_valid)
        report = run()
        fills = [k for k, (kind, _) in enumerate(events) if kind == "fill"]
        assert len(fills) == report.subsets_checked
        for prev, k in zip([-1] + fills, fills):
            blocks = events[k][1]
            if blocks:
                assert ("route", blocks) in events[prev + 1 : k]


class TestOneJobShape:
    """At jobs=1 a run is one task (one per size k when exhaustive): chunks
    only feed a worker pool, and the report does not depend on them."""

    def test_random_is_one_chunk(self, monkeypatch):
        tasks = []
        chunk = oracle._random_chunk
        monkeypatch.setattr(oracle, "_random_chunk", lambda task: tasks.append(task) or chunk(task))
        report = verify_random(3, 1000, 1, jobs=1)
        assert [(lo, hi) for _, _, _, lo, hi, _ in tasks] == [(0, 1000)]
        assert report.subsets_checked == 1000

    def test_exhaustive_is_one_chunk_per_size(self, monkeypatch):
        tasks = []
        chunk = oracle._exhaustive_chunk
        monkeypatch.setattr(oracle, "_exhaustive_chunk", lambda task: tasks.append(task) or chunk(task))
        serial = verify_exhaustive(2, max_n=3, jobs=1)
        monkeypatch.undo()  # a pool cannot pickle the lambda
        assert [(k, lo, hi) for _, k, lo, hi, _ in tasks] == [
            (k, 0, math.comb(64, k)) for k in range(4)
        ]
        assert report_key(serial) == report_key(verify_exhaustive(2, max_n=3, jobs=2))


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
