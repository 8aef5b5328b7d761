"""Golden checks: answers, probe positions, draws and bytes that must not drift.

The sweep kernel (`yes_set`) is compared element by element with
`scheme.query`, on seeded structures as built and with single bits of
tables A, B and C flipped.  A flipped B or C bit must change the kernel's
answer for exactly the elements whose second probe reads that bit, which
pins the kernel's probe positions to the ones `query` reports; the
verifier (`_check_subsets`) must report each wrong answer of the same flip
with `query`'s answer and trace.  The digests below were recorded from the
implementation that answered every element through `query`, except the
clean-run report digests, which were recorded from the verifier that built
each subset through `_group_ordinals`, `classify` and `assign_blocks`.
Faults are injected by `patch_fill` where the verifier fills a subset's
tables: the ints of `_routing_bits` up to INVERSE_TABLE_MAX_B, where a
`Structure` is built only for a subset that fails, and the `Structure` of
`_fill_tables` above it.  Both homes take the same bits at the same
positions, so the frozen evidence holds for either.
"""

import hashlib

import pytest

from bitprobe4 import oracle, scheme
from bitprobe4.geometry import INVERSE_TABLE_MAX_B, Params, element_from_ordinal
from bitprobe4.oracle import (
    _draw_nonmembers,
    audit_bit_flips,
    draw_subset,
    verify_exhaustive,
    verify_random,
    yes_set,
)
from bitprobe4.scheme import _structure_of_bits, build_from_ordinals, query
from bitprobe4.tables import serialize

# b, non-member probes per structure (None: the whole universe), flips
# per structure (None: every bit of every table).
KERNEL_CASES = [(2, None, None), (3, None, 24), (4, None, 12), (8, 400, 24)]


def probe_list(p: Params, subset: tuple[int, ...], t: int, nonmembers: int | None):
    if nonmembers is None:
        return list(range(p.universe_size))
    return list(subset) + _draw_nonmembers(11, t, nonmembers, p.universe_size, frozenset(subset))


def reference(st, probes) -> dict[int, tuple]:
    p = st.params
    return {n: query(st, element_from_ordinal(p, n)) for n in probes}


def flip_targets(st, ref, count, t):
    """Bits to flip: all of them, or the bits read by a seeded sample of
    the probed elements (their A bit and their second-probe bit)."""
    tables = {"A": st.table_a, "B": st.table_b, "C": st.table_c}
    if count is None:
        return [(name, pos) for name, table in tables.items() for pos in range(table.nbits)]
    probes = sorted(ref)
    picks = [probes[(t * 7919 + 104729 * k) % len(probes)] for k in range(count // 2)]
    targets = []
    for n in picks:
        (_, a_pos, _), (second, pos, _) = ref[n][1]
        targets += [("A", a_pos), (second, pos)]
    return targets


@pytest.mark.parametrize("b,nonmembers,flips", KERNEL_CASES)
def test_kernel_agrees_with_query(b, nonmembers, flips, monkeypatch):
    # The verifier draws its non-members from the stream of probe_list's,
    # so the 10,000 it probes hold the `nonmembers` probed here.
    p = Params(b)
    for t in range(5):
        subset = draw_subset(3, t, t % 5, p.universe_size)
        st = build_from_ordinals(p, subset)
        probes = probe_list(p, subset, t, nonmembers)
        sample = None if nonmembers is None else (11, t)
        ref = reference(st, probes)
        base = yes_set(st) & set(probes)
        assert base == {n for n, (got, _) in ref.items() if got}
        assert base == set(subset)

        for name, pos in flip_targets(st, ref, flips, t):
            flip_bit(st, name, pos)
            try:
                flipped = yes_set(st) & set(probes)
                after = reference(st, probes)
                assert flipped == {n for n, (got, _) in after.items() if got}, (name, pos)
                if name != "A":
                    readers = {n for n, (_, trace) in ref.items() if trace[1][:2] == (name, pos)}
                    assert flipped ^ base == readers, (name, pos)
                with monkeypatch.context() as mp:
                    patch_fill(mp, b, lambda p, grouped, built: flip_bit(built, name, pos))
                    _, _, failures, total, _ = oracle._check_subsets(p, [(subset, sample)], 1 << 20)
                assert total == len(failures)
                assert {f.element for f in failures} & set(probes) == flipped ^ set(subset), (name, pos)
                for f in failures:
                    got, trace = query(st, element_from_ordinal(p, f.element))
                    assert f.trace == trace
                    assert f.got == got != f.expected
            finally:
                flip_bit(st, name, pos)


def flip_bit(st, name, pos):
    {"A": st.table_a, "B": st.table_b, "C": st.table_c}[name].flip(pos)


# sha256 over ",".join of the sorted draw, for trials 0..4 of seed 1 at b=8.
NONMEMBER_DIGESTS = [
    "69db974cd63cd963ad9526ad59831c37f8a486fbf6a17840594cfa2620b9b383",
    "a74d9f7a2b21022e6de16012492de4819c1586b6c15a6432bbd4fc5bbb826d81",
    "9de74ffd66d5e36f8fdd95998e5b3b788e686153e20ad3286686f62f6b0c6254",
    "9822e4b71d7b9ec9c1053782eca9591b791916de62a317e16751f5604b740ff0",
    "c1881d011dd734bab05555371eca20ddd7564b3704ac5a312a0be70651843c81",
]


@pytest.mark.parametrize("t", range(5))
def test_nonmember_draw_is_frozen(t):
    m = 8**6
    members = frozenset(draw_subset(1, t, 4, m))
    drawn = _draw_nonmembers(1, t, 10_000, m, members)
    assert len(drawn) == 10_000 and not members & set(drawn)
    digest = hashlib.sha256(",".join(map(str, drawn)).encode()).hexdigest()
    assert digest == NONMEMBER_DIGESTS[t]


# b -> (structures, sha256 over their concatenated serialized bytes).
BLOB_DIGESTS = {
    2: (40, "829fa5bb06171414ad50e7df163b61a94f3cdef5355ee3dc55d2d2cbf03e8887"),
    3: (40, "51e12ec616327a06bdddcd9b46395ba7aa52c7372a14589c587299854cfca083"),
    8: (20, "d08daa2cdfb0042a0a3fd4f3eee89724da5f525bc23052b151fe4477c7080d7a"),
    16: (5, "3da0f450dbd0800543ab4d533fea7084302d432b8f3acfa97bf15fd06fd2afb2"),
}


@pytest.mark.parametrize("b", sorted(BLOB_DIGESTS))
def test_serialized_bytes_are_frozen(b):
    p = Params(b)
    count, expected = BLOB_DIGESTS[b]
    h = hashlib.sha256()
    for t in range(count):
        h.update(serialize(build_from_ordinals(p, draw_subset(5, t, t % 5, p.universe_size))))
    assert h.hexdigest() == expected


# Failure evidence of deliberately broken builds: sha256 over
# repr((failures_total, [(subset, element, expected, got, trace), ...])).
# Recorded from the element-by-element sweep kernel, so they pin that
# verification reports the same wrong answers, in the same order, with
# the same probe traces.


def evidence_digest(report) -> str:
    evidence = (
        report.failures_total,
        [(f.subset, f.element, f.expected, f.got, f.trace) for f in report.failures],
    )
    return hashlib.sha256(repr(evidence).encode()).hexdigest()


def patch_fill(monkeypatch, b, edit):
    """Run edit(p, grouped, st) on the tables of every subset the verifier
    fills at b, before they are checked, in the one home it fills them
    from: the ints of `oracle._routing_bits` up to INVERSE_TABLE_MAX_B,
    edited as a `Structure` of the same bits, else the `Structure` of
    `oracle._fill_tables`."""
    if b <= INVERSE_TABLE_MAX_B:
        home, inner = "_routing_bits", oracle._routing_bits

        def patched(p, grouped, asg):
            st = _structure_of_bits(p, *inner(p, grouped, asg))
            edit(p, grouped, st)
            return tuple(int.from_bytes(t.data, "little") for t in (st.table_a, st.table_b, st.table_c))

    else:
        home, inner = "_fill_tables", oracle._fill_tables

        def patched(p, grouped, asg):
            st = inner(p, grouped, asg)
            edit(p, grouped, st)
            return st

    monkeypatch.setattr(oracle, home, patched)


def set_extra_bits(p, grouped, st):
    """One extra B bit and one extra C bit, at positions derived from the
    stored blocks (so any order of calls and any worker count sets the same
    bits)."""
    key = 1 + sum(
        (s * 7 + x * 13 + y * 17) * (1 + sum(idx)) for (s, x, y), idx in grouped.items()
    )
    for table, mult in ((st.table_b, 2654435761), (st.table_c, 40503)):
        pos = key * mult % table.nbits
        table.data[pos >> 3] |= 1 << (pos & 7)


# b -> (trials, failures_total, evidence digest); seed 1, failure cap 10,000.
EXTRA_BIT_EVIDENCE = {
    3: (200, 668, "9618e0767240f76ae6b84c5a8ea1ecc50c32354537302ad291f55ebb672fa74f"),
    5: (40, 195, "768480ddbb948d1af5219215cedf48c06bdc8dfd67157df362ace32af6a6bd53"),
    8: (40, 21, "c7a3422030989ecd859776b499cdf59543afecfae16009360f526fd6989e119a"),
}


@pytest.mark.parametrize("b", sorted(EXTRA_BIT_EVIDENCE))
def test_extra_bit_failures_are_frozen(b, monkeypatch):
    patch_fill(monkeypatch, b, set_extra_bits)
    trials, total, digest = EXTRA_BIT_EVIDENCE[b]
    report = verify_random(b, trials, seed=1, failure_cap=10_000)
    assert (report.failures_total, evidence_digest(report)) == (total, digest)


def routing_valid_without_rule_4(p, non_empty, to_b, to_c):
    """`scheme._routing_valid` with rule 4 (no doubly blocked empty block)
    removed."""
    lines_b = [(blk.s, blk.x - blk.s * blk.y) for blk in to_b]
    coords_c = [(blk.x, blk.y) for blk in to_c]
    return len(set(lines_b)) == len(lines_b) and len(set(coords_c)) == len(coords_c)


def test_rule_4_failures_are_frozen(monkeypatch):
    monkeypatch.setattr(scheme, "_routing_valid", routing_valid_without_rule_4)
    report = verify_exhaustive(2, max_n=3, jobs=2, failure_cap=10_000)
    assert (report.failures_total, evidence_digest(report)) == (
        208,
        "363ce92f5abeb9a2f013c722d1dd0f848669f13d8b569601bc3643157ffad901",
    )


def test_flip_audit_is_frozen():
    r = audit_bit_flips(3, 3, 0)
    key = (r.b, r.structures, r.flips, r.detected, r.harmless, r.harmless_examples)
    assert (r.flips, r.harmless) == (2133, 1385)
    assert (
        hashlib.sha256(repr(key).encode()).hexdigest()
        == "c354c5c2f3f82fd3e7a7db597887a9904fa3f63339fc7f95946819d5620ad25f"
    )


# Reports of clean runs: sha256 over repr of every deterministic field
# (all but `elapsed`), so the counts, the case histogram and the absence of
# failures are pinned at fixed seeds for one and two workers.
def report_digest(r) -> str:
    key = (
        r.b,
        r.subsets_checked,
        r.queries_checked,
        r.failures,
        r.failures_total,
        r.case_histogram,
        r.trace_violations,
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()


# (b, trials) -> digest of verify_random(b, trials, seed=1).
CLEAN_RANDOM_DIGESTS = {
    (2, 2000): "f0b8f7b3081f82edeffc00d8887533c9f44faae8733b182aa879efc869d21416",
    (3, 300): "4355a1f4b87dd18d84a873886c4770d8be9fe1e30f35929c91b23ee2eb4d63a2",
    (8, 200): "0501b38f0cf023d5b84cf3cf813015659f75d2d57bc6833e4d90be126a187b79",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("b,trials", sorted(CLEAN_RANDOM_DIGESTS))
def test_clean_random_reports_are_frozen(b, trials, jobs):
    report = verify_random(b, trials, seed=1, jobs=jobs)
    assert report.failures_total == 0
    assert report_digest(report) == CLEAN_RANDOM_DIGESTS[b, trials]


def test_clean_exhaustive_report_is_frozen():
    report = verify_exhaustive(2, max_n=3)
    assert (report.subsets_checked, report.queries_checked, report.failures_total) == (
        43_745,
        2_799_680,
        0,
    )
    assert (
        report_digest(report)
        == "3318c313829ad765c348f513fbafbe43bb9eb651cc94dd448061a065f54c5359"
    )
