"""Brute-force verification against ground truth, plus space accounting.

Ground truth is a direct membership test on the stored subset; the scheme
side is `yes_set`, the elements a structure answers YES for, listed by
inverting the probe map of each 1 bit of B and C (`_yes_bits` on ints, up to
INVERSE_TABLE_MAX_B).  They meet in one place, `_check_subsets`: the wrong
answers are their symmetric difference, and only those are traced with
`query`.  Exhaustive verification enumerates every subset up to the size cap
and checks every universe element; randomized verification draws seeded
subsets from a splitmix64 stream, so identical seeds reproduce identical
reports on any platform.  Above b = 4 it probes the members plus a seeded
non-member sample, drawn only if a non-member answers YES, as only then can
it change the report.  Subset checks are independent and can be spread over
worker processes; partial results merge in enumeration order under one
failure cap, so the report does not depend on the worker count.
"""

from __future__ import annotations

import math
# Not lazy: that adds ~10 ms to a process's first jobs > 1 call (~20 ms at b=8).
import multiprocessing
import os
import time
from itertools import chain, combinations, islice
from typing import Iterable, NamedTuple, Sequence

from .geometry import Params, _new, cached_params, element_from_ordinal
from .scheme import (
    CaseLabel,
    MAX_MEMBERS,
    ProbeTrace,
    _fill_tables,
    _group_ordinals,
    _routing_bits,
    _structure_of_bits,
    assign_blocks,
    build_from_ordinals,
    classify,
    query,
)
from .tables import Structure, checked_table_sizes

# Full-universe checking is the default up to this b; above it, random
# verification probes the members plus a seeded non-member sample.
FULL_CHECK_MAX_B = 4
NONMEMBER_PROBES = 10_000

# Refuse exhaustive runs estimated above this many probes unless overridden.
DEFAULT_MAX_QUERIES = 1 << 31

# At most this many harmless flips are kept as examples in a flip audit.
FLIP_EXAMPLE_CAP = 64

_CASE_ORDER = tuple(CaseLabel)
_CASE_INDEX = {label: k for k, label in enumerate(_CASE_ORDER)}


class FeasibilityError(ValueError):
    """Requested exhaustive enumeration is too large to run."""


class Failure(NamedTuple):
    """One wrong answer: the subset, the element, and the probe evidence."""

    subset: tuple[int, ...]
    element: int
    expected: bool
    got: bool
    trace: ProbeTrace


class VerifyReport(NamedTuple):
    """Outcome of a verification run."""

    b: int
    subsets_checked: int
    queries_checked: int
    failures: list[Failure]
    failures_total: int
    case_histogram: dict[CaseLabel, int]
    trace_violations: int = 0
    elapsed: float = 0.0

    @property
    def verdict(self) -> str:
        return "PASS" if self.failures_total == 0 else "FAIL"

    def to_text(self) -> str:
        lines = [
            f"b={self.b} subsets={self.subsets_checked} "
            f"queries={self.queries_checked} failures={self.failures_total} "
            f"trace_violations={self.trace_violations} "
            f"seconds={self.elapsed:.2f}",
            f"verdict: {self.verdict}",
            "case histogram:",
        ]
        for label in _CASE_ORDER:
            lines.append(f"  {label.value}: {self.case_histogram.get(label, 0)}")
        for f in self.failures:
            lines.append(
                f"  FAIL subset={f.subset} element={f.element} "
                f"expected={f.expected} got={f.got} trace={f.trace}"
            )
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = [
            "b,subsets,queries,failures,seconds",
            f"{self.b},{self.subsets_checked},{self.queries_checked},"
            f"{self.failures_total},{self.elapsed:.3f}",
            "label,count",
        ]
        for label in _CASE_ORDER:
            rows.append(f"{label.value},{self.case_histogram.get(label, 0)}")
        return "\n".join(rows)


def yes_set(st: Structure) -> set[int]:
    """Every ordinal the structure answers YES for, in O(bytes + ones * b**2):
    one inversion (`c_blocks`) per 1 bit of C and one walk of a line per 1
    bit of B.

    A 1 bit of C at c is read by the elements (s - 1)*b**5 + c whose A bit
    is 1; a 1 bit of B at pos = line*b + i is read by index i of each block
    on the line with B line ordinal pos // b whose A bit is 0
    (`geometry.Params` inverts both).  A slot holds two 1 bits only when two
    members share a B-routed block, so the walk is not shared between the
    bits of one slot.  Up to INVERSE_TABLE_MAX_B the tables are read once
    as ints and walked by `_yes_bits`; above it, `line_blocks` walks each B
    bit's line and A is read a byte per block.
    """
    p = st.params
    b = p.b
    yes: set[int] = set()
    inverses = p._inverses
    if inverses is None:
        ta = st.table_a.data
        for c in st.table_c.ones():
            blocks, i = p.c_blocks(c)
            for a in blocks:
                if ta[a >> 3] >> (a & 7) & 1:
                    yes.add(a * b + i)
        for pos in st.table_b.ones():
            i = pos % b
            for a in p.line_blocks(pos // b):
                if not ta[a >> 3] >> (a & 7) & 1:
                    yes.add(a * b + i)
        return yes
    _, nb, nc = p.table_sizes
    ta = int.from_bytes(st.table_a.data, "little")
    # Bits past |B| and |C| are the last byte's padding, never read.
    tb = int.from_bytes(st.table_b.data, "little") & (1 << nb) - 1
    tc = int.from_bytes(st.table_c.data, "little") & (1 << nc) - 1
    return _yes_bits(p, ta, tb, tc)


def _yes_bits(p: Params, ta: int, tb: int, tc: int) -> set[int]:
    """`yes_set` of tables given as ints, up to INVERSE_TABLE_MAX_B: the blocks
    reading a 1 bit are one AND of A with a mask of `Params._inverses`."""
    b, (masks, column, _) = p.b, p._inverses
    yes: set[int] = set()
    add = yes.add
    while tc:
        low = tc & -tc
        tc ^= low
        c = low.bit_length() - 1
        hits, i = column << c // b & ta, c % b
        while hits:
            low = hits & -hits
            hits ^= low
            add((low.bit_length() - 1) * b + i)
    free = ~ta
    while tb:
        low = tb & -tb
        tb ^= low
        pos = low.bit_length() - 1
        hits, i = masks[pos // b] & free, pos % b
        while hits:
            low = hits & -hits
            hits ^= low
            add((low.bit_length() - 1) * b + i)
    return yes


# ---------------------------------------------------------------------------
# Deterministic random streams (splitmix64).

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_NONMEMBER_SALT = 0xA5A5A5A5A5A5A5A5
_FLIP_SALT = 0x0F0F0F0F0F0F0F0F


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def draw_subset(seed: int, trial: int, n: int, m: int) -> tuple[int, ...]:
    """The trial-th seeded uniform n-subset of [0, m), sorted; ValueError
    unless 1 <= m <= 2**64 and n <= m."""
    return tuple(sorted(_draw_distinct(seed, trial, 0, n, m, ())))


def _draw_nonmembers(seed: int, trial: int, count: int, m: int, members: frozenset[int]) -> list[int]:
    """`count` distinct seeded non-members of [0, m), sorted."""
    return sorted(_draw_distinct(seed, trial, _NONMEMBER_SALT, count, m, members))


def _draw_distinct(seed: int, trial: int, salt: int, count: int, m: int, exclude) -> set[int]:
    """`count` distinct values of [0, m) outside `exclude`, drawn without bias
    (by rejection) from one trial's splitmix64 stream, seeded with
    _mix64((seed + trial*_GOLDEN) ^ salt) and inlined into the loop.
    `exclude` holds values of [0, m).  ValueError, before anything is drawn,
    unless 1 <= m <= 2**64 and `count` values lie outside `exclude`: above
    2**64 the rejection limit is 0, and a draw of more values than are free
    never ends."""
    if not 0 < m <= 1 << 64:
        raise ValueError(f"draws need a range [0, m) with 1 <= m <= 2**64, got m={m}")
    if count > (free := m - len(exclude)):
        raise ValueError(f"cannot draw {count} distinct values from the {free} of [0, {m}) not excluded")
    state = _mix64(((seed + trial * _GOLDEN) ^ salt) & _MASK64)
    limit = (1 << 64) - (1 << 64) % m
    chosen: set[int] = set()
    add = chosen.add
    while len(chosen) < count:
        state = (state + _GOLDEN) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        if z < limit:
            z %= m
            if z not in exclude:
                add(z)
    return chosen


# ---------------------------------------------------------------------------
# Verification drivers.


def _merge(b: int, partials: list[tuple], cap: int, elapsed: float) -> VerifyReport:
    """Sum the partial reports of `_check_subsets` in order, keeping the
    first `cap` failures (each partial keeps at most `cap`)."""
    subsets, queries, failures, total, hist = partials[0]
    for s, q, f, t, h in partials[1:]:
        subsets, queries, total = subsets + s, queries + q, total + t
        failures = failures + f[: cap - len(failures)]
        hist = [x + y for x, y in zip(hist, h)]
    histogram = dict(zip(_CASE_ORDER, hist))
    return _new(VerifyReport, (b, subsets, queries, failures, total, histogram, 0, elapsed))


def _check_subsets(p: Params, cases: Iterable[tuple], cap: int) -> tuple:
    """Build, classify and check each (subset, sample) case in one pass.  A
    subset's wrong answers are its YES set ^ its members.  sample=None
    probes the universe, so each fails, in ascending order; (seed, trial)
    probes the members, then that trial's NONMEMBER_PROBES non-members,
    drawn only if one answers YES, and each probe answered wrong fails, in
    probe order.  All failures are counted, and those within what is left
    of `cap` are traced with `query`; up to INVERSE_TABLE_MAX_B the tables
    stay ints until then, when they become a `Structure`.  Returns one
    partial for `_merge`."""
    hist = [0] * len(_CASE_ORDER)
    failures: list[Failure] = []
    subsets = queries = failures_total = 0
    m = p.universe_size
    small = p._inverses is not None
    for combo, sample in cases:
        grouped = _group_ordinals(p, combo)
        hist[_CASE_INDEX[classify(p, grouped)]] += 1
        if small:
            bits = _routing_bits(p, grouped, assign_blocks(p, grouped))
            yes = _yes_bits(p, *bits)
        else:
            yes = yes_set(st := _fill_tables(p, grouped, assign_blocks(p, grouped)))
        subsets += 1
        queries += m if sample is None else len(combo) + NONMEMBER_PROBES
        if wrong := yes.symmetric_difference(combo):
            if sample is None:
                hits = sorted(wrong)
            else:
                probes = combo
                if not wrong.issubset(combo):  # a non-member answers YES
                    probes = [*combo, *_draw_nonmembers(*sample, NONMEMBER_PROBES, m, frozenset(combo))]
                hits = [n for n in probes if n in wrong]
            failures_total += len(hits)
            if traced := hits[: cap - len(failures)]:
                st = _structure_of_bits(p, *bits) if small else st  # the same bits: filled once
                for n in traced:
                    trace = query(st, element_from_ordinal(p, n))[1]
                    failures.append(Failure(combo, n, n in combo, n not in combo, trace))
    return subsets, queries, failures, failures_total, hist


def _exhaustive_chunk(task: tuple[Params, int, int, int, int]) -> tuple:
    p, max_n, lo, hi, cap = task
    # Size 0 is not left to `combinations`, which copies its pool, all b**6
    # ordinals, even for the empty subset.
    sizes = (combinations(range(p.universe_size), k) if k else [()] for k in range(max_n + 1))
    combos = islice(chain.from_iterable(sizes), lo, hi)
    return _check_subsets(p, ((combo, None) for combo in combos), cap)


def _random_chunk(task: tuple[Params, int, int, int, int, int]) -> tuple:
    p, n, seed, lo, hi, cap = task
    m = p.universe_size
    sampled = p.b > FULL_CHECK_MAX_B
    cases = ((draw_subset(seed, t, n, m), (seed, t) if sampled else None) for t in range(lo, hi))
    return _check_subsets(p, cases, cap)


def _run_tasks(worker, tasks: list, jobs: int) -> list:
    """Map worker over tasks on at most min(jobs, tasks, CPUs) processes."""
    if jobs > 1 and (jobs := min(jobs, len(tasks), os.cpu_count() or 1)) > 1:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        with ctx.Pool(jobs) as pool:
            return pool.map(worker, tasks)
    return list(map(worker, tasks))


def _verify(p: Params, worker, head: tuple, total: int, jobs: int, cap: int) -> VerifyReport:
    """Check subsets 0..total-1 of one source: worker maps a task
    (p, *head, lo, hi, cap) to the partial report of subsets lo..hi-1.
    At jobs=1 the run is one task, since chunks only feed a worker pool;
    otherwise about eight tasks per worker, of at least 100 subsets."""
    if cap < 1:
        raise ValueError("failure_cap must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    checked_table_sizes(p)  # before anything is drawn, enumerated or forked
    chunk = total if jobs == 1 else max(100, total // (jobs * 8) + 1)
    tasks = [(p, *head, lo, min(lo + chunk, total), cap) for lo in range(0, total, chunk)]
    start = time.perf_counter()
    partials = _run_tasks(worker, tasks, jobs)
    return _merge(p.b, partials, cap, time.perf_counter() - start)


def verify_exhaustive(
    b: int,
    max_n: int = MAX_MEMBERS,
    *,
    jobs: int = 1,
    failure_cap: int = 32,
    max_queries: int = DEFAULT_MAX_QUERIES,
) -> VerifyReport:
    """Check every subset of size <= max_n against every universe element.

    Subsets are enumerated by size, then lexicographically by sorted
    ordinals.  Refuses runs whose estimated probe count exceeds max_queries;
    raise the limit explicitly to force a large run.
    """
    p = cached_params(b)
    if not 0 <= max_n <= MAX_MEMBERS:
        raise ValueError(f"max_n must be in [0, {MAX_MEMBERS}], got {max_n}")
    m = p.universe_size
    total_subsets = sum(math.comb(m, k) for k in range(max_n + 1))
    estimate = total_subsets * m
    if estimate > max_queries:
        raise FeasibilityError(
            f"exhaustive verification of b={b}, max_n={max_n} needs "
            f"{total_subsets} subsets x {m} queries = {estimate} probes, "
            f"over the limit of {max_queries}; pass a larger max_queries "
            f"to force it"
        )
    return _verify(p, _exhaustive_chunk, (max_n,), total_subsets, jobs, failure_cap)


def verify_random(
    b: int,
    trials: int,
    seed: int,
    n: int = MAX_MEMBERS,
    *,
    jobs: int = 1,
    failure_cap: int = 32,
) -> VerifyReport:
    """Check seeded uniform n-subsets; same seed gives the same report.

    For b <= FULL_CHECK_MAX_B every universe element is checked per
    subset; for larger b the members plus NONMEMBER_PROBES seeded
    non-members.  Of the failures, the first `failure_cap` are traced.
    """
    p = cached_params(b)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= n <= MAX_MEMBERS:
        raise ValueError(f"n must be in [0, {MAX_MEMBERS}], got {n}")
    return _verify(p, _random_chunk, (n, seed), trials, jobs, failure_cap)


# ---------------------------------------------------------------------------
# Space accounting.


class SpaceRow(NamedTuple):
    b: int
    a_bits: int
    b_bits: int
    c_bits: int
    total_bits: int
    ratio: float


def space_audit(b_values: Iterable[int]) -> list[SpaceRow]:
    """Exact table sizes and the total/b**5 ratio for each b."""
    rows = []
    for b in b_values:
        p = Params(b)
        a, bb, c = p.table_sizes
        total = a + bb + c
        rows.append(SpaceRow(b, a, bb, c, total, total / p.num_blocks))
    return rows


# ---------------------------------------------------------------------------
# Fault injection.


class FlipOutcome(NamedTuple):
    structure_index: int
    subset: tuple[int, ...]
    table: str
    position: int
    detected: bool


class FlipAuditReport(NamedTuple):
    """Single-bit fault sensitivity of seeded built structures.

    Every flip is checked against all universe elements, so an undetected
    flip is proven harmless: no query answer changes at all.  Such flips
    are reported in `harmless`, never silently passed.
    """

    b: int
    structures: int
    flips: int
    detected: int
    harmless: int
    harmless_examples: Sequence[FlipOutcome] = ()
    elapsed: float = 0.0

    @property
    def detection_rate(self) -> float:
        changing = self.flips - self.harmless
        return 1.0 if changing == 0 else self.detected / changing


def audit_bit_flips(
    b: int,
    structures: int = 100,
    seed: int = 0,
) -> FlipAuditReport:
    """Flip every bit of seeded built structures and test detectability.

    Structure t stores a seeded subset whose size cycles through 0..4.
    Each single-bit flip either changes some query answer (detected) or is
    proven harmless by the full sweep.
    """
    p = cached_params(b)
    if structures < 1:
        raise ValueError(f"structures must be >= 1, got {structures}")
    checked_table_sizes(p)  # before the first draw
    m = p.universe_size
    flips = detected = 0
    examples: list[FlipOutcome] = []
    start = time.perf_counter()
    for t in range(structures):
        (k,) = _draw_distinct(seed, t, _FLIP_SALT, 1, MAX_MEMBERS + 1, ())
        subset = draw_subset(seed, t, k, m)
        st = build_from_ordinals(p, subset)
        mem = frozenset(subset)
        flips += st.total_bits()
        for name, table in (("A", st.table_a), ("B", st.table_b), ("C", st.table_c)):
            for pos in range(table.nbits):
                table.flip(pos)
                changed = yes_set(st) != mem
                table.flip(pos)
                if changed:
                    detected += 1
                elif len(examples) < FLIP_EXAMPLE_CAP:
                    examples.append(FlipOutcome(t, subset, name, pos, False))
    elapsed = time.perf_counter() - start
    return FlipAuditReport(b, structures, flips, detected, flips - detected, examples, elapsed)
