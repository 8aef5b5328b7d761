"""Brute-force verification against ground truth, plus space accounting.

Ground truth is always a direct membership test on the stored subset; the
scheme side is `yes_set`, the elements a structure answers YES for, listed
by inverting the probe map of each 1 bit of B and C.  Exhaustive
verification enumerates every subset up to the size cap and checks every
universe element; randomized verification draws seeded subsets from a
splitmix64 stream, so identical seeds reproduce identical reports on any
platform.  Above b = 4 it probes the members plus a seeded non-member
sample, drawn only when some non-member is answered YES (otherwise the
sample cannot change the report).  Subset checks are independent and can
be spread over worker processes; partial results merge in enumeration
order, so the report does not depend on the worker count.
"""

from __future__ import annotations

import math
# Not lazy: that adds ~10 ms to a process's first jobs > 1 call (~20 ms at b=8).
import multiprocessing
import os
import time
from itertools import combinations, islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .geometry import Params, _new, cached_params, element_from_ordinal
from .scheme import (
    CaseLabel,
    MAX_MEMBERS,
    ProbeTrace,
    _assign_sorted,
    _classify_sorted,
    _fill_tables,
    _group_ordinals,
    build_from_ordinals,
    query,
)
from .tables import Structure

# Full-universe checking is the default up to this b; above it, random
# verification probes the members plus a seeded non-member sample.
FULL_CHECK_MAX_B = 4
NONMEMBER_PROBES = 10_000

# Refuse exhaustive runs estimated above this many probes unless overridden.
DEFAULT_MAX_QUERIES = 1 << 31

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


class CheckResult(NamedTuple):
    queries: int
    failures: list[Failure]
    failures_total: int
    trace_violations: int


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
    one `c_blocks` per 1 bit of C, one `b_line` and one walk of its line
    per 1 bit of B.

    A 1 bit of C at c is read by the elements (s - 1)*b**5 + c whose A bit
    is 1; a 1 bit of B at index i of a line's slot is read by index i of
    each block on that line whose A bit is 0 (`geometry.Params` inverts
    both).  A slot holds two 1 bits only when two members share a B-routed
    block, so the walk is not shared between the bits of one slot.
    """
    p = st.params
    b = p.b
    ta = st.table_a.data
    yes: set[int] = set()
    for c in st.table_c.ones():
        blocks, i = p.c_blocks(c)
        for a in blocks:
            if ta[a >> 3] >> (a & 7) & 1:
                yes.add(a * b + i)
    for pos in st.table_b.ones():
        s, anchor, i = p.b_line(pos)
        for a in p.line_blocks(s, anchor):
            if not ta[a >> 3] >> (a & 7) & 1:
                yes.add(a * b + i)
    return yes


class _Sample:
    """Probes of one sampled trial, all in range: the members, then
    NONMEMBER_PROBES seeded non-members, drawn only when iterated."""

    def __init__(self, members: tuple[int, ...], seed: int, trial: int, m: int):
        self.members, self.seed, self.trial, self.m = members, seed, trial, m

    def __len__(self) -> int:
        return len(self.members) + NONMEMBER_PROBES

    def __iter__(self) -> Iterator[int]:
        yield from self.members
        yield from _draw_nonmembers(
            self.seed, self.trial, NONMEMBER_PROBES, self.m, frozenset(self.members)
        )


def check_membership(
    st: Structure,
    members: Iterable[int],
    probes: Sequence[int] | None = None,
    cap: int | None = 32,
) -> CheckResult:
    """Answer each probe with the two-probe rule and compare with membership.

    `members` and `probes` are flat ordinals, and one outside [0, b**6)
    raises ValueError; probes=None checks the whole universe in ascending
    order, a probe sequence is checked in its order, duplicates included.
    The wrong answers are `yes_set(st) ^ members`, so probes cost one set
    lookup each, and nothing when no answer is wrong.  They are recorded up
    to `cap` with `scheme.query`'s trace as evidence.  Every answer reads
    one A bit, then one B or C bit, so `trace_violations` is 0 by
    construction.
    """
    p = st.params
    m = p.universe_size
    mem = frozenset(members)
    if mem and not (0 <= min(mem) and max(mem) < m):
        raise ValueError(f"member ordinals must lie in [0, {m})")
    wrong = yes_set(st) ^ mem
    if probes is None:
        queries = m
        hits: Iterable[int] = sorted(wrong)
    else:
        queries = len(probes)
        if isinstance(probes, _Sample):
            if wrong <= mem:  # the drawn non-members cannot fail
                probes = probes.members
        elif probes and not (0 <= min(probes) and max(probes) < m):
            raise ValueError(f"probe ordinals must lie in [0, {m})")
        hits = filter(wrong.__contains__, probes) if wrong else ()
    subset_key = tuple(sorted(mem))
    failures: list[Failure] = []
    total = 0
    for n in hits:
        total += 1
        if cap is None or len(failures) < cap:
            trace = query(st, element_from_ordinal(p, n))[1]
            failures.append(Failure(subset_key, n, n in mem, n not in mem, trace))
    return CheckResult(queries, failures, total, 0)


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
    """The trial-th seeded uniform n-subset of [0, m), sorted."""
    return tuple(sorted(_draw_distinct(seed, trial, 0, n, m, ())))


def _draw_nonmembers(seed: int, trial: int, count: int, m: int, members: frozenset[int]) -> list[int]:
    """`count` distinct seeded non-members of [0, m), sorted."""
    return sorted(_draw_distinct(seed, trial, _NONMEMBER_SALT, count, m, members))


def _draw_distinct(seed: int, trial: int, salt: int, count: int, m: int, exclude) -> set[int]:
    """`count` distinct values of [0, m) outside `exclude`, drawn without bias
    (by rejection) from one trial's splitmix64 stream, seeded with
    _mix64((seed + trial*_GOLDEN) ^ salt) and inlined into the loop."""
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
    """Build, classify and check each (subset, probes) case in one pass, its
    blocks sorted once; probes=None checks the whole universe.  Only a YES set
    that is not the members goes to `check_membership`.  Returns one partial
    report for `_merge`."""
    hist = [0] * len(_CASE_ORDER)
    failures: list[Failure] = []
    subsets = queries = failures_total = 0
    m = p.universe_size
    for combo, probes in cases:
        grouped = _group_ordinals(p, combo)
        blocks = sorted(grouped)
        hist[_CASE_INDEX[_classify_sorted(blocks)]] += 1
        st = _fill_tables(p, grouped, _assign_sorted(p, blocks))
        subsets += 1
        queries += m if probes is None else len(probes)
        if yes_set(st).symmetric_difference(combo):
            res = check_membership(st, combo, probes, cap)
            failures_total += res.failures_total
            failures.extend(res.failures[: max(0, cap - len(failures))])
    return subsets, queries, failures, failures_total, hist


def _exhaustive_chunk(task: tuple[Params, int, int, int, int]) -> tuple:
    p, k, lo, hi, cap = task
    combos = islice(combinations(range(p.universe_size), k), lo, hi)
    return _check_subsets(p, ((combo, None) for combo in combos), cap)


def _random_chunk(task: tuple[Params, int, int, int, int, int]) -> tuple:
    p, n, seed, lo, hi, cap = task
    m = p.universe_size
    full = p.b <= FULL_CHECK_MAX_B
    cases = ((c := draw_subset(seed, t, n, m), None if full else _Sample(c, seed, t, m))
             for t in range(lo, hi))
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
    if failure_cap < 1:
        raise ValueError("failure_cap must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
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
    # Chunks exist only to feed a pool: at jobs=1 each size k is one task.
    chunk = total_subsets if jobs == 1 else max(1000, total_subsets // (jobs * 8) + 1)
    tasks = []
    for k in range(max_n + 1):
        count = math.comb(m, k)
        for lo in range(0, count, chunk):
            tasks.append((p, k, lo, min(lo + chunk, count), failure_cap))
    start = time.perf_counter()
    partials = _run_tasks(_exhaustive_chunk, tasks, jobs)
    return _merge(b, partials, failure_cap, time.perf_counter() - start)


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

    For b <= 4 every universe element is checked per subset; for larger b
    the members plus 10,000 seeded non-members are checked.
    """
    p = cached_params(b)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= n <= MAX_MEMBERS:
        raise ValueError(f"n must be in [0, {MAX_MEMBERS}], got {n}")
    if n > p.universe_size:
        raise ValueError(f"n={n} exceeds universe size {p.universe_size}")
    if failure_cap < 1:
        raise ValueError("failure_cap must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # Chunks exist only to feed a pool: at jobs=1 the run is one task.
    chunk = trials if jobs == 1 else max(100, trials // (jobs * 8) + 1)
    tasks = [
        (p, n, seed, lo, min(lo + chunk, trials), failure_cap)
        for lo in range(0, trials, chunk)
    ]
    start = time.perf_counter()
    partials = _run_tasks(_random_chunk, tasks, jobs)
    return _merge(b, partials, failure_cap, time.perf_counter() - start)


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
    *,
    example_cap: int = 64,
) -> FlipAuditReport:
    """Flip every bit of seeded built structures and test detectability.

    Structure t stores a seeded subset whose size cycles through 0..4.
    Each single-bit flip either changes some query answer (detected) or is
    proven harmless by the full sweep.
    """
    p = cached_params(b)
    if structures < 1:
        raise ValueError(f"structures must be >= 1, got {structures}")
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
                elif len(examples) < example_cap:
                    examples.append(FlipOutcome(t, subset, name, pos, False))
    elapsed = time.perf_counter() - start
    return FlipAuditReport(b, structures, flips, detected, flips - detected, examples, elapsed)
