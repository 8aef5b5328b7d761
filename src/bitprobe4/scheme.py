"""Storage and query schemes for subsets of size at most four.

Storing a subset means routing every block either to table B (its line's
slot) or to table C (its coordinate's slot) and recording the routing in
table A.  A routing of the non-empty blocks is valid when

  1. every non-empty block goes to exactly one of B and C,
  2. no two B-routed blocks share a line (their line slots would collide),
  3. no two C-routed blocks share grid coordinates (their coordinate slots
     would collide),
  4. no empty block is blocked out of both tables: an empty block sharing a
     line with a B-routed block cannot use B, and one sharing coordinates
     with a C-routed block cannot use C, so it must have the other table
     free.

With at most four non-empty blocks a valid routing always exists (the case
analysis behind `classify` is the existence argument); `assign_blocks` finds
the first one in a fixed candidate order, so builds are deterministic.
Empty blocks default to table B and are re-routed to C only when rule 4's
line conflict forces them out.

A query for (s, x, y, i) reads the block's A bit, then either B(line, i) or
C(x, y, i); the second bit read is the answer.  Every query reads exactly
two bits, the first always from table A.
"""

from __future__ import annotations

from enum import Enum
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .geometry import BlockAddr, ElementAddr, Params
from .geometry import _new, element_from_ordinal, element_to_ordinal, validate_element
from .tables import BitTable, Structure, checked_table_sizes

MAX_MEMBERS = 4

# A probe trace is a pair of (table name, bit position, bit value) triples;
# the first entry is always ("A", pos, bit).
ProbeRecord = tuple[str, int, int]
ProbeTrace = tuple[ProbeRecord, ProbeRecord]

_BOOL = (False, True)  # a bit's answer by indexing, cheaper than `bool()`


class CapacityError(ValueError):
    """Raised when a subset has more than MAX_MEMBERS distinct elements."""


class AssignmentError(RuntimeError):
    """No valid block routing exists; unreachable for <= 4 blocks."""


class Assignment(NamedTuple):
    """A routing of the non-empty blocks: which table stores each."""

    placed_b: frozenset[BlockAddr]
    placed_c: frozenset[BlockAddr]


class CaseLabel(Enum):
    """Diagnostic label for a four-block configuration.

    Labels follow the number of distinct lines through the non-empty blocks
    (4, 1, 2, 3 for I, II, III, IV) and, within a line count, the pattern of
    coinciding grid coordinates.
    """

    I = "I"
    II = "II"
    IIIA = "IIIA"
    IIIB = "IIIB"
    IVA = "IVA"
    IVB = "IVB"
    IVC_i = "IVC_i"
    IVC_ii = "IVC_ii"
    IVD = "IVD"
    FEWER_THAN_4_BLOCKS = "FEWER_THAN_4_BLOCKS"

    # Singletons compared by identity; Enum's __hash__ hashes the name in Python.
    __hash__ = object.__hash__


def _group_ordinals(p: Params, ordinals: Sequence[int]) -> dict[BlockAddr, set[int]]:
    """Group flat ordinals by block, deduplicating them: the one home of
    grouping.  Raises ValueError for an ordinal outside [0, b**6), then
    CapacityError when more than MAX_MEMBERS distinct ordinals remain.  Up
    to INVERSE_TABLE_MAX_B ordinal n is element n % b of block `blocks[n // b]`
    in `Params._inverses`, shared by every subset; above it, n is decoded by
    `element_from_ordinal`, which builds that table too."""
    b, m = p.b, p.universe_size
    if ordinals and not (0 <= min(ordinals) and max(ordinals) < m):
        n = next(n for n in ordinals if not 0 <= n < m)
        raise ValueError(f"ordinal {n} out of range [0, {m})")
    distinct = set(ordinals)
    if len(distinct) > MAX_MEMBERS:
        raise CapacityError(f"subset has more than {MAX_MEMBERS} distinct elements")
    grouped: dict[BlockAddr, set[int]] = {}
    inverses = p._inverses
    if inverses is not None:
        blocks = inverses.blocks
        for n in distinct:
            if (blk := blocks[n // b]) in grouped:
                grouped[blk].add(n % b)
            else:
                grouped[blk] = {n % b}
        return grouped
    for n in distinct:
        blk, i = element_from_ordinal(p, n)
        grouped.setdefault(blk, set()).add(i)
    return grouped


def _routing_valid(
    p: Params,
    non_empty: frozenset[BlockAddr],
    to_b: list[BlockAddr],
    to_c: list[BlockAddr],
) -> bool:
    """Check rules 2 to 4 of a candidate routing (1 holds by shape); all-B stops at 2."""
    zero = p.line_zero
    lines_b = [zero[s - 1] + x - s * y for s, x, y in to_b]  # `Params.line`, inlined
    if not (distinct := len(set(lines_b)) == len(lines_b)) or not to_c:
        return distinct  # rule 2 broken, or no C-routed block for rules 3 and 4
    coords_c = [(x, y) for _, x, y in to_c]
    if len(set(coords_c)) != len(coords_c):
        return False
    # Rule 4: a doubly blocked empty block would sit at a C-routed block's
    # coordinates, inside a B-routed block's superblock, on that block's
    # line.  Enumerate those (few) candidates instead of all empty blocks.
    for (s, _, _), line in zip(to_b, lines_b):
        for x, y in coords_c:
            if p.line(s, x, y) == line and BlockAddr(s, x, y) not in non_empty:
                return False
    return True


def _splits(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(B indices, C indices) of candidates k = 1, ..., 2**n - 1 of n blocks."""
    for k in range(1, 1 << n):
        yield tuple(j for j in range(n) if not k >> j & 1), tuple(j for j in range(n) if k >> j & 1)


_SPLITS = [tuple(_splits(n)) for n in range(MAX_MEMBERS + 2)]  # 5 blocks still try all 32


def assign_blocks(p: Params, non_empty: Iterable[BlockAddr]) -> Assignment:
    """Route each non-empty block to table B or C, deterministically.

    `non_empty` holds distinct blocks, at most MAX_MEMBERS of them, as
    `_group_ordinals` yields them; they are not checked again.  Blocks are
    sorted by (s, x, y); masks k = 0, 1, 2, ... (bit j of k sends block j to
    table C, as split by `_SPLITS`) go through `_routing_valid` in order.
    The first valid routing wins, so equal block sets always produce equal
    assignments regardless of member counts or the order of `non_empty`.
    """
    blocks = sorted(non_empty)
    n = len(blocks)
    block_set = frozenset(blocks)
    if _routing_valid(p, block_set, blocks, []):  # k = 0: all blocks to B
        return _new(Assignment, (block_set, frozenset()))
    for bi, ci in _SPLITS[n] if n < len(_SPLITS) else _splits(n):
        to_b = [blocks[j] for j in bi]
        to_c = [blocks[j] for j in ci]
        if _routing_valid(p, block_set, to_b, to_c):
            return _new(Assignment, (frozenset(to_b), frozenset(to_c)))
    raise AssignmentError(
        f"no valid routing for blocks {blocks}; this contradicts the scheme's "
        f"correctness guarantee for at most {MAX_MEMBERS} blocks"
    )


def _fill_tables(
    p: Params, grouped: Mapping[BlockAddr, set[int]], asg: Assignment
) -> Structure:
    """Set every bit implied by a routing of the grouped members, at the
    positions of `Params`.

    Empty blocks default to A=0 (table B); blocks on a B-routed block's
    line are B-blocked and flip to A=1 (table C).  The line's bits include
    the B-routed block itself, whose own bit is cleared next; no other
    B-routed block's line reaches it (rule 2).  Up to INVERSE_TABLE_MAX_B
    the tables are the ints of `_routing_bits`, made bytes once; above it,
    bits are written straight into the tables' bytes, a line walked
    through `line_blocks`.
    """
    inverses = p._inverses
    if inverses is None:
        st = Structure.empty(p)
        a, tb, tc = st.table_a.data, st.table_b.data, st.table_c.data
        for blk in asg.placed_b:
            line = p.line(*blk)
            for pos in p.line_blocks(line):
                a[pos >> 3] |= 1 << (pos & 7)
            pos = p.a_pos(*blk)
            a[pos >> 3] &= ~(1 << (pos & 7))
            for i in grouped[blk]:
                pos = line * p.b + i
                tb[pos >> 3] |= 1 << (pos & 7)
        for blk in asg.placed_c:
            s, x, y = blk
            pos = p.a_pos(s, x, y)
            a[pos >> 3] |= 1 << (pos & 7)
            for i in grouped[blk]:
                pos = p.c_pos(x, y, i)
                tc[pos >> 3] |= 1 << (pos & 7)
        return st
    return _structure_of_bits(p, *_routing_bits(p, grouped, asg))


def _routing_bits(
    p: Params, grouped: Mapping[BlockAddr, set[int]], asg: Assignment
) -> tuple[int, int, int]:
    """Tables A, B and C of a routing as ints, up to INVERSE_TABLE_MAX_B; the
    positions of `Params.line`, `a_pos` and `c_pos`, their home, inlined as in `query`."""
    b, g, zero, masks = p.b, p.grid_side, p.line_zero, p._inverses.line_masks
    a = tb = tc = 0
    for blk in asg.placed_b:
        s, x, y = blk
        line = zero[s - 1] + x - s * y  # `Params.line`, inlined
        a |= masks[line]
        a ^= 1 << ((s - 1) * g + y) * g + x  # set by the OR, so this clears it
        for i in grouped[blk]:
            tb |= 1 << line * b + i
    for blk in asg.placed_c:
        s, x, y = blk
        a |= 1 << ((s - 1) * g + y) * g + x
        for i in grouped[blk]:
            tc |= 1 << (y * g + x) * b + i
    return a, tb, tc


def _structure_of_bits(p: Params, *bits: int) -> Structure:
    """The structure whose tables A, B and C hold the bits of three ints."""
    sized = zip(p.table_sizes, bits)
    tables = [BitTable(n, bytearray(v.to_bytes((n + 7) // 8, "little"))) for n, v in sized]
    return Structure(p, *tables)


def build(p: Params, members: Iterable[ElementAddr]) -> Structure:
    """Build the structure storing the given subset (at most 4 elements).

    Pure in (p, set of members): equal subsets give bit-identical tables.
    """
    return build_from_ordinals(p, (element_to_ordinal(p, e) for e in members))


def build_from_ordinals(p: Params, ordinals: Iterable[int]) -> Structure:
    """Build from flat element ordinals instead of addresses; refuses an oversized b first."""
    checked_table_sizes(p)
    grouped = _group_ordinals(p, tuple(ordinals))
    return _fill_tables(p, grouped, assign_blocks(p, grouped.keys()))


def query(st: Structure, e: ElementAddr) -> tuple[bool, ProbeTrace]:
    """Answer membership for e with exactly two bit probes.

    Returns the answer and the trace of both probes; the first probe is
    always in table A, the second in B (A bit 0) or C (A bit 1).  The
    answer is the second bit as `True` or `False`.  The positions are those
    of `Params.a_pos`, `line` (from `Params.line_zero`) and `c_pos`, still
    inlined here; `Params` stays their one home.
    """
    p = st.params
    b, g = p.b, p.grid_side
    (s, x, y), i = e
    if not (1 <= s <= b and 0 <= x < g and 0 <= y < g and 0 <= i < b):
        validate_element(p, e)  # raises with the precise bound
    a_pos = (s - 1) * p.blocks_per_superblock + y * g + x
    if st.table_a.data[a_pos >> 3] >> (a_pos & 7) & 1:
        pos = (y * g + x) * b + i
        bit = st.table_c.data[pos >> 3] >> (pos & 7) & 1
        return _BOOL[bit], (("A", a_pos, 1), ("C", pos, bit))
    pos = (p.line_zero[s - 1] + x - s * y) * b + i  # `Params.line`, inlined
    bit = st.table_b.data[pos >> 3] >> (pos & 7) & 1
    return _BOOL[bit], (("A", a_pos, 0), ("B", pos, bit))


def classify(p: Params, blocks: Collection[BlockAddr]) -> CaseLabel:
    """Diagnostic case label of a non-empty block configuration.

    `blocks` is any sized collection of distinct blocks (a list, a set, a
    dict's keys), not checked; `p` names each block's line by its B line
    ordinal.  The label counts lines and coordinates only, so block order
    does not change it, and fewer than four blocks all share one label.
    """
    if len(blocks) < 4:
        return CaseLabel.FEWER_THAN_4_BLOCKS

    zero = p.line_zero
    lines = [zero[s - 1] + x - s * y for s, x, y in blocks]  # `Params.line`, inlined
    distinct = len(set(lines))
    if distinct == 4:
        return CaseLabel.I
    line_count = {ln: lines.count(ln) for ln in lines}
    if distinct == 1:
        return CaseLabel.II
    if distinct == 2:
        split = sorted(line_count.values())
        return CaseLabel.IIIA if split == [1, 3] else CaseLabel.IIIB

    # Three distinct lines: one line holds two blocks, the others one each.
    coords = [(x, y) for _, x, y in blocks]
    coord_count = {xy: coords.count(xy) for xy in coords}
    mults = sorted(coord_count.values(), reverse=True)
    if mults[0] == 3:
        return CaseLabel.IVA
    if mults[:2] == [2, 2]:
        return CaseLabel.IVB
    if mults[0] == 2:
        ds, double_line = next((s, ln) for (s, _, _), ln in zip(blocks, lines) if line_count[ln] == 2)
        pair_xy = next(xy for xy, c in coord_count.items() if c == 2)
        # Singleton-line blocks outside the coincident pair decide the
        # subcase: all on the doubly occupied line's geometry -> IVC_i.
        for (_, x, y), ln in zip(blocks, lines):
            if line_count[ln] == 1 and (x, y) != pair_xy and p.line(ds, x, y) != double_line:
                return CaseLabel.IVC_ii
        return CaseLabel.IVC_i
    return CaseLabel.IVD
