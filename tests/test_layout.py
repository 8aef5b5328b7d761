"""`Params`, the per-b object: one home for the A, B and C bit positions.

Every place that computes a bit position must agree with `Params`: the
formulas of the `tables.py` docstring, evaluated with the line ordinals of
the independent `reference` module, the positions in `query`'s trace, the
bits `_fill_tables` sets, and the inversion in `yes_set`.  Hot loops that
inline the arithmetic are pinned to `Params` by these checks, over every
block, line, index and grid point for b = 2..5, and `_group_ordinals`'
inline decode is pinned to `element_from_ordinal` over every ordinal.
"""

import re

import pytest

from bitprobe4 import tables
from bitprobe4.geometry import (
    BlockAddr,
    ElementAddr,
    LineRef,
    Params,
    cached_params,
    element_from_ordinal,
)
from bitprobe4.oracle import yes_set
from bitprobe4.scheme import Assignment, _fill_tables, _group_ordinals, query
from bitprobe4.tables import ParseError, Structure, deserialize
from .reference import line_ordinal, lines_of_superblock

B_VALUES = range(2, 6)


# The right-hand sides of the position formulas in the `tables.py` docstring.
DOC_FORMULAS = {
    name: compile(rhs, name, "eval")
    for name, rhs in re.findall(r"^ +(A|B|C|offset)\(.*?\) += (.+)$", tables.__doc__, re.M)
}


def doc_position(table: str, b: int, **names) -> int:
    """Evaluate the docstring's formula for `table` with the given names."""

    def offset(s):
        return eval(DOC_FORMULAS["offset"], {"b": b, "s": s})

    value = eval(DOC_FORMULAS[table], {"b": b, "offset": offset, **names})
    assert value == int(value)
    return int(value)


def test_docstring_lists_every_formula():
    assert set(DOC_FORMULAS) == {"A", "B", "C", "offset"}


def grid(b: int):
    return [(x, y) for y in range(b * b) for x in range(b * b)]


def blocks(b: int):
    return [BlockAddr(s, x, y) for s in range(1, b + 1) for x, y in grid(b)]


def lines(p: Params):
    return [l for s in range(1, p.b + 1) for l in lines_of_superblock(p, s)]


@pytest.mark.parametrize("b", B_VALUES)
def test_a_positions_agree(b):
    p = Params(b)
    for blk in blocks(b):
        pos = p.a_pos(*blk)
        assert pos == doc_position("A", b, s=blk.s, x=blk.x, y=blk.y)
        assert element_from_ordinal(p, pos * b).block == blk  # A(block) = n // b


@pytest.mark.parametrize("b", B_VALUES)
def test_b_positions_and_inverse_agree(b):
    p = Params(b)
    seen = set()
    for l in lines(p):
        s, anchor = l
        for i in range(b):
            pos = p.b_slot(s, anchor) + i
            doc = doc_position("B", b, s=s, line=l, i=i, line_ordinal=lambda l: line_ordinal(p, l))
            assert pos == doc
            assert p.b_line(pos) == (s, anchor, i)
            seen.add(pos)
    assert seen == set(range(p.table_sizes[1]))
    assert p.b_offsets == tuple(p.b_offset(s) for s in range(1, b + 2))
    assert p.b_offsets[-1] == p.table_sizes[1]


@pytest.mark.parametrize("b", B_VALUES)
def test_c_positions_and_inverse_agree(b):
    p = Params(b)
    for x, y in grid(b):
        readers = [p.a_pos(s, x, y) for s in range(1, b + 1)]
        for i in range(b):
            pos = p.c_pos(x, y, i)
            assert pos == doc_position("C", b, x=x, y=y, i=i)
            found, j = p.c_blocks(pos)
            assert (list(found), j) == (readers, i)


@pytest.mark.parametrize("b", B_VALUES)
def test_line_blocks_are_the_lines_grid_points(b):
    p = Params(b)
    on_line: dict[LineRef, list[int]] = {}
    for blk in sorted(blocks(b), key=lambda k: (k.s, k.y, k.x)):
        on_line.setdefault(LineRef(blk.s, blk.x - blk.s * blk.y), []).append(p.a_pos(*blk))
    assert set(on_line) == set(lines(p))
    for (s, anchor), expected in on_line.items():
        assert list(p.line_blocks(s, anchor)) == expected


def all_a(p: Params, bit: int) -> Structure:
    st = Structure.empty(p)
    st.table_a.data[:] = bytes([0xFF if bit else 0]) * len(st.table_a.data)
    if bit and p.num_blocks % 8:
        st.table_a.data[-1] &= (1 << p.num_blocks % 8) - 1
    return st


@pytest.mark.parametrize("b", B_VALUES)
def test_query_trace_positions_agree(b):
    """With every A bit 0 each element reads B, with every A bit 1 it reads C."""
    p = Params(b)
    via_b, via_c = all_a(p, 0), all_a(p, 1)
    for n in range(p.universe_size):
        e = element_from_ordinal(p, n)
        (s, x, y), i = e
        a = p.a_pos(s, x, y)
        assert query(via_b, e) == (False, (("A", a, 0), ("B", p.b_slot(s, x - s * y) + i, 0)))
        assert query(via_c, e) == (False, (("A", a, 1), ("C", p.c_pos(x, y, i), 0)))


@pytest.mark.parametrize("b", B_VALUES)
def test_fill_tables_sets_the_layout_bits(b):
    """One block holding every index, routed to B and then to C."""
    p = Params(b)
    for blk in blocks(b):
        s, x, y = blk
        grouped = {blk: set(range(b))}
        st = _fill_tables(p, grouped, Assignment(frozenset([blk]), frozenset()))
        slot = p.b_slot(s, x - s * y)
        assert list(st.table_b.ones()) == list(range(slot, slot + b))
        assert list(st.table_c.ones()) == []
        assert set(st.table_a.ones()) == set(p.line_blocks(s, x - s * y)) - {p.a_pos(*blk)}
        st = _fill_tables(p, grouped, Assignment(frozenset(), frozenset([blk])))
        assert list(st.table_b.ones()) == []
        assert list(st.table_c.ones()) == [p.c_pos(x, y, i) for i in range(b)]
        assert list(st.table_a.ones()) == [p.a_pos(*blk)]


@pytest.mark.parametrize("b", B_VALUES)
def test_yes_set_inverts_each_bit(b):
    """A single 1 bit of B (every A bit 0) or of C (every A bit 1) is
    answered YES for exactly the elements whose query reads it."""
    p = Params(b)
    for table_name, st in (("B", all_a(p, 0)), ("C", all_a(p, 1))):
        readers: dict[int, set[int]] = {}
        for n in range(p.universe_size):
            _, (_, (name, pos, _)) = query(st, element_from_ordinal(p, n))
            assert name == table_name
            readers.setdefault(pos, set()).add(n)
        table = st.table_b if table_name == "B" else st.table_c
        assert set(readers) == set(range(table.nbits))
        for pos, expected in readers.items():
            table.flip(pos)
            assert yes_set(st) == expected
            table.flip(pos)


@pytest.mark.parametrize("b", [2, 3])
def test_group_ordinals_decodes_like_element_from_ordinal(b):
    p = Params(b)
    for n in range(p.universe_size):
        e = element_from_ordinal(p, n)
        grouped = _group_ordinals(p, (n,))
        assert grouped == {e.block: {e.i}}
        assert type(next(iter(grouped))) is BlockAddr


def test_offsets_cache_stays_bounded():
    bound = cached_params.cache_info().maxsize
    for b in range(100, 200):
        header = tables.MAGIC + bytes([tables.FORMAT_VERSION]) + b.to_bytes(8, "little")
        with pytest.raises(ParseError):
            deserialize(header)
        hits = cached_params.cache_info().hits
        p = cached_params(b)  # the entry deserialize made; offsets shared per b
        assert cached_params.cache_info().hits == hits + 1
        assert p.b_offsets is cached_params(b).b_offsets and p.b_offsets[-1] == p.table_sizes[1]
        assert cached_params.cache_info().currsize <= bound
    assert bound == 32


class TestParamsCache:
    def test_equal_b_gives_the_same_object(self):
        assert cached_params(3) is cached_params(3) == Params(3)
        assert cached_params(3) is not cached_params(4)

    @pytest.mark.parametrize(
        "bad,error", [(1, ValueError), (-5, ValueError), (2.0, TypeError), (True, TypeError)]
    )
    def test_invalid_b_raises_every_time_and_is_never_cached(self, bad, error):
        cached_params(2)  # an entry that 2.0 compares equal to, and must miss
        size = cached_params.cache_info().currsize
        for _ in range(3):
            with pytest.raises(error):
                cached_params(bad)
        assert cached_params.cache_info().currsize == size

    def test_hostile_header_builds_no_offsets(self):
        b = 2**63 - 1
        header = tables.MAGIC + bytes([tables.FORMAT_VERSION]) + b.to_bytes(8, "little")
        with pytest.raises(ParseError):
            deserialize(header)
        assert "b_offsets" not in vars(cached_params(b))


def test_huge_b_builds_no_offsets():
    p = Params(2**63 - 1)
    assert p.universe_size == (2**63 - 1) ** 6
    assert p.table_sizes[1] == p.b_offset(p.b + 1)
    assert "b_offsets" not in vars(p)


class TestDecodeContract:
    @pytest.mark.parametrize("b", [2, 3])
    def test_decode_returns_real_namedtuples(self, b):
        p = Params(b)
        g = b * b
        for n in range(p.universe_size):
            e = element_from_ordinal(p, n)
            assert type(e) is ElementAddr and type(e.block) is BlockAddr
            q, i = divmod(n, b)
            expected = ElementAddr(BlockAddr(q // g // g + 1, q % g, q // g % g), i)
            assert e == expected and e.block.s == expected.block.s and e.i == i

    @pytest.mark.parametrize("b", [2, 3])
    def test_decode_range_errors(self, b):
        p = Params(b)
        m = b**6
        for n in (-1, m):
            with pytest.raises(ValueError, match=re.escape(f"ordinal {n} out of range [0, {m})")):
                element_from_ordinal(p, n)

    @pytest.mark.parametrize(
        "e,message",
        [
            (ElementAddr(BlockAddr(0, 0, 0), 0), "superblock 0 out of range [1, 2]"),
            (ElementAddr(BlockAddr(3, 0, 0), 0), "superblock 3 out of range [1, 2]"),
            (ElementAddr(BlockAddr(1, 4, 0), 0), "grid point (4, 0) out of range [0, 4)^2"),
            (ElementAddr(BlockAddr(1, 0, -1), 0), "grid point (0, -1) out of range [0, 4)^2"),
            (ElementAddr(BlockAddr(1, 0, 0), 2), "block index 2 out of range [0, 2)"),
        ],
    )
    def test_query_range_errors(self, e, message):
        st = Structure.empty(Params(2))
        with pytest.raises(ValueError, match=re.escape(message)):
            query(st, e)
