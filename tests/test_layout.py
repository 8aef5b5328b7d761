"""`Params`, the per-b object: one home for the A, B and C bit positions.

Every place that computes a bit position must agree with `Params`: the
formulas of the `tables.py` docstring, evaluated with the line ordinals of
the independent `reference` module, the positions in `query`'s trace, the
bits `_fill_tables` sets, and the inversion in `yes_set`.  Hot loops that
inline the arithmetic are pinned to `Params` by these checks, over every
block, line, index and grid point for every b that has inverse tables and
the first b above them (b = 2..6), so both the int path, which reads the
tables, and the byte path, which walks `line_blocks` from each line's B
line ordinal (`Params.line`, or pos // b for B bit pos), are checked, and
`_group_ordinals`' inline decode is pinned to `element_from_ordinal` over
every ordinal.
"""

import pickle
import pydoc
import random
import re
from itertools import combinations

import pytest

from bitprobe4 import tables
from bitprobe4.geometry import (
    INVERSE_TABLE_MAX_B,
    BlockAddr,
    ElementAddr,
    LineRef,
    Params,
    _mask,
    cached_params,
    element_from_ordinal,
)
from bitprobe4.oracle import draw_subset, verify_random, yes_set
from bitprobe4.scheme import (
    Assignment,
    _fill_tables,
    _group_ordinals,
    assign_blocks,
    build_from_ordinals,
    query,
)
from bitprobe4.tables import ParseError, Structure, deserialize, serialize
from .reference import line_ordinal, lines_of_superblock, num_lines, set_bit, splitmix64_stream

B_VALUES = range(2, INVERSE_TABLE_MAX_B + 2)


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
            pos = (p.line_zero[s - 1] + anchor) * b + i
            doc = doc_position("B", b, s=s, line=l, i=i, line_ordinal=lambda l: line_ordinal(p, l))
            assert pos == doc
            assert (pos // b, pos % b) == (p.b_offset(s) // b + line_ordinal(p, l), i)
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
        l = LineRef(blk.s, blk.x - blk.s * blk.y)
        assert p.line(*blk) == p.b_offset(blk.s) // b + line_ordinal(p, l)
        on_line.setdefault(l, []).append(p.a_pos(*blk))
    assert set(on_line) == set(lines(p))
    for l, expected in on_line.items():
        assert list(p.line_blocks(p.b_offset(l.s) // b + line_ordinal(p, l))) == expected


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
        assert query(via_b, e) == (False, (("A", a, 0), ("B", p.line(s, x, y) * b + i, 0)))
        assert query(via_c, e) == (False, (("A", a, 1), ("C", p.c_pos(x, y, i), 0)))


@pytest.mark.parametrize("b", B_VALUES)
def test_fill_tables_sets_the_layout_bits(b):
    """One block holding every index, routed to B and then to C."""
    p = Params(b)
    for blk in blocks(b):
        s, x, y = blk
        grouped = {blk: set(range(b))}
        st = _fill_tables(p, grouped, Assignment(frozenset([blk]), frozenset()))
        slot = p.line(*blk) * b
        assert list(st.table_b.ones()) == list(range(slot, slot + b))
        assert list(st.table_c.ones()) == []
        assert set(st.table_a.ones()) == set(p.line_blocks(p.line(*blk))) - {p.a_pos(*blk)}
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
        assert "line_zero" not in vars(cached_params(b))


def test_huge_b_builds_no_offsets():
    p = Params(2**63 - 1)
    assert p.universe_size == (2**63 - 1) ** 6
    assert p.table_sizes[1] == p.b_offset(p.b + 1)
    assert "b_offsets" not in vars(p)
    assert "line_zero" not in vars(p)


def test_help_shows_the_lazy_docstrings():
    # Read on the class, a lazy attribute is its descriptor, with its docstring.
    text = pydoc.render_doc(Params, renderer=pydoc.plaintext)
    for name in ("table_sizes", "b_offsets", "line_zero", "_inverses"):
        doc = getattr(Params, name).__doc__
        assert doc == vars(Params)[name].fn.__doc__
        if not name.startswith("_"):
            assert doc.splitlines()[0] in text, name


@pytest.mark.parametrize("b", range(2, 9))
def test_b_zero_is_the_slot_of_anchor_zero(b):
    """line_zero[s - 1] is the B line ordinal of line (s, 0), so
    line_zero[s - 1] * b is B's slot of anchor 0."""
    p = Params(b)
    assert "line_zero" not in vars(p)
    offsets = [sum(num_lines(p, j) * b for j in range(1, s)) for s in range(1, b + 1)]
    expected = tuple(offsets[s - 1] + line_ordinal(p, (s, 0)) * b for s in range(1, b + 1))
    assert tuple(z * b for z in p.line_zero) == expected
    assert p.line_zero is p.line_zero  # built once, then kept on the instance


class TestInverseTables:
    """Up to INVERSE_TABLE_MAX_B, `Params._inverses` is one table per b,
    whose line masks are indexed by B line ordinal; above it, it is None.
    `line` and `line_blocks` are closed forms at every b, pinned to the
    reference by the checks above."""

    @pytest.mark.parametrize("b", range(2, INVERSE_TABLE_MAX_B + 1))
    def test_small_b_reads_the_table(self, b):
        p = cached_params(b)
        masks = p._inverses.line_masks
        assert p._inverses.line_masks is masks  # built once, then kept
        assert len(masks) * b == p.table_sizes[1]
        for l in lines(p):
            s, anchor = l
            on_line = [p.a_pos(s, x, y) for x, y in grid(b) if x - s * y == anchor]
            line = p.b_offset(s) // b + line_ordinal(p, l)
            assert masks[line] == sum(1 << a for a in on_line) == _mask(p.line_blocks(line)), l

    def test_no_table_above_the_rule(self):
        # The line masks and the block table are fields of `_inverses`, so
        # no grouping, fill or YES set above the rule builds them.
        verify_random(8, 20, 1)
        p = cached_params(16)
        st = deserialize(serialize(build_from_ordinals(p, [5, 6, 7, 8])))
        assert query(st, element_from_ordinal(p, 5))[0]
        assert not query(st, element_from_ordinal(p, 9))[0]
        assert yes_set(st) == {5, 6, 7, 8}
        for b in (8, 16):
            assert vars(cached_params(b))["_inverses"] is None

    @pytest.mark.parametrize("p", [Params(2), Params(INVERSE_TABLE_MAX_B), cached_params(3)], ids=repr)
    def test_pickled_as_b_alone(self, p):
        assert p._inverses is not None
        assert vars(p)["_inverses"] is not None
        data = pickle.dumps(p)
        assert len(data) < 200
        assert pickle.loads(data) is cached_params(p.b)


def byte_path(b: int) -> Params:
    """A fresh, uncached Params(b) whose small-b table is pre-set to None,
    so grouping, fill and YES set take the path used above the rule."""
    p = Params(b)
    object.__setattr__(p, "_inverses", None)
    return p


class TestTwoPaths:
    """Up to INVERSE_TABLE_MAX_B, `_group_ordinals`, `_fill_tables` and
    `yes_set` read the small-b table, A as an int and a line as the mask of
    its B line ordinal; with the table pre-set to None they take the byte
    path, which walks `line_blocks`, and both paths give the same
    groups, the same bytes and the same YES sets."""

    def check(self, b, combos):
        table, closed = cached_params(b), byte_path(b)
        assert table._inverses is not None
        for combo in combos:
            grouped = _group_ordinals(table, combo)
            assert grouped == _group_ordinals(closed, combo)
            asg = assign_blocks(table, grouped)
            st = _fill_tables(table, grouped, asg)
            assert serialize(st) == serialize(_fill_tables(closed, grouped, asg)), combo
            on_bytes = Structure(closed, st.table_a, st.table_b, st.table_c)
            assert yes_set(st) == yes_set(on_bytes) == set(combo), combo
        assert vars(closed)["_inverses"] is None

    def test_b2_every_subset_up_to_two(self):
        m = Params(2).universe_size
        combos = [c for k in range(3) for c in combinations(range(m), k)]
        assert len(combos) == 1 + 64 + 2016
        self.check(2, combos)

    @pytest.mark.parametrize("b", range(3, INVERSE_TABLE_MAX_B + 1))
    def test_seeded_four_subsets(self, b):
        m = Params(b).universe_size
        self.check(b, [draw_subset(13, t, 4, m) for t in range(300)])

    @pytest.mark.parametrize("b", range(2, INVERSE_TABLE_MAX_B + 1))
    @pytest.mark.parametrize("full", [True, False])
    def test_dense_tables(self, b, full):
        # As TestYesSet.test_dense_tables: A bits seeded at random, B and C
        # bits all set or seeded at random.
        st = build_from_ordinals(cached_params(b), [])
        stream = splitmix64_stream(b)
        for t in (st.table_a, st.table_b, st.table_c):
            for pos in range(t.nbits):
                set_bit(t, pos, 1 if full and t is not st.table_a else next(stream) & 1)
        got = yes_set(st)
        assert 0 < len(got) <= st.params.universe_size
        assert got == yes_set(Structure(byte_path(b), st.table_a, st.table_b, st.table_c))


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

    @pytest.mark.parametrize("b", range(2, 17))
    def test_decode_equals_a_quotient_chain(self, b):
        p = Params(b)
        g, m = b * b, b**6
        row = b * g  # ordinals per grid row; grid and superblock edges are row edges
        edges = {0, b - 1, b, m - 1}
        for k in range(1, m // row):
            edges |= {k * row - 1, k * row}
        rng = random.Random(b)
        for n in sorted(edges) + [rng.randrange(m) for _ in range(2000)]:
            q, i = divmod(n, b)
            q, x = divmod(q, g)
            q, y = divmod(q, g)
            e = element_from_ordinal(p, n)
            assert type(e) is ElementAddr and type(e.block) is BlockAddr
            assert e == ((q + 1, x, y), i)

    @pytest.mark.parametrize("b", [2, 3])
    def test_decode_range_errors(self, b):
        p = Params(b)
        m = b**6
        for n in (-1, m):
            with pytest.raises(ValueError, match=re.escape(f"ordinal {n} out of range [0, {m})")):
                element_from_ordinal(p, n)

    @pytest.mark.parametrize("b", [2, 3])
    def test_query_answers_are_bools(self, b):
        p = Params(b)
        rng = random.Random(b)
        dense = Structure.empty(p)
        for table in (dense.table_a, dense.table_b, dense.table_c):
            table.data[:] = rng.randbytes(len(table.data))
        seen = set()
        built = build_from_ordinals(p, rng.sample(range(p.universe_size), 4))
        for st in (Structure.empty(p), built, dense):
            for n in range(p.universe_size):
                answer, (_, (table, _, bit)) = query(st, element_from_ordinal(p, n))
                assert answer is (bit == 1)
                seen.add((table, answer))
        assert seen == {("B", False), ("B", True), ("C", False), ("C", True)}

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
