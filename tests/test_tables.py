import time

import pytest
from hypothesis import given, settings, strategies as st

from bitprobe4 import tables
from bitprobe4.geometry import BlockAddr, ElementAddr, Params
from bitprobe4.geometry import validate_block, validate_element
from bitprobe4.oracle import draw_subset
from bitprobe4.scheme import build_from_ordinals
from bitprobe4.tables import (
    FORMAT_VERSION,
    MAGIC,
    BadMagicError,
    BitTable,
    LengthMismatchError,
    ParseError,
    Structure,
    TrailingDataError,
    UnsupportedVersionError,
    deserialize,
    serialize,
)
from .reference import get_bit, lines_of_superblock, num_lines, set_bit


def closed_form_b_size(b: int) -> int:
    return b * ((b * b - 1) * b * (b + 3) // 2 + b)


class TestBitTable:
    def test_starts_all_zero(self):
        t = BitTable(19)
        assert list(t.ones()) == []
        assert len(t) == 19
        assert len(t.data) == 3

    def test_set_get_flip(self):
        t = BitTable(10)
        set_bit(t, 3, 1)
        set_bit(t, 9, 1)
        assert (get_bit(t, 3), get_bit(t, 4), get_bit(t, 9)) == (1, 0, 1)
        assert list(t.ones()) == [3, 9]
        t.flip(3)
        set_bit(t, 9, 0)
        assert list(t.ones()) == []

    def test_bounds_checked(self):
        t = BitTable(8)
        with pytest.raises(IndexError):
            t.flip(8)
        with pytest.raises(IndexError):
            t.flip(-1)
        with pytest.raises(IndexError):
            t.flip(100)

    def test_lsb_first_packing(self):
        t = BitTable(16)
        t.flip(0)
        t.flip(9)
        assert bytes(t.data) == bytes([0x01, 0x02])

    @given(st.sets(st.integers(0, 63)))
    def test_roundtrip_positions(self, positions):
        t = BitTable(64)
        for pos in positions:
            t.flip(pos)
        assert set(t.ones()) == positions
        assert {pos for pos in range(64) if get_bit(t, pos)} == positions

    @given(st.binary(min_size=1, max_size=40), st.integers(0, 7))
    def test_ones_matches_bitwise_reading(self, raw, short):
        # padding bits beyond nbits are never reported
        t = BitTable(len(raw) * 8 - short, bytearray(raw))
        expected = [k for k in range(t.nbits) if raw[k >> 3] >> (k & 7) & 1]
        assert list(t.ones()) == expected


class TestSizes:
    @pytest.mark.parametrize("b,expected", [(2, 34), (3, 225), (4, 856)])
    def test_table_b_spot_values(self, b, expected):
        assert Params(b).table_sizes[1] == expected

    @pytest.mark.parametrize("b", range(2, 9))
    def test_closed_form_matches_line_sum(self, b):
        p = Params(b)
        by_sum = sum(num_lines(p, s) * b for s in range(1, b + 1))
        size_a, size_b, size_c = p.table_sizes
        assert size_b == by_sum == closed_form_b_size(b)
        assert size_a == size_c == b**5

    @pytest.mark.parametrize("b", [54, 10**7])
    def test_oversized_refused_before_allocating(self, monkeypatch, b):
        def refuse(nbits):
            raise AssertionError(f"allocated a table of {nbits} bits")

        monkeypatch.setattr(tables, "BitTable", refuse)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="table bits"):
            Structure.empty(Params(b))
        assert time.perf_counter() - start < 0.1

    def test_sizes_read_once_per_params(self):
        # The sizes are kept on the Params; it stays an immutable value.
        p = Params(5)
        sizes = p.table_sizes
        assert sizes == (5**5, closed_form_b_size(5), 5**5)
        assert p.table_sizes is sizes
        fresh = Params(5)
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        for name in ("table_sizes", "b"):
            with pytest.raises(AttributeError):
                setattr(p, name, 3)
        assert (p.b, p.table_sizes) == (5, sizes)
        st = Structure.empty(p)
        assert (st.table_a.nbits, st.table_b.nbits, st.table_c.nbits) == sizes
        assert st.table_b == BitTable(sizes[1])

    def test_offsets_cumulative(self):
        p = Params(3)
        offs = [p.b_offset(s) for s in range(1, 5)]
        assert offs[0] == 0
        for s in range(1, 4):
            assert offs[s] - offs[s - 1] == num_lines(p, s) * 3
        assert offs[-1] == p.table_sizes[1]


class TestIndexLayouts:
    @pytest.mark.parametrize(
        "b,blk,expected",
        [(2, (1, 0, 0), 0), (2, (2, 3, 3), 31), (3, (2, 0, 4), 117)],
    )
    def test_a_index_examples(self, b, blk, expected):
        assert Params(b).a_pos(*blk) == expected

    @pytest.mark.parametrize(
        "xyi,expected", [((0, 0, 0), 0), ((3, 3, 1), 31), ((1, 2, 0), 18)]
    )
    def test_c_index_examples(self, xyi, expected):
        assert Params(2).c_pos(*xyi) == expected

    def test_b_index_examples(self):
        p = Params(2)
        assert p.line(1, 0, 3) * 2 == 0  # line (1, -3)
        assert p.line(2, 3, 0) * 2 + 1 == 33 == p.table_sizes[1] - 1  # line (2, 3)
        assert p.line(2, 0, 3) * 2 == 14  # line (2, -6)

    @pytest.mark.parametrize("b", range(2, 7))
    def test_a_index_bijective(self, b):
        p = Params(b)
        g = p.grid_side
        seen = {
            p.a_pos(s, x, y)
            for s in range(1, b + 1)
            for x in range(g)
            for y in range(g)
        }
        assert seen == set(range(p.table_sizes[0]))

    @pytest.mark.parametrize("b", range(2, 7))
    def test_c_index_bijective(self, b):
        p = Params(b)
        g = p.grid_side
        seen = {
            p.c_pos(x, y, i)
            for x in range(g)
            for y in range(g)
            for i in range(b)
        }
        assert seen == set(range(p.table_sizes[2]))

    @pytest.mark.parametrize("b", range(2, 7))
    def test_b_index_bijective(self, b):
        p = Params(b)
        seen = {
            (p.line_zero[s - 1] + anchor) * b + i
            for s in range(1, b + 1)
            for _, anchor in lines_of_superblock(p, s)
            for i in range(b)
        }
        assert seen == set(range(p.table_sizes[1]))

    def test_index_range_errors(self):
        p = Params(2)
        with pytest.raises(ValueError):
            validate_block(p, BlockAddr(0, 0, 0))
        with pytest.raises(ValueError):
            validate_element(p, ElementAddr(BlockAddr(1, 4, 0), 0))
        with pytest.raises(ValueError):
            validate_element(p, ElementAddr(BlockAddr(1, 0, 0), 2))


class TestSerialization:
    def test_empty_structure_bytes(self):
        st = Structure.empty(Params(2))
        blob = serialize(st)
        # header: magic, version, b; tables: (len, payload) x3
        assert blob[:4] == b"BP42"
        assert blob[4] == 1
        assert int.from_bytes(blob[5:13], "little") == 2
        assert int.from_bytes(blob[13:21], "little") == 32
        assert blob[21:25] == bytes(4)
        assert int.from_bytes(blob[25:33], "little") == 34
        assert blob[33:38] == bytes(5)
        assert int.from_bytes(blob[38:46], "little") == 32
        assert blob[46:50] == bytes(4)
        assert len(blob) == 50
        assert st.total_bits() == 98

    @pytest.mark.parametrize("subset", [[], [0], [0, 21, 46, 63], [7, 8, 9]])
    def test_roundtrip_identity(self, subset):
        st = build_from_ordinals(Params(2), subset)
        again = deserialize(serialize(st))
        assert again == st
        assert serialize(again) == serialize(st)

    def test_bad_magic(self):
        blob = bytearray(serialize(Structure.empty(Params(2))))
        blob[0] ^= 0xFF
        with pytest.raises(BadMagicError):
            deserialize(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(serialize(Structure.empty(Params(2))))
        blob[4] = 9
        with pytest.raises(UnsupportedVersionError):
            deserialize(bytes(blob))

    def test_truncated(self):
        blob = serialize(Structure.empty(Params(2)))
        with pytest.raises(LengthMismatchError):
            deserialize(blob[:-1])
        with pytest.raises(LengthMismatchError):
            deserialize(blob[:3])

    def test_wrong_table_length(self):
        blob = bytearray(serialize(Structure.empty(Params(2))))
        blob[13] = 33  # table A claims 33 bits
        with pytest.raises(LengthMismatchError):
            deserialize(bytes(blob))

    def test_trailing_bytes(self):
        blob = serialize(Structure.empty(Params(2)))
        with pytest.raises(TrailingDataError):
            deserialize(blob + b"\x00")

    def test_nonzero_padding_rejected(self):
        blob = bytearray(serialize(Structure.empty(Params(2))))
        # table B holds 34 bits in 5 bytes; bits 34..39 of its last payload
        # byte are padding
        blob[37] |= 0x80
        with pytest.raises(LengthMismatchError):
            deserialize(bytes(blob))

    def test_bad_b_value(self):
        blob = bytearray(serialize(Structure.empty(Params(2))))
        blob[5] = 1
        with pytest.raises(ParseError):
            deserialize(bytes(blob))

    @pytest.mark.parametrize("b", [10**7, 2**63 - 1])
    def test_hostile_b_fails_fast(self, b):
        header = MAGIC + bytes([FORMAT_VERSION]) + b.to_bytes(8, "little")
        declared_a = min(b**5, 2**64 - 1).to_bytes(8, "little")
        for blob in (header, header + declared_a, header + declared_a + bytes(64)):
            start = time.perf_counter()
            with pytest.raises(ParseError):
                deserialize(blob)
            assert time.perf_counter() - start < 0.1

    def test_header_over_the_bit_cap_is_refused_at_b(self):
        # b = 54 is the first b over MAX_STRUCTURE_BITS, which `build`
        # refuses too; with a valid table-A length the header is refused
        # for its b, not as a truncated stream.
        def header(b):
            return MAGIC + bytes([FORMAT_VERSION]) + b.to_bytes(8, "little") + (b**5).to_bytes(8, "little")

        assert len(header(54)) == 21
        with pytest.raises(ParseError, match="over the limit of 1073741824") as info:
            deserialize(header(54))
        assert not isinstance(info.value, LengthMismatchError)
        with pytest.raises(LengthMismatchError, match="truncated"):
            deserialize(header(53))


def _seeded_blob(b: int, t: int) -> bytes:
    p = Params(b)
    return serialize(build_from_ordinals(p, draw_subset(9, t, t % 5, p.universe_size)))


@settings(max_examples=300, deadline=200)
@given(
    b=st.sampled_from([2, 3]),
    t=st.integers(0, 9),
    edits=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(["xor", "cut", "grow", "word"]), st.integers(0, 2**64 - 1)),
        min_size=1,
        max_size=4,
    ),
)
def test_fuzzed_blobs_roundtrip_or_raise_parse_error(b, t, edits):
    blob = bytearray(_seeded_blob(b, t))
    for where, kind, value in edits:
        at = where % (len(blob) + 1)
        if kind == "xor" and at < len(blob):
            blob[at] ^= value % 255 + 1
        elif kind == "cut":
            del blob[at:]
        elif kind == "grow":
            blob[at:at] = value.to_bytes(8, "little")[: value % 9]
        elif kind == "word":
            blob[at : at + 8] = value.to_bytes(8, "little")
    try:
        st_ = deserialize(bytes(blob))
    except ParseError:
        return
    assert serialize(st_) == bytes(blob)
