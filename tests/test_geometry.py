from collections import Counter

import pytest
from hypothesis import given, strategies as st

from bitprobe4.geometry import (
    BlockAddr,
    ElementAddr,
    LineRef,
    Params,
    element_from_ordinal,
    element_to_ordinal,
    line_of,
    points_on_line,
)
from .reference import anchor_bounds, line_ordinal, lines_of_superblock, num_lines


def grid_points_on_line(p: Params, l: LineRef) -> list[tuple[int, int]]:
    """Oracle: enumerate the whole grid instead of solving the line equation."""
    g, (s, anchor) = p.grid_side, l
    return [(x, y) for y in range(g) for x in range(g) if x - s * y == anchor]


class TestParams:
    def test_derived_quantities(self):
        p = Params(3)
        assert (p.grid_side, p.blocks_per_superblock) == (9, 81)
        assert (p.num_superblocks, p.num_blocks, p.universe_size) == (3, 243, 729)

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_rejects_small_b(self, bad):
        with pytest.raises(ValueError):
            Params(bad)

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            Params(2.0)

    def test_from_universe_exact_and_padded(self):
        assert Params.from_universe(64).b == 2
        assert Params.from_universe(65).b == 3
        assert Params.from_universe(729).b == 3
        assert Params.from_universe(1).b == 2
        assert Params.from_universe(4097).b == 5
        huge = 10**400  # beyond float range: the root is taken in integers
        b = Params.from_universe(huge).b
        assert (b - 1) ** 6 < huge <= b**6

    def test_from_universe_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Params.from_universe(0)


class TestOrdinals:
    def test_zero(self):
        p = Params(2)
        assert element_from_ordinal(p, 0) == ElementAddr(BlockAddr(1, 0, 0), 0)

    def test_last_b2(self):
        p = Params(2)
        assert element_from_ordinal(p, 63) == ElementAddr(BlockAddr(2, 3, 3), 1)

    def test_last_b3(self):
        p = Params(3)
        assert element_from_ordinal(p, 728) == ElementAddr(BlockAddr(3, 8, 8), 2)

    @pytest.mark.parametrize("n", [-1, 64, 1000])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError, match="64"):
            element_from_ordinal(Params(2), n)

    @pytest.mark.parametrize("b", [2, 3])
    def test_roundtrip_exhaustive(self, b):
        p = Params(b)
        seen = set()
        for n in range(p.universe_size):
            e = element_from_ordinal(p, n)
            assert element_to_ordinal(p, e) == n
            seen.add(e)
        assert len(seen) == p.universe_size

    @given(b=st.integers(2, 6), frac=st.floats(0, 1, exclude_max=True))
    def test_roundtrip_sampled(self, b, frac):
        p = Params(b)
        n = int(frac * p.universe_size)
        assert element_to_ordinal(p, element_from_ordinal(p, n)) == n

    def test_to_ordinal_validates(self):
        p = Params(2)
        with pytest.raises(ValueError):
            element_to_ordinal(p, ElementAddr(BlockAddr(3, 0, 0), 0))
        with pytest.raises(ValueError):
            element_to_ordinal(p, ElementAddr(BlockAddr(1, 0, 0), 2))

    def test_plain_tuple_addresses(self):
        p = Params(2)
        for n in range(p.universe_size):
            (s, x, y), i = element_from_ordinal(p, n)
            assert element_to_ordinal(p, ((s, x, y), i)) == n
        for bad, message in [
            (((3, 0, 0), 0), "superblock 3 out of range [1, 2]"),
            (((1, 9, 0), 0), "grid point (9, 0) out of range [0, 4)^2"),
            (((1, 0, 0), 2), "block index 2 out of range [0, 2)"),
        ]:
            with pytest.raises(ValueError) as err:
                element_to_ordinal(p, bad)
            assert str(err.value) == message


class TestLineOf:
    def test_same_line_shifted_point(self):
        # moving (+s, +1) from any point stays on the same slope-1/s line
        assert line_of(BlockAddr(2, 7, 6)) == LineRef(2, -5)
        assert line_of(BlockAddr(2, 9, 7)) == LineRef(2, -5)

    def test_origin(self):
        assert line_of(BlockAddr(1, 0, 0)) == LineRef(1, 0)

    def test_extreme_anchor_point(self):
        p = Params(2)
        l = line_of(BlockAddr(2, 1, 3))
        assert l == LineRef(2, -5)
        assert (1, 3) in points_on_line(p, l)


class TestPointsOnLine:
    def test_diagonal_b2(self):
        p = Params(2)
        assert points_on_line(p, LineRef(1, 0)) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_single_point_lines(self):
        p = Params(2)
        assert points_on_line(p, LineRef(2, 3)) == [(3, 0)]
        assert points_on_line(p, LineRef(2, -5)) == [(1, 3)]

    def test_anchor_out_of_range(self):
        p = Params(2)
        with pytest.raises(ValueError):
            points_on_line(p, LineRef(2, 4))
        with pytest.raises(ValueError):
            points_on_line(p, LineRef(2, -7))
        for s in (0, p.b + 1):
            with pytest.raises(ValueError, match=f"superblock {s} out of range"):
                points_on_line(p, LineRef(s, 0))

    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_matches_grid_enumeration(self, b):
        p = Params(b)
        for s in range(1, b + 1):
            for l in lines_of_superblock(p, s):
                assert points_on_line(p, l) == grid_points_on_line(p, l)

    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_line_blocks_are_the_points_block_ordinals(self, b):
        p = Params(b)
        g = p.grid_side
        for s in range(1, b + 1):
            for l in lines_of_superblock(p, s):
                ordinals = [((s - 1) * g + y) * g + x for x, y in points_on_line(p, l)]
                assert list(p.line_blocks(*l)) == ordinals
        with pytest.raises(ValueError):
            points_on_line(p, LineRef(1, g))


class TestNumLines:
    @pytest.mark.parametrize(
        "b,s,expected", [(2, 1, 7), (2, 2, 10), (3, 3, 33)]
    )
    def test_formula(self, b, s, expected):
        p = Params(b)
        assert num_lines(p, s) == expected
        assert p.b_offset(s + 1) - p.b_offset(s) == expected * b  # B slots

    def test_equals_anchor_count(self):
        for b in range(2, 6):
            p = Params(b)
            for s in range(1, b + 1):
                lo, hi = anchor_bounds(p, s)
                assert hi - lo == num_lines(p, s)

    def test_superblock_out_of_range(self):
        with pytest.raises(ValueError):
            num_lines(Params(2), 0)
        with pytest.raises(ValueError):
            num_lines(Params(2), 3)


class TestLineOrdinal:
    def test_bounds_b2(self):
        p = Params(2)
        assert line_ordinal(p, LineRef(2, -6)) == 0
        assert line_ordinal(p, LineRef(2, 3)) == 9 == num_lines(p, 2) - 1
        assert line_ordinal(p, LineRef(1, 0)) == 3

    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_bijection(self, b):
        p = Params(b)
        for s in range(1, b + 1):
            ords = [line_ordinal(p, l) for l in lines_of_superblock(p, s)]
            assert ords == list(range(num_lines(p, s)))
            slots = [p.b_slot(*l) for l in lines_of_superblock(p, s)]
            assert slots == [p.b_offset(s) + k * b for k in ords]


class TestLineFamilyProperties:
    @pytest.mark.parametrize("b", [2, 3, 4, 5])
    def test_partition_of_grid(self, b):
        # every grid point lies on exactly one line of each superblock's family
        p = Params(b)
        g = p.grid_side
        for s in range(1, b + 1):
            covered = Counter()
            for l in lines_of_superblock(p, s):
                pts = points_on_line(p, l)
                assert pts, f"empty line {l}"
                covered.update(pts)
            assert len(covered) == g * g
            assert set(covered.values()) == {1}
            for y in range(g):
                for x in range(g):
                    l = line_of(BlockAddr(s, x, y))
                    lo, hi = anchor_bounds(p, s)
                    assert lo <= l.anchor < hi
                    assert (x, y) in points_on_line(p, l)

    @pytest.mark.parametrize("b", [2, 3, 4])
    def test_cross_family_lines_share_at_most_one_point(self, b):
        p = Params(b)
        g = p.grid_side
        for s1 in range(1, b + 1):
            for s2 in range(s1 + 1, b + 1):
                shared = Counter()
                for y in range(g):
                    for x in range(g):
                        blk1 = line_of(BlockAddr(s1, x, y))
                        blk2 = line_of(BlockAddr(s2, x, y))
                        shared[blk1, blk2] += 1
                assert max(shared.values()) <= 1
