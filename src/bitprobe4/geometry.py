"""Universe addressing and the line geometry behind the probe tables.

The universe has m = b**6 elements for a size parameter b >= 2.  It is cut
into blocks of b consecutive elements; blocks are grouped into b superblocks
of b**4 blocks each, and the blocks of one superblock sit on the integer
points of a (b**2 x b**2) grid.  An element is addressed by the four-tuple
(s, x, y, i): superblock s (1-based, because superblock s owns lines of
slope 1/s), grid coordinates (x, y) of its block, and index i within the
block (x, y, i are 0-based).

Flat ordinals use the fixed layout

    n = (((s - 1) * b**2 + y) * b**2 + x) * b + i

so ordinals 0 .. m-1 walk index first, then x, then y, then superblock.

Each superblock s covers its grid with the family of slope-1/s lines
anchored on the x-axis at integer anchors a with

    -s * (b**2 - 1) <= a < b**2.

A block at (x, y) in superblock s lies on exactly one such line, the one
with anchor a = x - s*y.  The family for superblock s therefore has
(s + 1) * (b**2 - 1) + 1 lines, every line holds at least one grid point,
and lines from different superblocks intersect in at most one point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple


class BlockAddr(NamedTuple):
    """A block: superblock s (1-based) and grid coordinates (x, y)."""

    s: int
    x: int
    y: int


class ElementAddr(NamedTuple):
    """An element: its block plus the index i within the block."""

    block: BlockAddr
    i: int


class LineRef(NamedTuple):
    """A cover line: superblock s (slope 1/s) and x-axis anchor."""

    s: int
    anchor: int


@dataclass(frozen=True)
class Params:
    """Scheme dimensions, all derived from the block size b.

    b >= 2 is required; b = 1 collapses the grid to a single point and the
    superblock structure to a single block, which the scheme does not
    support.
    """

    b: int

    def __post_init__(self) -> None:
        if not isinstance(self.b, int) or isinstance(self.b, bool):
            raise TypeError(f"b must be an int, got {type(self.b).__name__}")
        if self.b < 2:
            raise ValueError(f"b must be >= 2, got {self.b}")

    @property
    def grid_side(self) -> int:
        """Side length of each superblock grid: b**2."""
        return self.b * self.b

    @property
    def blocks_per_superblock(self) -> int:
        """Blocks per superblock: b**4."""
        return self.b**4

    @property
    def num_superblocks(self) -> int:
        """Number of superblocks: b."""
        return self.b

    @property
    def num_blocks(self) -> int:
        """Total blocks in the universe: b**5."""
        return self.b**5

    @property
    def universe_size(self) -> int:
        """Number of universe elements: m = b**6."""
        return self.b**6

    @classmethod
    def from_universe(cls, m: int) -> "Params":
        """Smallest valid parameters covering a universe of m elements.

        Uses b = ceil(m**(1/6)), clamped to b >= 2, found by a binary search
        in integers so that any m works.  When m is not a perfect sixth power
        the universe is padded up to b**6; padded ordinals are valid query
        targets that are simply never members.
        """
        if m < 1:
            raise ValueError(f"universe size must be >= 1, got {m}")
        lo, hi = 2, max(2, 1 << -(-m.bit_length() // 6))  # hi**6 >= m
        while lo < hi:
            mid = (lo + hi) // 2
            if mid**6 < m:
                lo = mid + 1
            else:
                hi = mid
        return cls(lo)


def element_from_ordinal(p: Params, n: int) -> ElementAddr:
    """Decode flat ordinal n in [0, m) to its (s, x, y, i) address."""
    m = p.universe_size
    if not 0 <= n < m:
        raise ValueError(f"ordinal {n} out of range [0, {m})")
    b = p.b
    g = b * b
    q, i = divmod(n, b)
    q, x = divmod(q, g)
    sm1, y = divmod(q, g)
    return ElementAddr(BlockAddr(sm1 + 1, x, y), i)


def element_to_ordinal(p: Params, e: ElementAddr) -> int:
    """Encode an (s, x, y, i) address back to its flat ordinal."""
    validate_element(p, e)
    g = p.grid_side
    (s, x, y), i = e
    return (((s - 1) * g + y) * g + x) * p.b + i


def validate_block(p: Params, blk: BlockAddr) -> None:
    """Raise ValueError unless blk is a valid block address for p."""
    s, x, y = blk
    if not 1 <= s <= p.b:
        raise ValueError(f"superblock {s} out of range [1, {p.b}]")
    g = p.grid_side
    if not (0 <= x < g and 0 <= y < g):
        raise ValueError(f"grid point ({x}, {y}) out of range [0, {g})^2")


def validate_element(p: Params, e: ElementAddr) -> None:
    """Raise ValueError unless e is a valid element address for p."""
    validate_block(p, e.block)
    if not 0 <= e.i < p.b:
        raise ValueError(f"block index {e.i} out of range [0, {p.b})")


def line_of(blk: BlockAddr) -> LineRef:
    """The unique cover line of blk's superblock through its grid point.

    A point (x, y) lies on the slope-1/s line anchored at a exactly when
    x - s*y = a, so the anchor is read off directly.
    """
    return LineRef(blk.s, blk.x - blk.s * blk.y)


def anchor_bounds(p: Params, s: int) -> tuple[int, int]:
    """Inclusive-exclusive anchor range [lo, hi) of superblock s's lines."""
    if not 1 <= s <= p.b:
        raise ValueError(f"superblock {s} out of range [1, {p.b}]")
    g = p.grid_side
    return -s * (g - 1), g


def line_blocks(p: Params, l: LineRef) -> range:
    """Block ordinals n // b (also their table-A positions) of the blocks on
    line l, ordered by increasing y.

    The grid points are the integer solutions of x = anchor + s*y inside
    [0, grid_side)^2, so the ordinals (s - 1)*b**4 + y*b**2 + x form the
    progression (s - 1)*b**4 + anchor + y*(b**2 + s); every in-range
    anchor yields at least one.
    """
    s, a = l
    lo_a, hi_a = anchor_bounds(p, s)
    if not lo_a <= a < hi_a:
        raise ValueError(f"anchor {a} out of range [{lo_a}, {hi_a})")
    g = p.grid_side
    y_lo = max(0, -(a // s))
    y_hi = min(g, (g - 1 - a) // s + 1)
    base = (s - 1) * g * g + a
    return range(base + y_lo * (g + s), base + y_hi * (g + s), g + s)


def points_on_line(p: Params, l: LineRef) -> list[tuple[int, int]]:
    """All grid points (x, y) on line l, ordered by increasing y."""
    g = p.grid_side
    return [(n % g, n // g % g) for n in line_blocks(p, l)]


def num_lines(p: Params, s: int) -> int:
    """Number of lines covering superblock s: (s + 1)*(b**2 - 1) + 1."""
    if not 1 <= s <= p.b:
        raise ValueError(f"superblock {s} out of range [1, {p.b}]")
    return (s + 1) * (p.grid_side - 1) + 1


def line_ordinal(p: Params, l: LineRef) -> int:
    """Dense 0-based position of line l within its superblock's family.

    Anchors are numbered in increasing order, so line (s, a) maps to
    a + s*(b**2 - 1), a bijection onto [0, num_lines(p, s)).
    """
    s, a = l
    lo_a, hi_a = anchor_bounds(p, s)
    if not lo_a <= a < hi_a:
        raise ValueError(f"anchor {a} out of range [{lo_a}, {hi_a})")
    return a + s * (p.grid_side - 1)


def lines_of_superblock(p: Params, s: int) -> Iterator[LineRef]:
    """Iterate superblock s's lines in anchor order."""
    lo, hi = anchor_bounds(p, s)
    for a in range(lo, hi):
        yield LineRef(s, a)
