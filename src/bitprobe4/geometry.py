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
and lines from different superblocks intersect in at most one point.  One
int names a line, its B line ordinal (`Params.line`), the lines numbered in
table B's order: superblock first, then ascending anchor.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

_new = tuple.__new__  # builds a NamedTuple without its Python-level __new__

# Up to this b, the routing pipeline reads each block's sort key and line
# from `Params._inverses`, and the verify kernel's int path
# (`scheme._routing_bits`, `oracle._yes_bits`) its line masks, so a verified
# subset's tables A, B and C stay ints; above it, keys and lines are computed
# from (s, x, y) and the kernel calls `_fill_tables` and `yes_set`, which walk
# `line_blocks` on bytes at every b.  Built once per b and process, the table takes
# 0.05 ms and 1.3 KiB at b = 2, 0.22 ms and 8 KiB at b = 3, 0.7 ms and 66 KiB
# at b = 4, 2.1 ms and 384 KiB at b = 5, 5.2 ms and 1.2 MiB at b = 6, and
# 18 ms and 9.8 MiB at b = 8, where one `verify_random(8, 200, jobs=2)` call
# lasts about 30 ms (2-vCPU VM, Python 3.11, size under `tracemalloc`).
INVERSE_TABLE_MAX_B = 5


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


class _Inverses(NamedTuple):
    """The small-b table of `Params`, for the routing pipeline and the verify
    kernel's int path.  line_masks[line] has a set bit per A position on the
    line with that B line ordinal (its `line_blocks`).  column_mask has a set
    bit at each A position reading C bit 0 (`c_blocks(0)`), so C bit q*b + i is
    read at column_mask << q.  For block (s, x, y) at A position q, lines[q] is
    its `line` and keys[q] = (s - 1)*b**4 + x*b**2 + y sorts it by (s, x, y)."""

    line_masks: tuple[int, ...]
    column_mask: int
    lines: tuple[int, ...]
    keys: tuple[int, ...]


def _mask(r: range) -> int:
    """The int whose set bits are the progression r, in closed form: the
    repunit 1 + 2**step + ... + 2**(step*(len - 1)), shifted to r.start."""
    return ((1 << r.step * len(r)) - 1) // ((1 << r.step) - 1) << r.start


class _lazy:
    """An attribute computed on first read, then kept as a plain instance
    attribute: `cached_property` writes `__dict__` directly, which slows
    every later attribute read of the instance."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__  # so `help(Params)` shows it

    def __get__(self, obj, cls=None):
        if obj is None:  # read on the class, as `pydoc` does
            return self
        object.__setattr__(obj, self.fn.__name__, value := self.fn(obj))
        return value


class Params:
    """The constants of one block size b, and the one home of the bit
    positions of tables A, B and C (formulas in `tables.py`) and of their
    inverses.  Position methods do not validate their inputs: callers pass
    addresses already checked by `validate_block`/`validate_element`,
    `scheme._group_ordinals` or `tables.deserialize`.

    b >= 2 is required; b = 1 collapses the grid to a single point and the
    superblock structure to a single block, which the scheme does not
    support.  Frozen; equal, and hashed, by b alone.
    """

    def __init__(self, b: int) -> None:
        if not isinstance(b, int) or isinstance(b, bool):
            raise TypeError(f"b must be an int, got {type(b).__name__}")
        if b < 2:
            raise ValueError(f"b must be >= 2, got {b}")
        g = b * b
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "grid_side", g)  # b**2
        object.__setattr__(self, "blocks_per_superblock", g * g)  # b**4
        object.__setattr__(self, "num_blocks", g * g * b)  # b**5
        object.__setattr__(self, "universe_size", g * g * g)  # m = b**6

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"Params is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self.b == other.b if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.b,))

    def __repr__(self) -> str:
        return f"Params(b={self.b!r})"

    def __reduce__(self) -> tuple:
        """Pickled as b alone, without the lazy tables, and unpickled as
        `cached_params(b)`, so a worker process reads its own shared
        instance."""
        return cached_params, (self.b,)

    num_superblocks = property(lambda self: self.b, doc="Number of superblocks: b.")

    @_lazy
    def line_zero(self) -> tuple[int, ...]:
        """The B line ordinal of line (s, 0) for s = 1, ..., b, built on
        first read and shared per b through `cached_params`: the one table
        per superblock, b_offset(s) // b + s*(b**2 - 1), the base that
        `line` adds the anchor x - s*y to."""
        b, w = self.b, self.grid_side - 1
        return tuple(self.b_offset(s) // b + s * w for s in range(1, b + 1))

    @_lazy
    def table_sizes(self) -> tuple[int, int, int]:
        """|A|, |B|, |C| in bits, built on first read; closed form, so O(1)
        for a hostile b."""
        return self.num_blocks, self.b_offset(self.b + 1), self.blocks_per_superblock * self.b

    def b_offset(self, s: int) -> int:
        """Start of superblock s's line slots in B (s = b + 1 gives |B|)."""
        return self.b * ((self.grid_side - 1) * (s - 1) * (s + 2) // 2 + s - 1)

    def a_pos(self, s: int, x: int, y: int) -> int:
        """A(s, x, y), which is also the block's ordinal n // b."""
        return (s - 1) * self.blocks_per_superblock + y * self.grid_side + x

    def line(self, s: int, x: int, y: int) -> int:
        """The B line ordinal of block (s, x, y)'s line, the one home of a
        block's line: its slot in B is line*b, and B(line, i) = line*b + i."""
        return self.line_zero[s - 1] + x - s * y

    def c_pos(self, x: int, y: int, i: int) -> int:
        return (y * self.grid_side + x) * self.b + i

    @_lazy
    def _inverses(self) -> "_Inverses | None":
        """The small-b table of the routing pipeline and the verify kernel's
        int path, built on first use from the closed forms when
        b <= INVERSE_TABLE_MAX_B, else None; shared per b through `cached_params`."""
        b, g = self.b, self.grid_side
        if b > INVERSE_TABLE_MAX_B:
            return None
        blocks = [(s, x, y) for s in range(1, b + 1) for y in range(g) for x in range(g)]
        return _Inverses(
            tuple(map(_mask, map(self.line_blocks, range(self.table_sizes[1] // b)))),
            _mask(self.c_blocks(0)[0]),
            tuple(self.line(s, x, y) for s, x, y in blocks),
            tuple(((s - 1) * g + x) * g + y for s, x, y in blocks),
        )

    def line_blocks(self, line: int) -> range:
        """A positions of the blocks on a line, by increasing y: the inverse of `line`.

        The line is (s, anchor = line - line_zero[s - 1]), where s is the
        first superblock whose last line, line_zero[s - 1] + b**2 - 1, is not
        below it; its grid points are the integer solutions of
        x = anchor + s*y inside [0, b**2)^2, so the positions
        (s - 1)*b**4 + y*b**2 + x form the progression
        (s - 1)*b**4 + anchor + y*(b**2 + s).
        """
        g = self.grid_side
        zero = self.line_zero
        s = bisect_right(zero, line - g) + 1
        anchor = line - zero[s - 1]
        y_lo = -(anchor // s) if anchor < 0 else 0  # max and min, without the calls
        y_hi = (g - 1 - anchor) // s + 1
        if y_hi > g:
            y_hi = g
        base = (s - 1) * self.blocks_per_superblock + anchor
        return range(base + y_lo * (g + s), base + y_hi * (g + s), g + s)

    def c_blocks(self, pos: int) -> tuple[range, int]:
        """Inverse of C: the A positions of the blocks reading C bit pos,
        one per superblock, and the index i they read it for."""
        q, i = divmod(pos, self.b)
        return range(q, self.num_blocks, self.blocks_per_superblock), i

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


@lru_cache(maxsize=32, typed=True)
def cached_params(b: int) -> Params:
    """`Params(b)`, built once per b; the 32 most recent b are kept.  An
    invalid b raises on every call and is never cached (`typed`, so 2.0
    does not hit b = 2)."""
    return Params(b)


def element_from_ordinal(p: Params, n: int) -> ElementAddr:
    """Decode flat ordinal n in [0, m) to its (s, x, y, i) address."""
    b, g, m = p.b, p.grid_side, p.universe_size
    if not 0 <= n < m:
        raise ValueError(f"ordinal {n} out of range [0, {m})")
    q = n // b  # floor division: `divmod` allocates a tuple per call
    x = q % g
    q //= g
    return _new(ElementAddr, (_new(BlockAddr, (q // g + 1, x, q % g)), n % b))


def element_to_ordinal(p: Params, e: ElementAddr) -> int:
    """Encode an (s, x, y, i) address back to its flat ordinal."""
    validate_element(p, e)
    blk, i = e
    return p.a_pos(*blk) * p.b + i


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
    blk, i = e  # by position, so a plain ((s, x, y), i) tuple works too
    validate_block(p, blk)
    if not 0 <= i < p.b:
        raise ValueError(f"block index {i} out of range [0, {p.b})")


def line_of(blk: BlockAddr) -> LineRef:
    """The unique cover line of blk's superblock through its grid point.

    A point (x, y) lies on the slope-1/s line anchored at a exactly when
    x - s*y = a, so the anchor is read off directly.
    """
    return LineRef(blk.s, blk.x - blk.s * blk.y)


def points_on_line(p: Params, l: LineRef) -> list[tuple[int, int]]:
    """All grid points (x, y) on line l = (s, anchor), ordered by increasing
    y.  ValueError unless 1 <= s <= b and -s*(b**2 - 1) <= anchor < b**2:
    the lines of superblock s, each holding at least one point."""
    s, anchor = l
    if not 1 <= s <= p.b:
        raise ValueError(f"superblock {s} out of range [1, {p.b}]")
    g = p.grid_side
    if not -s * (g - 1) <= anchor < g:
        raise ValueError(f"anchor {anchor} out of range [{-s * (g - 1)}, {g})")
    return [(n % g, n // g % g) for n in p.line_blocks(p.line_zero[s - 1] + anchor)]
