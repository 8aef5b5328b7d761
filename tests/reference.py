"""Closed forms of the line families, the bit packing and splitmix64,
written from their definitions and sharing no code with `bitprobe4`.

The package keeps one fast home for positions and lines, `Params`; the
tests pin it against these forms.  A `p` argument is only read for `p.b`.
"""

from typing import Iterator

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def anchor_bounds(p, s: int) -> tuple[int, int]:
    """Inclusive-exclusive anchor range [lo, hi) of superblock s's lines:
    x - s*y over the grid [0, b**2)^2 runs from -s*(b**2 - 1) to b**2 - 1."""
    if not 1 <= s <= p.b:
        raise ValueError(f"superblock {s} out of range [1, {p.b}]")
    g = p.b * p.b
    return -s * (g - 1), g


def num_lines(p, s: int) -> int:
    """Number of lines covering superblock s: (s + 1)*(b**2 - 1) + 1."""
    lo, hi = anchor_bounds(p, s)
    return hi - lo


def line_ordinal(p, l: tuple[int, int]) -> int:
    """Dense 0-based position of line l = (s, anchor) in its superblock's
    family, anchors numbered in increasing order."""
    s, a = l
    lo, hi = anchor_bounds(p, s)
    if not lo <= a < hi:
        raise ValueError(f"anchor {a} out of range [{lo}, {hi})")
    return a - lo


def lines_of_superblock(p, s: int) -> Iterator[tuple[int, int]]:
    """Superblock s's lines (s, anchor), in anchor order."""
    lo, hi = anchor_bounds(p, s)
    return ((s, a) for a in range(lo, hi))


def get_bit(table, pos: int) -> int:
    """Bit pos of a table packed least-significant-bit first into `.data`."""
    if not 0 <= pos < table.nbits:
        raise IndexError(f"bit {pos} out of range [0, {table.nbits})")
    return table.data[pos // 8] >> (pos % 8) & 1


def set_bit(table, pos: int, value: int) -> None:
    """Set bit pos of a packed table to value (0 or 1)."""
    if not 0 <= pos < table.nbits:
        raise IndexError(f"bit {pos} out of range [0, {table.nbits})")
    if value:
        table.data[pos // 8] |= 1 << (pos % 8)
    else:
        table.data[pos // 8] &= ~(1 << (pos % 8))


def splitmix64_stream(seed: int) -> Iterator[int]:
    """Endless stream of 64-bit values from the splitmix64 generator."""
    state = seed & MASK64
    while True:
        state = (state + GOLDEN) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)
