"""Packed bit tables A, B, C and their canonical layouts.

Table A holds one bit per block and steers the second probe: 0 sends the
query to table B, 1 to table C.  Table B reserves one block of b bits for
every cover line of every superblock.  Table C reserves one block of b bits
for every grid coordinate, shared by all superblocks.  Exact sizes:

    |A| = b**5
    |B| = sum over superblocks s of num_lines(s) * b
        = b * ((b**2 - 1) * b * (b + 3) // 2 + b)
    |C| = b**4 * b = b**5

Bit positions (their one home is `geometry.Params`, which also inverts them):

    A(s, x, y)    = (s - 1) * b**4 + y * b**2 + x
    B(line, i)    = offset(s) + line_ordinal(line) * b + i
    C(x, y, i)    = (y * b**2 + x) * b + i

where offset(s) accumulates num_lines(j) * b over superblocks j < s:

    offset(s)     = b * ((b**2 - 1) * (s - 1) * (s + 2) / 2 + s - 1)

Bits pack least-significant-bit first: bit k lives in byte k // 8 at bit
position k % 8.  The serialized file is magic "BP42", a version byte, b as
8-byte little-endian, then tables A, B, C, each as an 8-byte little-endian
bit length followed by ceil(len/8) payload bytes.  No padding between
sections; trailing bytes are an error.
"""

from __future__ import annotations

from typing import Iterator

from .geometry import Params, cached_params

MAGIC = b"BP42"
FORMAT_VERSION = 1

# Largest structure the package allocates: 2**30 table bits (128 MiB), b <= 53.
MAX_STRUCTURE_BITS = 1 << 30

# Maps each nonzero byte to 1, so `find` skips zero bytes at C speed.
_NONZERO = bytes([0] + [1] * 255)


class ParseError(ValueError):
    """Base class for serialization format violations."""


class BadMagicError(ParseError):
    pass


class UnsupportedVersionError(ParseError):
    pass


class LengthMismatchError(ParseError):
    pass


class TrailingDataError(ParseError):
    pass


class BitTable:
    """A fixed-length sequence of bits packed LSB-first into a bytearray."""

    __slots__ = ("nbits", "data")

    def __init__(self, nbits: int, data: bytearray | None = None):
        if nbits < 0:
            raise ValueError(f"bit count must be >= 0, got {nbits}")
        nbytes = (nbits + 7) // 8
        if data is None:
            data = bytearray(nbytes)
        elif len(data) != nbytes:
            raise ValueError(f"need {nbytes} bytes for {nbits} bits, got {len(data)}")
        self.nbits = nbits
        self.data = data

    def __len__(self) -> int:
        return self.nbits

    def _check(self, pos: int) -> None:
        if not 0 <= pos < self.nbits:
            raise IndexError(f"bit {pos} out of range [0, {self.nbits})")

    def flip(self, pos: int) -> None:
        self._check(pos)
        self.data[pos >> 3] ^= 1 << (pos & 7)

    def ones(self) -> Iterator[int]:
        """Positions of set bits, ascending; zero bytes are skipped at C speed,
        and each nonzero byte yields its lowest set bit until it is spent."""
        data, nbits = self.data, self.nbits
        flags = data.translate(_NONZERO)
        k = flags.find(1)
        while k >= 0:
            v = data[k]
            while v:
                pos = (k << 3) + (v & -v).bit_length() - 1
                if pos >= nbits:  # padding bits of the last byte
                    return
                yield pos
                v &= v - 1
            k = flags.find(1, k + 1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitTable):
            return NotImplemented
        return self.nbits == other.nbits and self.data == other.data

    def __repr__(self) -> str:
        return f"BitTable(nbits={self.nbits}, ones={list(self.ones())!r})"


class Structure:
    """The parameters and the three bit tables; equal by these fields, unhashable.
    Not a NamedTuple, whose field reads CPython does not specialise in `query`."""

    def __init__(self, params: Params, table_a: BitTable, table_b: BitTable, table_c: BitTable):
        self.params, self.table_a, self.table_b, self.table_c = params, table_a, table_b, table_c

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.params, self.table_a, self.table_b, self.table_c) == (
            other.params, other.table_a, other.table_b, other.table_c)

    def __repr__(self) -> str:
        return (f"Structure(params={self.params!r}, table_a={self.table_a!r}, "
                f"table_b={self.table_b!r}, table_c={self.table_c!r})")

    @classmethod
    def empty(cls, p: Params) -> "Structure":
        """All-zero structure, the encoding of the empty set; ValueError,
        before allocating, above MAX_STRUCTURE_BITS."""
        na, nb, nc = p.table_sizes
        if na + nb + nc > MAX_STRUCTURE_BITS:
            raise ValueError(
                f"b={p.b} needs {na + nb + nc} table bits, over the limit of "
                f"{MAX_STRUCTURE_BITS} (b <= 53)"
            )
        return cls(p, BitTable(na), BitTable(nb), BitTable(nc))

    def total_bits(self) -> int:
        return self.table_a.nbits + self.table_b.nbits + self.table_c.nbits


def serialize(st: Structure) -> bytes:
    """Encode st in the canonical byte format; deterministic per structure.

    Joined in one allocation of the final size: growing a bytearray and
    copying it out doubles a write's transient memory at large b.
    """
    parts = [MAGIC, bytes([FORMAT_VERSION]), st.params.b.to_bytes(8, "little")]
    for table in (st.table_a, st.table_b, st.table_c):
        parts += (table.nbits.to_bytes(8, "little"), table.data)
    return b"".join(parts)


def _take(blob: bytes, pos: int, count: int, what: str) -> tuple[bytes, int]:
    if pos + count > len(blob):
        raise LengthMismatchError(
            f"truncated stream: need {count} bytes for {what} at offset {pos}, "
            f"have {len(blob) - pos}"
        )
    return blob[pos : pos + count], pos + count


def deserialize(blob: bytes) -> Structure:
    """Decode the canonical byte format, validating every length exactly."""
    magic, pos = _take(blob, 0, 4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version, pos = _take(blob, pos, 1, "version")
    if version[0] != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported format version {version[0]}, expected {FORMAT_VERSION}"
        )
    raw_b, pos = _take(blob, pos, 8, "parameter b")
    b = int.from_bytes(raw_b, "little")
    if b < 2:
        raise ParseError(f"parameter b must be >= 2, got {b}")
    p = cached_params(b)
    view = memoryview(blob)  # payload slices then copy once, into the tables
    tables = []
    for name, expect in zip("ABC", p.table_sizes):
        raw_len, pos = _take(blob, pos, 8, f"table {name} bit length")
        nbits = int.from_bytes(raw_len, "little")
        if nbits != expect:
            raise LengthMismatchError(
                f"table {name} declares {nbits} bits, expected {expect} for b={b}"
            )
        payload, pos = _take(view, pos, (nbits + 7) // 8, f"table {name} payload")
        if nbits % 8 and payload[-1] >> (nbits % 8):
            raise LengthMismatchError(
                f"table {name} has nonzero padding bits beyond bit {nbits}"
            )
        tables.append(BitTable(nbits, bytearray(payload)))
    if pos != len(blob):
        raise TrailingDataError(f"{len(blob) - pos} trailing bytes after table C")
    return Structure(p, tables[0], tables[1], tables[2])
