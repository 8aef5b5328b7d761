"""Adaptive two-probe membership structures for subsets of size at most 4.

A universe of m = b**6 elements is stored in three packed bit tables
totalling about 3 * b**5 bits; any membership query reads exactly two bits,
the second chosen by the first.
"""

from .geometry import BlockAddr, ElementAddr, Params, element_from_ordinal, element_to_ordinal
from .oracle import (
    FeasibilityError,
    FlipAuditReport,
    VerifyReport,
    audit_bit_flips,
    space_audit,
    verify_exhaustive,
    verify_random,
)
from .scheme import AssignmentError, CapacityError, CaseLabel, build, build_from_ordinals, query
from .tables import ParseError, Structure, deserialize, serialize

__version__ = "0.1.0"

__all__ = [
    "Params",
    "BlockAddr",
    "ElementAddr",
    "element_from_ordinal",
    "element_to_ordinal",
    "Structure",
    "build",
    "build_from_ordinals",
    "query",
    "serialize",
    "deserialize",
    "verify_exhaustive",
    "verify_random",
    "audit_bit_flips",
    "space_audit",
    "VerifyReport",
    "FlipAuditReport",
    "CaseLabel",
    "CapacityError",
    "AssignmentError",
    "ParseError",
    "FeasibilityError",
]
