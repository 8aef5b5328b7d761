"""Command-line front-end: build, query, verify, stats, and dump.

Exit codes are a stable contract for CI: 0 for success (PASS / YES),
1 for a negative result (NO, or a verification FAIL), 2 for any error.
"""

from __future__ import annotations

import argparse
import sys

from .geometry import Params, element_from_ordinal
from .oracle import space_audit, verify_exhaustive, verify_random
from .scheme import build_from_ordinals, query
from .tables import MAX_STRUCTURE_BITS, deserialize, serialize


def _parse_subset(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def _parse_b_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"bad range {text!r}, expected LO..HI")
    return int(lo), int(hi)


def cmd_build(args: argparse.Namespace) -> int:
    p = Params(args.b) if args.b is not None else Params.from_universe(args.m)
    st = build_from_ordinals(p, _parse_subset(args.set))  # range-checks first
    blob = serialize(st)
    with open(args.out, "wb") as fh:
        fh.write(blob)
    if args.b is None and p.universe_size != args.m:
        print(
            f"note: universe padded to m={p.universe_size} (b={p.b}) "
            f"for requested m={args.m}"
        )
    total = st.total_bits()
    print(
        f"b={p.b} m={p.universe_size} |A|={st.table_a.nbits} "
        f"|B|={st.table_b.nbits} |C|={st.table_c.nbits} total={total} bits "
        f"({(total + 7) // 8} payload bytes) -> {args.out}"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    with open(args.in_path, "rb") as fh:
        st = deserialize(fh.read())
    e = element_from_ordinal(st.params, args.element)
    answer, trace = query(st, e)
    (t1, p1, v1), (t2, p2, v2) = trace
    suffix = ""
    if args.fmt == "tuple":
        (s, x, y), i = e
        suffix = f"  (s={s},x={x},y={y},i={i})"
    print(f"{'YES' if answer else 'NO'} element={args.element}{suffix}")
    print(f"{t1}[{p1}]={v1} ; {t2}[{p2}]={v2}")
    return 0 if answer else 1


def cmd_verify(args: argparse.Namespace) -> int:
    if args.exhaustive:
        kwargs = {}
        if args.max_queries is not None:
            kwargs["max_queries"] = args.max_queries
        report = verify_exhaustive(args.b, args.max_n, jobs=args.jobs, **kwargs)
    else:
        report = verify_random(args.b, args.trials, args.seed, args.n, jobs=args.jobs)
    print(report.to_csv() if args.csv else report.to_text())
    return 0 if report.verdict == "PASS" else 1


def cmd_stats(args: argparse.Namespace) -> int:
    lo, hi = _parse_b_range(args.b_range)
    if lo < 2 or hi < lo:
        raise ValueError(f"bad range {lo}..{hi}: need 2 <= LO <= HI")
    if sum(Params(hi).table_sizes) > MAX_STRUCTURE_BITS:  # before any row is built
        raise ValueError(f"b={hi} needs over {MAX_STRUCTURE_BITS} table bits (b <= 53)")
    print(f"{'b':>4} {'|A|':>12} {'|B|':>12} {'|C|':>12} {'total':>13} {'total/b^5':>10}")
    for row in space_audit(range(lo, hi + 1)):
        print(
            f"{row.b:>4} {row.a_bits:>12} {row.b_bits:>12} {row.c_bits:>12} "
            f"{row.total_bits:>13} {row.ratio:>10.4f}"
        )
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    with open(args.in_path, "rb") as fh:
        st = deserialize(fh.read())
    print(f"b={st.params.b} m={st.params.universe_size}")
    for name, table in (("A", st.table_a), ("B", st.table_b), ("C", st.table_c)):
        print(f"{name}: {table.nbits} bits, set={list(table.ones())}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitprobe4",
        description="Two-probe membership structures for subsets of size at most 4.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build and serialize a structure")
    size = b.add_mutually_exclusive_group(required=True)
    size.add_argument("--b", type=int, help="block size parameter (>= 2)")
    size.add_argument("--m", type=int, help="universe size; b = ceil(m^(1/6))")
    b.add_argument("--set", default="", help="comma-separated element ordinals")
    b.add_argument("--out", required=True, help="output file path")

    q = sub.add_parser("query", help="query a serialized structure")
    q.add_argument("--in", dest="in_path", required=True)
    q.add_argument("--element", type=int, required=True)
    q.add_argument("--fmt", choices=("plain", "tuple"), default="plain")

    v = sub.add_parser("verify", help="run brute-force verification")
    v.add_argument("--b", type=int, required=True)
    mode = v.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--trials", type=int)
    v.add_argument("--max-n", type=int, default=4, help="subset size cap (exhaustive)")
    v.add_argument("--max-queries", type=int, help="override the feasibility limit")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--n", type=int, default=4, help="subset size (random trials)")
    v.add_argument("--csv", action="store_true")
    v.add_argument("--jobs", type=int, default=1)

    s = sub.add_parser("stats", help="print exact table sizes per b")
    s.add_argument("--b-range", required=True, help="inclusive range LO..HI")

    d = sub.add_parser("dump", help="print the contents of a structure file")
    d.add_argument("--in", dest="in_path", required=True)

    return parser


_DISPATCH = {
    "build": cmd_build,
    "query": cmd_query,
    "verify": cmd_verify,
    "stats": cmd_stats,
    "dump": cmd_dump,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
