"""Command-line front-end: build, query, verify, stats, and dump.

Exit codes are a stable contract for CI: 0 or 1 for the answer (YES or
PASS, NO or FAIL), 2 for an error or a failed write.  Each command does all
that can fail and returns its code with its output, which `main`, the one
writer, then writes; so a reader that closes stdout, or a stdout closed from
the start, never changes the code.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import islice

from .geometry import Params, element_from_ordinal
from .oracle import DEFAULT_MAX_QUERIES, space_audit, verify_exhaustive, verify_random
from .scheme import MAX_MEMBERS, build_from_ordinals, query
from .tables import Structure, checked_table_sizes, deserialize, serialize

# Set bits `dump` formats and writes at a time.
DUMP_CHUNK = 1024


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


def cmd_build(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    p = Params(args.b) if args.b is not None else Params.from_universe(args.m)
    st = build_from_ordinals(p, _parse_subset(args.set))  # range-checks first
    blob = serialize(st)
    with open(args.out, "wb") as fh:
        fh.write(blob)
    lines = []
    if args.b is None and p.universe_size != args.m:
        lines.append(
            f"note: universe padded to m={p.universe_size} (b={p.b}) "
            f"for requested m={args.m}\n"
        )
    total = st.total_bits()
    lines.append(
        f"b={p.b} m={p.universe_size} |A|={st.table_a.nbits} "
        f"|B|={st.table_b.nbits} |C|={st.table_c.nbits} total={total} bits "
        f"({(total + 7) // 8} payload bytes) -> {args.out}\n"
    )
    return 0, lines


def cmd_query(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    with open(args.in_path, "rb") as fh:
        st = deserialize(fh.read())
    e = element_from_ordinal(st.params, args.element)
    answer, trace = query(st, e)
    (t1, p1, v1), (t2, p2, v2) = trace
    suffix = ""
    if args.fmt == "tuple":
        (s, x, y), i = e
        suffix = f"  (s={s},x={x},y={y},i={i})"
    answer_line = f"{'YES' if answer else 'NO'} element={args.element}{suffix}\n"
    return 0 if answer else 1, [answer_line, f"{t1}[{p1}]={v1} ; {t2}[{p2}]={v2}\n"]


def _only_with(mode: str, args: argparse.Namespace, *names: str) -> None:
    """Refuse any of the named options, which belong to verify's other mode."""
    for name in names:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} applies only with {mode}")


def cmd_verify(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    if args.exhaustive:
        _only_with("--trials", args, "seed", "n")
        report = verify_exhaustive(
            args.b,
            MAX_MEMBERS if args.max_n is None else args.max_n,
            jobs=args.jobs,
            max_queries=DEFAULT_MAX_QUERIES if args.max_queries is None else args.max_queries,
        )
    else:
        _only_with("--exhaustive", args, "max_n", "max_queries")
        seed = 0 if args.seed is None else args.seed
        n = MAX_MEMBERS if args.n is None else args.n
        report = verify_random(args.b, args.trials, seed, n, jobs=args.jobs)
    text = report.to_csv() if args.csv else report.to_text()
    return 0 if report.verdict == "PASS" else 1, [text + "\n"]


def cmd_stats(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    lo, hi = _parse_b_range(args.b_range)
    if lo < 2 or hi < lo:
        raise ValueError(f"bad range {lo}..{hi}: need 2 <= LO <= HI")
    checked_table_sizes(Params(hi))  # before any row is built
    lines = [f"{'b':>4} {'|A|':>12} {'|B|':>12} {'|C|':>12} {'total':>13} {'total/b^5':>10}\n"]
    for row in space_audit(range(lo, hi + 1)):
        lines.append(
            f"{row.b:>4} {row.a_bits:>12} {row.b_bits:>12} {row.c_bits:>12} "
            f"{row.total_bits:>13} {row.ratio:>10.4f}\n"
        )
    return 0, lines


def _dump_lines(st: Structure) -> Iterator[str]:
    yield f"b={st.params.b} m={st.params.universe_size}\n"
    for name, table in (("A", st.table_a), ("B", st.table_b), ("C", st.table_c)):
        yield f"{name}: {table.nbits} bits, set=["
        ones, sep = map(str, table.ones()), ""
        while chunk := list(islice(ones, DUMP_CHUNK)):
            yield sep + ", ".join(chunk)
            sep = ", "
        yield "]\n"


def cmd_dump(args: argparse.Namespace) -> tuple[int, Iterable[str]]:
    """Each table's set bits as a list, formatted DUMP_CHUNK at a time as written."""
    with open(args.in_path, "rb") as fh:
        st = deserialize(fh.read())
    return 0, _dump_lines(st)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitprobe4",
        description="Two-probe membership structures for subsets of size at most 4.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build and serialize a structure")
    b.set_defaults(handler=cmd_build)
    size = b.add_mutually_exclusive_group(required=True)
    size.add_argument("--b", type=int, help="block size parameter (>= 2)")
    size.add_argument("--m", type=int, help="universe size; b = ceil(m^(1/6))")
    b.add_argument("--set", default="", help="comma-separated element ordinals")
    b.add_argument("--out", required=True, help="output file path")

    q = sub.add_parser("query", help="query a serialized structure")
    q.set_defaults(handler=cmd_query)
    q.add_argument("--in", dest="in_path", required=True)
    q.add_argument("--element", type=int, required=True)
    q.add_argument("--fmt", choices=("plain", "tuple"), default="plain")

    v = sub.add_parser("verify", help="run brute-force verification")
    v.set_defaults(handler=cmd_verify)
    v.add_argument("--b", type=int, required=True)
    mode = v.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--trials", type=int)
    v.add_argument("--max-n", type=int, help="subset size cap (exhaustive; default 4)")
    v.add_argument("--max-queries", type=int,
                   help="override the feasibility limit (exhaustive)")
    v.add_argument("--seed", type=int, help="trial seed (random trials; default 0)")
    v.add_argument("--n", type=int, help="subset size (random trials; default 4)")
    v.add_argument("--csv", action="store_true")
    v.add_argument("--jobs", type=int, default=1)

    s = sub.add_parser("stats", help="print exact table sizes per b")
    s.set_defaults(handler=cmd_stats)
    s.add_argument("--b-range", required=True, help="inclusive range LO..HI")

    d = sub.add_parser("dump", help="print the contents of a structure file")
    d.set_defaults(handler=cmd_dump)
    d.add_argument("--in", dest="in_path", required=True)

    return parser


def _write(stream, lines: Iterable[str]) -> OSError | None:
    """Write and flush the lines unless stream is None (closed at start); return a write's error."""
    try:
        if stream is not None:
            for line in lines:
                stream.write(line)
            stream.flush()
    except OSError as exc:  # drop the rest, so the interpreter's last flush succeeds
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())
        return exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, lines = args.handler(args)
        if (exc := _write(sys.stdout, lines)) and exc.errno != errno.EPIPE:  # EPIPE: reader gone
            raise exc
    except (ValueError, OSError) as exc:
        code = 2
        _write(sys.stderr, [f"error: {exc}\n"])  # a lost report leaves the code at 2
    return code


if __name__ == "__main__":
    sys.exit(main())
