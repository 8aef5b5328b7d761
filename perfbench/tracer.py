"""In-memory span tracer for the traced benchmark run.

The tracer wraps the layer functions of `bitprobe4` (module attributes, in
every module that holds a reference to them) so each call records a span:
name, start, end, parent span and root span; the spans under one
top-level call (a verify_random call, or one library call of serve-b16)
share its root.  Call counts and total time per span name, and self time
per layer, are aggregated on the fly; the first `capacity` spans are also
kept in typed arrays and written out as CSV by `write_csv` at the end.

A layer function that the package no longer defines is listed in
`missing` and never wrapped, so the traced run keeps working.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# (span name, home module, attribute).  Two functions may share a span name.
LAYER_FUNCTIONS = (
    ("geometry.decode", "geometry", "element_from_ordinal"),
    ("scheme.group", "scheme", "group_members"),
    ("scheme.classify", "scheme", "classify"),
    ("scheme.assign", "scheme", "assign_blocks"),
    # No metric of its own (fill is build minus group minus assign); the
    # span keeps its time in the scheme layer when oracle calls it.
    ("scheme.fill_tables", "scheme", "_fill_tables"),
    ("scheme.build", "scheme", "build"),
    ("scheme.query", "scheme", "query"),
    ("tables.serialize", "tables", "serialize"),
    ("tables.deserialize", "tables", "deserialize"),
    ("oracle.draw_subset", "oracle", "draw_subset"),
    ("oracle.draw_nonmembers", "oracle", "_draw_nonmembers"),
    ("oracle.element_table", "oracle", "_element_table"),
    ("oracle.sweep", "oracle", "check_membership"),
    ("oracle.sweep", "oracle", "check_sampled"),
    ("oracle.verify_random", "oracle", "verify_random"),
)


class Tracer:
    def __init__(self, capacity: int = 1 << 16):
        self.names: list[str] = []
        self._layer: list[str] = []
        self._ids: dict[str, int] = {}
        # Open spans: [name id, start ns, child ns, stored index or -1].
        self._stack: list[list[int]] = []
        self._root = -1
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.child_ns: dict[tuple[int, int], int] = {}
        # Self time per layer and root time, summed only while `measuring`.
        self.measuring = True
        self.layer_self_ns: dict[str, int] = {}
        self.root_ns = 0
        self.counts: dict[str, int] = {}
        self.element_table_first_ns = 0
        self.missing: list[str] = []
        self.capacity = capacity
        self.stored = 0
        self.dropped = 0
        self._sp_name = array("H", bytes(2 * capacity))
        self._sp_parent = array("l", bytes(array("l").itemsize * capacity))
        self._sp_root = array("l", bytes(array("l").itemsize * capacity))
        self._sp_start = array("q", bytes(8 * capacity))
        self._sp_end = array("q", bytes(8 * capacity))

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer.append(name.split(".", 1)[0])
            self.calls.append(0)
            self.total_ns.append(0)
        return nid

    def begin(self, nid: int) -> None:
        idx = -1
        if self.stored < self.capacity:
            idx = self.stored
            self.stored += 1
            parent = self._stack[-1][3] if self._stack else -1
            if not self._stack:
                self._root = idx
            self._sp_name[idx] = nid
            self._sp_parent[idx] = parent
            self._sp_root[idx] = self._root
        else:
            self.dropped += 1
        entry = [nid, 0, 0, idx]
        self._stack.append(entry)
        # The clock is read last here and first in end(), so a span does
        # not include its own bookkeeping.
        entry[1] = start = time.perf_counter_ns()
        if idx >= 0:
            self._sp_start[idx] = start

    def end(self) -> int:
        """Close the innermost span and return its duration in ns."""
        now = time.perf_counter_ns()
        nid, start, child, idx = self._stack.pop()
        dur = now - start
        if idx >= 0:
            self._sp_end[idx] = now
        self.calls[nid] += 1
        self.total_ns[nid] += dur
        if self.measuring:
            layer = self._layer[nid]
            self.layer_self_ns[layer] = self.layer_self_ns.get(layer, 0) + dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            key = (parent[0], nid)
            self.child_ns[key] = self.child_ns.get(key, 0) + dur
        elif self.measuring:
            self.root_ns += dur
        return dur

    def count(self, key: str, value: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def stat(self, name: str) -> tuple[int, int]:
        """(calls, total ns) of a span name; (0, 0) if never recorded."""
        nid = self._ids.get(name)
        return (0, 0) if nid is None else (self.calls[nid], self.total_ns[nid])

    def child_total(self, parent: str, child: str) -> int:
        if parent not in self._ids or child not in self._ids:
            return 0
        return self.child_ns.get((self._ids[parent], self._ids[child]), 0)

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every present layer function for the duration of the block."""
        patched = []
        self.missing = []
        for name, home, attr in LAYER_FUNCTIONS:
            orig = getattr(modules[home], attr, None)
            if orig is None:
                self.missing.append(f"{home}.{attr}")
                continue
            wrapper = self._wrap(name, orig)
            for mod in modules.values():
                if getattr(mod, attr, None) is orig:
                    patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(patched):
                setattr(mod, attr, orig)

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        hook = getattr(self, "_on_" + name.split(".", 1)[1], None)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = end()
            if hook is not None:
                # A later change to a result's shape must not fail the
                # traced call; the counter is then reported as unreadable.
                try:
                    hook(args, result, dur)
                except Exception:
                    self.count("unreadable:" + name)
            return result

        return traced

    # Counters recorded at the layer boundary, from arguments and results.

    def _on_assign(self, args, asg, dur) -> None:
        # Candidates tried = winning mask k + 1, where bit j of k sends the
        # j-th block in sorted order to table C.
        blocks = sorted(args[1])
        k = sum(1 << j for j, blk in enumerate(blocks) if blk in asg.placed_c)
        self.count("assign_calls")
        self.count("assign_candidates", k + 1)

    def _on_query(self, args, result, dur) -> None:
        self.count("query_calls")
        if result[1][1][0] == "C":
            self.count("query_c_probes")

    def _on_serialize(self, args, blob, dur) -> None:
        self.count("serialize_calls")
        self.count("blob_bytes", len(blob))

    def _on_element_table(self, args, result, dur) -> None:
        if not self.element_table_first_ns:
            self.element_table_first_ns = dur

    def _on_sweep(self, args, result, dur) -> None:
        self.count("sweep_ns", dur)
        self.count("sweep_queries", result.queries)

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("span,parent,root,name,start_ns,end_ns\n")
            for i in range(self.stored):
                out.write(
                    f"{i},{self._sp_parent[i]},{self._sp_root[i]},"
                    f"{self.names[self._sp_name[i]]},{self._sp_start[i]},{self._sp_end[i]}\n"
                )
