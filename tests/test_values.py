"""The package's value classes, its public names and what importing it costs.

`Params`, `Structure`, `VerifyReport` and `FlipAuditReport` are pinned by
behaviour (equality, hashing, repr, immutability, field order, report
text), not by how they are implemented, so that the implementation can
change without the interface moving.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import bitprobe4
from bitprobe4.geometry import Params, cached_params
from bitprobe4.oracle import Failure, FlipAuditReport, FlipOutcome, VerifyReport
from bitprobe4.scheme import CaseLabel, build_from_ordinals
from bitprobe4.tables import Structure


class TestParamsValue:
    def test_equality_and_hash_by_b_only(self):
        p, q = Params(3), Params(3)
        p.line_zero  # a lazy attribute on one side only changes nothing
        assert p == q and hash(p) == hash(q) == hash((3,))
        assert p != Params(4)
        assert p != 3 and p != (3,)
        assert {p: 1}[cached_params(3)] == 1

    def test_repr(self):
        assert repr(Params(3)) == "Params(b=3)"
        assert repr(cached_params(16)) == "Params(b=16)"

    @pytest.mark.parametrize(
        "name", ["b", "grid_side", "blocks_per_superblock", "num_blocks", "universe_size", "new"]
    )
    def test_frozen(self, name):
        p = Params(2)
        with pytest.raises(AttributeError):
            setattr(p, name, 5)
        if hasattr(p, name):
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert p == Params(2) and p.universe_size == 64

    def test_rejects_bool(self):
        # 2.0 and b < 2 are covered in test_geometry, identity of
        # cached_params in test_layout
        with pytest.raises(TypeError):
            Params(True)


class TestStructureValue:
    def test_equality_over_the_four_fields(self):
        p = Params(2)
        assert Structure.empty(p) == Structure.empty(p)
        assert build_from_ordinals(p, [3, 17]) == build_from_ordinals(p, [17, 3])
        assert build_from_ordinals(p, [3]) != build_from_ordinals(p, [4])
        assert Structure.empty(p) != Structure.empty(Params(3))

    def test_equality_against_other_classes(self):
        st = Structure.empty(Params(2))
        fields = (st.params, st.table_a, st.table_b, st.table_c)
        assert st != fields and st != list(fields) and st != None  # noqa: E711
        assert st == Structure(*fields)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Structure.empty(Params(2)))

    def test_repr(self):
        st = build_from_ordinals(Params(2), [0])
        assert repr(Structure.empty(Params(2))) == (
            "Structure(params=Params(b=2), table_a=BitTable(nbits=32, ones=[]), "
            "table_b=BitTable(nbits=34, ones=[]), table_c=BitTable(nbits=32, ones=[]))"
        )
        assert repr(st) == (
            f"Structure(params=Params(b=2), table_a={st.table_a!r}, "
            f"table_b={st.table_b!r}, table_c={st.table_c!r})"
        )

    def test_keyword_construction_and_total_bits(self):
        st = Structure.empty(Params(2))
        same = Structure(
            params=st.params, table_a=st.table_a, table_b=st.table_b, table_c=st.table_c
        )
        assert same == st and same.total_bits() == 98


FAILURE = Failure((3, 17), 17, True, False, (("A", 8, 1), ("C", 17, 0)))
HISTOGRAM = {CaseLabel.I: 1, CaseLabel.FEWER_THAN_4_BLOCKS: 2}


class TestVerifyReportValue:
    def test_fields_in_order(self):
        r = VerifyReport(2, 3, 192, [FAILURE], 1, HISTOGRAM, 5, 1.5)
        assert (r.b, r.subsets_checked, r.queries_checked, r.failures) == (2, 3, 192, [FAILURE])
        assert (r.failures_total, r.case_histogram) == (1, HISTOGRAM)
        assert (r.trace_violations, r.elapsed) == (5, 1.5)

    def test_defaults_and_keywords(self):
        r = VerifyReport(
            b=2, subsets_checked=0, queries_checked=0, failures=[], failures_total=0,
            case_histogram={},
        )
        assert (r.trace_violations, r.elapsed) == (0, 0.0)

    def test_verdict(self):
        assert VerifyReport(2, 1, 64, [], 0, {}).verdict == "PASS"
        assert VerifyReport(2, 1, 64, [], 7, {}).verdict == "FAIL"

    def test_text_and_csv_bytes(self):
        r = VerifyReport(2, 3, 192, [FAILURE], 1, HISTOGRAM, 0, 1.23456)
        zeros = ["II", "IIIA", "IIIB", "IVA", "IVB", "IVC_i", "IVC_ii", "IVD"]
        assert r.to_text() == "\n".join(
            [
                "b=2 subsets=3 queries=192 failures=1 trace_violations=0 seconds=1.23",
                "verdict: FAIL",
                "case histogram:",
                "  I: 1",
                *(f"  {label}: 0" for label in zeros),
                "  FEWER_THAN_4_BLOCKS: 2",
                "  FAIL subset=(3, 17) element=17 expected=True got=False "
                "trace=(('A', 8, 1), ('C', 17, 0))",
            ]
        )
        assert r.to_csv() == "\n".join(
            [
                "b,subsets,queries,failures,seconds",
                "2,3,192,1,1.235",
                "label,count",
                "I,1",
                *(f"{label},0" for label in zeros),
                "FEWER_THAN_4_BLOCKS,2",
            ]
        )


class TestFlipAuditReportValue:
    def test_fields_in_order(self):
        example = FlipOutcome(0, (), "A", 5, False)
        r = FlipAuditReport(2, 1, 98, 34, 64, [example], 0.5)
        assert (r.b, r.structures, r.flips, r.detected, r.harmless) == (2, 1, 98, 34, 64)
        assert (list(r.harmless_examples), r.elapsed) == ([example], 0.5)

    def test_defaults_and_keywords(self):
        r = FlipAuditReport(b=2, structures=1, flips=0, detected=0, harmless=0)
        assert len(r.harmless_examples) == 0 and r.elapsed == 0.0

    @pytest.mark.parametrize(
        "flips,detected,harmless,rate", [(98, 34, 64, 1.0), (10, 3, 4, 0.5), (5, 0, 5, 1.0)]
    )
    def test_detection_rate(self, flips, detected, harmless, rate):
        assert FlipAuditReport(2, 1, flips, detected, harmless).detection_rate == rate


SRC = Path(bitprobe4.__file__).resolve().parents[1]
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.mark.parametrize("module", ["bitprobe4", "bitprobe4.cli"])
def test_import_loads_no_heavy_modules(module):
    """Importing the package or its CLI loads none of `dataclasses` and the
    modules it pulls in, which cost about 10 ms per process.  `-B`, because
    `-I` ignores PYTHONDONTWRITEBYTECODE: the run writes no bytecode into
    the checkout."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); before = set(sys.modules)\n"
        f"import {module}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout.split()
    assert "bitprobe4" in out
    assert [name for name in HEAVY if name in out] == []


def test_all_is_the_readme_library_api():
    """`bitprobe4.__all__` is the list under "Library API" in the README, in
    its order, and every name in it resolves on the package."""
    readme = (SRC.parent / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = [
        name
        for line in section.splitlines()
        if line.startswith("- ")
        for name in re.findall(r"`(\w+)`", line.split(":", 1)[0])
    ]
    assert bitprobe4.__all__ == listed
    for name in bitprobe4.__all__:
        assert getattr(bitprobe4, name).__module__.startswith("bitprobe4.")
