import pytest

from bitprobe4.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_empty_set(self, tmp_path, capsys):
        out_file = tmp_path / "empty.bp4"
        code, out, _ = run(capsys, "build", "--b", "2", "--set", "", "--out", str(out_file))
        assert code == 0
        assert "total=98 bits (13 payload bytes)" in out
        assert out_file.stat().st_size == 50

    def test_singleton_has_one_b_bit(self, tmp_path, capsys):
        out_file = tmp_path / "one.bp4"
        code, out, _ = run(capsys, "build", "--b", "2", "--set", "0", "--out", str(out_file))
        assert code == 0
        code, out, _ = run(capsys, "dump", "--in", str(out_file))
        assert code == 0
        assert "B: 34 bits, set=[6]" in out

    def test_too_many_elements(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "build", "--b", "2", "--set", "0,1,2,3,4", "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert "error:" in err

    def test_bad_ordinal(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "build", "--b", "2", "--set", "64", "--out", str(tmp_path / "x")
        )
        assert code == 2

    @pytest.mark.parametrize("size", [("--m", str(10**400)), ("--b", "54")])
    def test_oversized_structure_refused(self, tmp_path, capsys, size):
        out_file = tmp_path / "x"
        code, _, err = run(capsys, "build", *size, "--set", "0", "--out", str(out_file))
        assert code == 2
        assert "over the limit" in err
        assert not out_file.exists()

    def test_refused_build_prints_no_notice(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "build", "--m", str(10**400), "--set", "0", "--out", str(tmp_path / "x")
        )
        assert code == 2 and out == ""
        assert "over the limit" in err

    def test_m_padding_notice(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "build", "--m", "100", "--set", "0", "--out", str(tmp_path / "m.bp4")
        )
        assert code == 0
        assert "padded to m=729" in out


class TestQuery:
    @pytest.fixture
    def structure_file(self, tmp_path, capsys):
        path = tmp_path / "s.bp4"
        assert main(["build", "--b", "2", "--set", "0", "--out", str(path)]) == 0
        capsys.readouterr()
        return str(path)

    def test_member_yes(self, structure_file, capsys):
        code, out, _ = run(capsys, "query", "--in", structure_file, "--element", "0")
        assert code == 0
        assert out.startswith("YES")
        assert "A[0]=0 ; B[6]=1" in out

    def test_nonmember_no(self, structure_file, capsys):
        code, out, _ = run(capsys, "query", "--in", structure_file, "--element", "1")
        assert code == 1
        assert out.startswith("NO")
        assert "A[0]=0 ; B[7]=0" in out

    def test_tuple_format(self, structure_file, capsys):
        code, out, _ = run(
            capsys, "query", "--in", structure_file, "--element", "63", "--fmt", "tuple"
        )
        assert code == 1
        assert "(s=2,x=3,y=3,i=1)" in out

    def test_element_out_of_range(self, structure_file, capsys):
        code, _, err = run(capsys, "query", "--in", structure_file, "--element", "64")
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "query", "--in", str(tmp_path / "nope"), "--element", "0")
        assert code == 2


class TestVerify:
    def test_exhaustive_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--b", "2", "--exhaustive", "--max-n", "1")
        assert code == 0
        assert "verdict: PASS" in out

    def test_random_csv(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--b", "2", "--trials", "20", "--seed", "1", "--csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "b,subsets,queries,failures,seconds"
        assert lines[1].startswith("2,20,1280,0,")

    def test_infeasible_refused(self, capsys):
        code, _, err = run(capsys, "verify", "--b", "9", "--exhaustive")
        assert code == 2
        assert "error:" in err

    def test_jobs_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--b", "2", "--trials", "20", "--seed", "1", "--jobs", "2"
        )
        assert code == 0
        assert "verdict: PASS" in out

    @pytest.mark.parametrize("mode", [("--trials", "5"), ("--exhaustive", "--max-n", "1")])
    def test_bad_jobs_refused(self, capsys, mode):
        code, out, err = run(capsys, "verify", "--b", "2", *mode, "--jobs", "-3")
        assert code == 2 and out == ""
        assert "jobs must be >= 1" in err


class TestStatsAndDump:
    def test_stats_rows(self, capsys):
        code, out, _ = run(capsys, "stats", "--b-range", "2..4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[1].split() == ["2", "32", "34", "32", "98", "3.0625"]
        assert lines[3].split() == ["4", "1024", "856", "1024", "2904", "2.8359"]

    def test_stats_bad_range(self, capsys):
        assert run(capsys, "stats", "--b-range", "4..2")[0] == 2
        assert run(capsys, "stats", "--b-range", "garbage")[0] == 2
        # no structure above b = 53 can be built: refused before any row
        for text in ("2..54", "2..100000000"):
            code, out, err = run(capsys, "stats", "--b-range", text)
            assert (code, out) == (2, "") and "table bits" in err

    def test_dump_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "t.bp4"
        assert main(["build", "--b", "2", "--set", "", "--out", str(path)]) == 0
        capsys.readouterr()
        path.write_bytes(path.read_bytes()[:-3])
        code, _, err = run(capsys, "dump", "--in", str(path))
        assert code == 2
        assert "error:" in err
