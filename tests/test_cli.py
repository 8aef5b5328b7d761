import errno
import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bitprobe4 import cli, oracle
from bitprobe4.cli import main
from bitprobe4.geometry import Params
from bitprobe4.scheme import MAX_MEMBERS, build_from_ordinals
from bitprobe4.tables import deserialize, serialize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_dense(path: Path, b: int) -> None:
    """A structure file with every bit of every table set."""
    st = build_from_ordinals(Params(b), [])
    for table in (st.table_a, st.table_b, st.table_c):
        table.data[:] = ((1 << table.nbits) - 1).to_bytes(len(table.data), "little")
    path.write_bytes(serialize(st))


def main_in_child(argv: list[str]) -> list[str]:
    """The command line of a child process that exits with main(argv)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); from bitprobe4.cli import main; sys.exit(main({argv!r}))"
    return [sys.executable, "-B", "-c", code]


class NullSink:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("--trials", "5", "--max-queries", "1", "--max-n", "0"),
            ("--exhaustive", "--max-n", "1", "--seed", "9", "--n", "3"),
            ("--trials", "5", "--max-queries", "1"),
            ("--exhaustive", "--n", "3"),
        ],
    )
    def test_options_of_the_other_mode_refused(self, capsys, argv):
        code, out, err = run(capsys, "verify", "--b", "2", *argv)
        assert code == 2 and out == ""
        assert "applies only with" in err

    def test_each_mode_fills_its_defaults(self, capsys, monkeypatch):
        calls, report = [], oracle.verify_random(2, 1, 0)

        def fake(*args, **kwargs):
            calls.append((args, kwargs))
            return report

        monkeypatch.setattr(cli, "verify_exhaustive", fake)
        monkeypatch.setattr(cli, "verify_random", fake)
        assert run(capsys, "verify", "--b", "2", "--exhaustive")[0] == 0
        assert run(capsys, "verify", "--b", "2", "--trials", "5")[0] == 0
        assert calls == [
            ((2, MAX_MEMBERS), {"jobs": 1, "max_queries": oracle.DEFAULT_MAX_QUERIES}),
            ((2, 5, 0, MAX_MEMBERS), {"jobs": 1}),
        ]

    @pytest.mark.parametrize(
        "mode", [("--trials", "1"), ("--exhaustive", "--max-n", "0", "--max-queries", str(10**41))]
    )
    def test_oversized_b_refused_before_any_draw(self, mode):
        # Drawing from a b**6 > 2**64 universe never ends and enumerating it
        # overflows, so the run is a child process with a timeout.
        argv = ["verify", "--b", "1626", *mode]
        out = subprocess.run(main_in_child(argv), capture_output=True, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (2, "")
        assert "table bits" in out.stderr

    def test_each_mode_takes_its_own_options(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--b", "2", "--exhaustive", "--max-n", "1", "--max-queries", "5000", "--csv"
        )
        assert code == 0 and out.splitlines()[1].startswith("2,65,4160,0,")
        code, out, _ = run(capsys, "verify", "--b", "2", "--trials", "5", "--seed", "9", "--n", "3", "--csv")
        assert code == 0 and out.splitlines()[1].startswith("2,5,320,0,")


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

    def test_dump_of_a_dense_file_is_unchanged(self, tmp_path, capsys):
        # Each table's set bits print as one list; the digest was recorded
        # from the dump that formatted list(table.ones()) in one piece.
        path = tmp_path / "dense3.bp4"
        write_dense(path, 3)
        code, out, _ = run(capsys, "dump", "--in", str(path))
        st = deserialize(path.read_bytes())
        tables = (("A", st.table_a), ("B", st.table_b), ("C", st.table_c))
        assert code == 0
        assert out == "b=3 m=729\n" + "".join(
            f"{name}: {t.nbits} bits, set={list(t.ones())}\n" for name, t in tables
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2b8cd6060461d61470fa587a23cfa5e1efe59146c9fd9cb3f2758ae1a5019148"
        )

    def test_dump_streams_its_set_bits(self, tmp_path, monkeypatch):
        path = tmp_path / "dense8.bp4"
        write_dense(path, 8)
        table = deserialize(path.read_bytes()).table_a
        monkeypatch.setattr(sys, "stdout", NullSink())
        tracemalloc.start()
        try:
            # One table's line formatted whole, as a list of its set bits.
            listed = f"A: {table.nbits} bits, set={list(table.ones())}"
            whole = tracemalloc.get_traced_memory()[1]
            del listed
            tracemalloc.reset_peak()
            assert main(["dump", "--in", str(path)]) == 0
            streamed = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert streamed * 5 < whole

    def test_dump_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "t.bp4"
        assert main(["build", "--b", "2", "--set", "", "--out", str(path)]) == 0
        capsys.readouterr()
        path.write_bytes(path.read_bytes()[:-3])
        code, _, err = run(capsys, "dump", "--in", str(path))
        assert code == 2
        assert "error:" in err


# Runs the command after it with its stdout (fd 1) or stderr (fd 2) closed.
CLOSING_STDOUT = ["sh", "-c", 'exec "$0" "$@" >&-']
CLOSING_STDERR = ["sh", "-c", 'exec "$0" "$@" 2>&-']


class TestClosedStdout:
    """A reader that closes stdout, or a stdout closed from the start, never
    changes the exit code: each command returns its code and its output, and
    `main`, the one writer, keeps the code without a message when a write
    meets a closed pipe, and drops the output when there is no stdout.  Any
    other failed write exits 2, and so does an error whose report cannot be
    written.  Each run is a child process whose stdout or stderr is a pipe
    with its read end already closed, a full device, or closed."""

    def run_child(self, argv, stdout, unbuffered=False):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        out = subprocess.run(
            main_in_child(argv), stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60
        )
        return out.returncode, out.stderr

    def run_closed(self, argv, unbuffered=False):
        read, write = os.pipe()
        os.close(read)
        try:
            return self.run_child(argv, write, unbuffered)
        finally:
            os.close(write)

    @pytest.fixture
    def structure_file(self, tmp_path):
        path = tmp_path / "s.bp4"
        path.write_bytes(serialize(build_from_ordinals(Params(2), [0])))
        return str(path)

    def test_a_returned_command_keeps_its_code(self, structure_file, tmp_path):
        # Block-buffered stdout: the output is written by main's flush,
        # after the command has returned.
        assert self.run_closed(["query", "--in", structure_file, "--element", "0"]) == (0, "")
        assert self.run_closed(["query", "--in", structure_file, "--element", "1"]) == (1, "")
        assert self.run_closed(["verify", "--b", "2", "--trials", "3"]) == (0, "")
        out_file = tmp_path / "t.bp4"
        assert self.run_closed(["build", "--b", "2", "--set", "0", "--out", str(out_file)]) == (0, "")
        assert out_file.read_bytes() == Path(structure_file).read_bytes()

    @pytest.fixture
    def dense_file(self, tmp_path):
        path = tmp_path / "dense8.bp4"
        write_dense(path, 8)  # its dump is far over the 8 KiB buffer
        return str(path)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["query", "--in", "{structure_file}", "--element", "0"], 0),
            (["query", "--in", "{structure_file}", "--element", "1"], 1),
            (["verify", "--b", "2", "--trials", "3"], 0),
            (["dump", "--in", "{dense_file}"], 0),
            (["stats", "--b-range", "2..40"], 0),
        ],
        ids=["member", "non-member", "verify", "dense-dump", "stats"],
    )
    def test_a_closed_reader_keeps_the_code(self, structure_file, dense_file, argv, code, unbuffered):
        # The first failed write comes mid-output (unbuffered, or an output
        # over the buffer) or at the last flush; either way the code stands.
        argv = [a.format(structure_file=structure_file, dense_file=dense_file) for a in argv]
        assert self.run_closed(argv, unbuffered) == (code, "")

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["query", "--in", "{}", "--element", "0"], 0, ""),
            (["query", "--in", "{}", "--element", "1"], 1, ""),
            (["query", "--in", "{}", "--element", "64"], 2, "error: ordinal 64 out of range [0, 64)\n"),
            (["stats", "--b-range", "2..40"], 0, ""),
        ],
        ids=["member", "non-member", "out-of-range", "stats"],
    )
    def test_a_stdout_closed_from_the_start_keeps_the_code(self, structure_file, argv, code, err):
        argv = [a.format(structure_file) for a in argv]
        cmd = CLOSING_STDOUT + main_in_child(argv)
        out = subprocess.run(cmd, stderr=subprocess.PIPE, text=True, timeout=60)
        assert (out.returncode, out.stderr) == (code, err)

    def test_an_error_with_stderr_closed_exits_2(self, tmp_path):
        argv = ["query", "--in", str(tmp_path / "nope"), "--element", "0"]
        cmd = CLOSING_STDERR + main_in_child(argv)
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60)
        assert (out.returncode, out.stdout) == (2, "")  # the report is not moved to stdout

    @pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
    def test_an_error_whose_report_cannot_be_written_exits_2(self, tmp_path, sink):
        # stderr is a pipe whose reader has gone, or a full device: the
        # report is dropped, and neither its write nor the interpreter's
        # last flush changes the code.
        if sink == "full-device" and not Path("/dev/full").exists():
            pytest.skip("needs a full device")
        argv = ["query", "--in", str(tmp_path / "nope"), "--element", "0"]
        if sink == "closed-pipe":
            read, err = os.pipe()
            os.close(read)
        else:
            err = os.open("/dev/full", os.O_WRONLY)
        try:
            out = subprocess.run(main_in_child(argv), stdout=subprocess.PIPE, stderr=err, text=True, timeout=60)
        finally:
            os.close(err)
        assert (out.returncode, out.stdout) == (2, "")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a full device")
    def test_a_failed_last_flush_is_an_error(self, structure_file):
        # Not a closed pipe: the output of a returned command is lost.
        with open("/dev/full", "wb") as full:
            code, err = self.run_child(["query", "--in", structure_file, "--element", "0"], full)
        assert (code, err) == (2, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a full device")
    def test_a_dense_dump_into_a_full_device_exits_2(self, dense_file):
        # The dump is far over the buffer, so a write fails mid-stream.
        with open("/dev/full", "wb") as full:
            code, err = self.run_child(["dump", "--in", dense_file], full)
        assert (code, err) == (2, f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
