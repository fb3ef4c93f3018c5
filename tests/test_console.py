"""The console checks, run in-process through ``cli.main`` on files that a
module fixture writes once."""

import io
import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import perronkit.cli
import perronkit.io
from oracles import traced_peak
from perronkit import SolverConfig, from_coordinates, random_primitive, read_matrix_market, write_matrix_market
from perronkit.cli import main


# gen tridiag's --n, --c, --a and --b of each coordinate file the fixture writes
TRIDIAG_FILES = {
    "t50": ["50", "1", "3", "2"],
    "p50": ["50", "1", "0", "2"],  # zero diagonal: period 2, so nothing converges
    "p51": ["51", "1", "0", "2"],  # made stochastic, a chain of period 2 that damping mends
    "h50": ["50", "1e100", "3e100", "2e100"],  # t50 scaled by 1e100
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The coordinate files of ``TRIDIAG_FILES``; r200.mtx, a random dense
    primitive matrix of order 200; and r200c.mtx, r200's entries as a
    coordinate file.  ``gen`` writes all but r200c."""
    root = tmp_path_factory.mktemp("console")
    paths = {name: str(root / f"{name}.mtx") for name in (*TRIDIAG_FILES, "r200", "r200c")}
    for name, (n, c, a, b) in TRIDIAG_FILES.items():
        assert main(["gen", "tridiag", "--n", n, "--c", c, "--a", a, "--b", b, "-o", paths[name]]) == 0
    assert main(["gen", "random", "--n", "200", "--seed", "1", "-o", paths["r200"]]) == 0
    D = read_matrix_market(paths["r200"]).to_dense()
    nz = np.nonzero(D)
    write_matrix_market(from_coordinates(200, *nz, D[nz]), paths["r200c"])
    return paths


def result_of(capsys, argv):
    """The ``result`` object of a --json run that exits 0."""
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["result"]


def result_text(capsys, argv):
    """The ``result`` object of a --json run, as sorted JSON text."""
    return json.dumps(result_of(capsys, argv), sort_keys=True)


@pytest.mark.parametrize("side", ["row", "col", "auto"])
def test_dense_and_coordinate_files_print_the_same_result(capsys, files, side):
    # the dense einsum and the CSR kernel add each sum's terms in one order
    argv = ["perron", "--algo", "b", "--side", side, "--json"]
    dense = result_text(capsys, argv + [files["r200"]])
    assert json.loads(dense)["status"] == "converged"
    assert result_text(capsys, argv + [files["r200c"]]) == dense


def test_generated_dense_file_is_rewritten_byte_for_byte(tmp_path):
    # gen's file, read and written again: 90 000 values at 17 digits, many chunks
    path, again = tmp_path / "r300.mtx", tmp_path / "r300b.mtx"
    assert main(["gen", "random", "--n", "300", "--seed", "2", "-o", str(path)]) == 0
    write_matrix_market(read_matrix_market(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_perron_json_on_a_dense_file_carries_eigenvector_not_balanced(capsys, files):
    result = result_of(capsys, ["perron", "--json", files["r200"]])
    assert len(result["eigenvector"]) == 200 and "balanced" not in result


@pytest.mark.parametrize("name", ["t50", "r200"])
def test_algorithms_a_and_b_print_one_result(capsys, files, name):
    # --algo affects text output only, so the two result members are the same bytes
    a = result_text(capsys, ["perron", "--algo", "a", "--json", files[name]])
    b = result_text(capsys, ["perron", "--algo", "b", "--json", files[name]])
    assert a == b


def test_balanced_payload_of_a_dense_file_is_dense(capsys, files):
    balanced = result_of(capsys, ["perron", "--balanced", "--json", files["r200"]])["balanced"]
    assert balanced["storage"] == "dense"
    assert len(balanced["rows"]) == balanced["n"] == 200


@pytest.mark.parametrize(
    "name, argv, code, expected",
    [
        ("r200", ["bounds"], 0, {}),
        ("r200", ["power"], 0, {}),
        ("r200", ["primitivity"], 0, {"primitive": True}),
        ("r200", ["stationary", "--normalize"], 0, {"status": "converged"}),
        ("t50", ["primitivity"], 0, {"primitive": True}),
        ("t50", ["stationary", "--normalize"], 0, {"status": "converged"}),
        ("p50", ["perron"], 2, {"status": "stagnated"}),
        ("p50", ["power"], 2, {"status": "stagnated"}),
        ("p51", ["stationary", "--normalize", "--no-damp"], 2, {"status": "stagnated"}),
        ("p51", ["stationary", "--normalize"], 0, {"status": "converged"}),
    ],
    ids=["r200-bounds", "r200-power", "r200-primitivity", "r200-stationary", "t50-primitivity",
         "t50-stationary", "p50-perron", "p50-power", "p51-undamped", "p51-damped"],
)
def test_exit_code_and_result_of_each_command(capsys, files, name, argv, code, expected):
    assert main([*argv, "--json", files[name]]) == code
    result = json.loads(capsys.readouterr().out)["result"]
    assert {key: result[key] for key in expected} == expected


def test_root_of_the_1e100_scaled_tridiagonal(capsys, files):
    # t50 scaled by 1e100 keeps t50's root, scaled, to 1e-12
    result = result_of(capsys, ["perron", "--json", files["h50"]])
    assert result["status"] == "converged"
    assert abs(result["root"] / 5.823062528299319e100 - 1) <= 1e-12


@pytest.mark.parametrize(
    "flags, code, width",
    [([], 0, SolverConfig.tolerance), (["--max-iter", "1"], 3, None), (["--tol", "1e-3"], 0, 1e-3)],
    ids=["default", "max-iter-1", "tol-1e-3"],
)
def test_trace_and_discs_have_a_line_per_step(capsys, files, tmp_path, flags, code, width):
    # a header, then step 0 and each accepted step: one trace line, or one disc line per index
    trace, discs = tmp_path / "t50.csv", tmp_path / "d50.csv"
    assert main(["perron", "--json", *flags, "--trace", str(trace), "--discs", str(discs), files["t50"]]) == code
    result = json.loads(capsys.readouterr().out)["result"]
    if width is None:
        assert result["iterations"] == 1
    else:
        assert result["root_hi"] - result["root_lo"] <= width
    assert len(trace.read_text().splitlines()) == result["iterations"] + 2
    assert len(discs.read_text().splitlines()) == (result["iterations"] + 1) * 50 + 1


def test_row_and_column_roots_of_t50_are_equal(capsys, files):
    row, col = (result_of(capsys, ["perron", "--side", side, "--json", files["t50"]]) for side in ("row", "col"))
    assert row["status"] == col["status"] == "converged"
    assert row["root"] == col["root"]


def test_minc_bounds_nest_in_the_frobenius_bounds(capsys, files):
    result = result_of(capsys, ["bounds", "--json", files["t50"]])
    for side in ("row", "col"):
        (lo, hi), (flo, fhi) = result[f"minc_{side}"], result[f"frobenius_{side}"]
        assert flo * (1 - 1e-12) <= lo <= hi <= fhi * (1 + 1e-12), result


ARRAY = "%%MatrixMarket matrix array real general\n"
COORD = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (ARRAY + "20000 20000\n1\n2\n3\n", "line 5: expected 400000000 values, found 3"),
        (ARRAY + "100000 100000\n1\n2\n3\n", "line 5: expected 10000000000 values, found 3"),
        (COORD + "10 10 1000000000\n1 1 1\n2 2 2\n3 3 3\n", "line 5: size line promises 1000000000 entries, found 3"),
    ],
    ids=["array-20000", "array-100000", "coordinate-1e9"],
)
def test_a_size_line_past_its_body_reserves_nothing(tmp_path, capsys, text, message):
    # the reader reserves a body's records at once only when the file can
    # hold them; these size lines would reserve 3.2 GB, 74.5 GiB and 24 GB
    path = tmp_path / "short.mtx"
    path.write_text(text)
    code, peak = traced_peak(lambda: main(["perron", "--json", str(path)]))
    assert (code, capsys.readouterr().err) == (1, f"error: {message}\n")
    assert peak < 2_000_000


@pytest.fixture(scope="module")
def long_bodies(tmp_path_factory):
    """A random primitive matrix of order 100 as an array file (10 000
    values) and as a coordinate file of its nonzeros; each is over 100 kB,
    so its body passes numpy's read blocks."""
    root = tmp_path_factory.mktemp("long")
    paths = {"array": root / "r.mtx", "coordinate": root / "c.mtx"}
    A = random_primitive(100, rng=5)
    write_matrix_market(A, paths["array"])
    D = A.to_dense()
    nz = np.nonzero(D)
    write_matrix_market(from_coordinates(100, *nz, D[nz]), paths["coordinate"])
    return paths


@pytest.mark.parametrize("layout", ["array", "coordinate"])
@pytest.mark.parametrize("tail", ["extra", "comments"])
def test_the_tail_after_a_full_body_is_read(tmp_path, capsys, long_bodies, layout, tail):
    # an entry or comment lines past the count-th entry lie beyond what
    # numpy reads ahead, so only a read past the last entry sees them
    text = long_bodies[layout].read_text()
    count = int(text.splitlines()[1].split()[-1]) if layout == "coordinate" else 10_000
    path = tmp_path / "tail.mtx"
    argv = ["perron", "--json", str(path)]
    if tail == "extra":
        path.write_text(text + ("1\n" if layout == "array" else "100 100 1\n"))
        found = "values, found" if layout == "array" else "entries, found"
        promise = f"expected {count}" if layout == "array" else f"size line promises {count}"
        message = f"error: line {count + 3}: {promise} {found} {count + 1}\n"
        assert (main(argv), capsys.readouterr().err) == (1, message)
    else:
        path.write_text(text + "% one\n\n% two\n")
        assert result_text(capsys, argv) == result_text(capsys, ["perron", "--json", str(long_bodies[layout])])


@pytest.fixture
def helpers(monkeypatch):
    """gen random on two usable CPUs; the list of the helper processes it starts."""
    monkeypatch.setattr(perronkit.cli, "_usable_cpus", lambda: 2)
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    yield started
    with pytest.raises(ChildProcessError):  # no process outlives gen
        os.waitpid(-1, os.WNOHANG)


def test_a_helper_that_fails_is_one_error_line(tmp_path, capsys, monkeypatch, helpers):
    monkeypatch.setattr(perronkit.io, "_HELPER", [sys.executable, "-c", "raise SystemExit(3)"])
    assert main(["gen", "random", "--n", "513", "--seed", "0", "-o", str(tmp_path / "g.mtx")]) == 1
    assert capsys.readouterr().err == "error: the helper formatting columns 257 to 513 exited with status 3\n"
    assert [proc.returncode for proc in helpers] == [3]


class _FailingStream(io.StringIO):
    """A stream whose write fails after a number of writes."""

    def __init__(self, writes):
        super().__init__()
        self.writes = writes

    def write(self, text):
        self.writes -= 1
        if self.writes < 0:
            raise OSError(28, "No space left on device")
        return super().write(text)


def test_a_failing_output_kills_the_helper(capsys, monkeypatch, helpers):
    # the output fails 50 chunks into the first part's 512 000 values, long
    # before the helper could format its 488 000
    monkeypatch.setattr(sys, "stdout", _FailingStream(50))
    assert main(["gen", "random", "--n", "1000", "--seed", "0", "-o", "-"]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert [proc.returncode for proc in helpers] == [-signal.SIGKILL]


def test_an_output_that_cannot_be_opened_starts_no_helper(tmp_path, capsys, helpers):
    path = tmp_path / "missing" / "g.mtx"
    assert main(["gen", "random", "--n", "1000", "--seed", "0", "-o", str(path)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert helpers == []
