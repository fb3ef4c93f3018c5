import hashlib
import io
import os
import subprocess
import warnings

import numpy as np
import pytest

import perronkit.cli
import perronkit.io
from conftest import SAMPLE3_ROWS
from oracles import det_cofactor, traced_peak
from perronkit import (
    MatrixParseError,
    NegativeEntryError,
    NonFiniteEntryError,
    Side,
    from_coordinates,
    from_dense,
    parse_matrix,
    random_primitive,
    read_csv,
    read_matrix_market,
    sums,
    tridiagonal,
    write_matrix_market,
)
from perronkit.cli import main
from perronkit.matcore import _entries


def test_array_roundtrip(tmp_path, sample3):
    path = tmp_path / "m.mtx"
    write_matrix_market(sample3, path)
    back = parse_matrix(path)
    assert back.storage == "dense"
    assert np.array_equal(back.to_dense(), sample3.to_dense())
    assert np.array_equal(sums(back, Side.ROW), [3.0, 5.5, 7.0])


def test_dense_file_reads_into_one_n_by_n_array(tmp_path):
    # the body is parsed into an array of its final size, which becomes A,
    # transposed in place; validation takes no sum, as 2n times the largest entry is finite
    n = 400
    path = tmp_path / "r.mtx"
    write_matrix_market(random_primitive(n, rng=3), path)
    assert traced_peak(lambda: read_matrix_market(path))[1] < 1.05 * 8 * n * n


@pytest.mark.parametrize("n", [10_000, 50_000])
@pytest.mark.parametrize("shuffled", [False, True], ids=["row-major", "shuffled"])
def test_coordinate_file_reads_in_48_bytes_an_entry(tmp_path, n, shuffled):
    # the parsed records (24 bytes an entry) become the CSR arrays (24 more)
    # with no second copy; a shuffled body is sorted in place
    T = tridiagonal(n, 1.0, 3.0, 2.0)
    path = tmp_path / "t.mtx"
    if shuffled:
        order = np.random.default_rng(n).permutation(T.nnz)
        rows, cols, values = (a[order] for a in _entries(T))
        path.write_text(COORD + f"{n} {n} {T.nnz}\n" + "".join(
            f"{i + 1} {j + 1} {v!r}\n" for i, j, v in zip(rows.tolist(), cols.tolist(), values.tolist())))
    else:
        write_matrix_market(T, path)
    peak = traced_peak(lambda: read_matrix_market(path))[1]
    assert peak <= 48 * T.nnz


def test_dense_csv_reads_into_one_n_by_n_array(tmp_path):
    # the rows fill one array that grows in place; a copy of it would be 2 x 8n² bytes
    n = 300
    path = tmp_path / "r.csv"
    np.savetxt(path, random_primitive(n, rng=3).to_dense(), fmt="%.17g", delimiter=",")
    assert traced_peak(lambda: read_csv(path))[1] < 1.6 * 8 * n * n


@pytest.mark.parametrize(
    "n, comment", [(1, False), (2, False), (63, False), (64, False), (65, False), (65, True), (129, False), (200, False)]
)
def test_dense_write_then_read_is_bit_identical_across_orders(tmp_path, monkeypatch, n, comment):
    # the transpose swaps each row with its column, so the order sets both the
    # number of swaps and the length of each; a comment line sends the body
    # through the line-by-line rescan, which takes the same transpose
    rng = np.random.default_rng(n)
    arr = rng.random((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
    arr[rng.random((n, n)) < 0.3] = 0.0
    A = from_dense(arr)
    path = tmp_path / "a.mtx"
    write_matrix_market(A, path)
    rescans = []
    if comment:
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3] + ["% a comment in the body\n"] + lines[3:]))
        rescan = perronkit.io._rescan
        monkeypatch.setattr(perronkit.io, "_rescan", lambda *a: rescans.append(a) or rescan(*a))
    back = read_matrix_market(path)
    assert len(rescans) == comment
    assert back.to_dense().tobytes() == A.to_dense().tobytes()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 200])
def test_csv_read_is_bit_identical_as_its_table_grows(tmp_path, n):
    # the table starts at min(64, n) rows and doubles up to n
    rng = np.random.default_rng(n)
    arr = rng.random((n, n)) * 10.0 ** rng.integers(-300, 300, (n, n))
    arr[rng.random((n, n)) < 0.3] = 0.0
    path = tmp_path / "a.csv"
    np.savetxt(path, arr, fmt="%.17g", delimiter=",")
    assert read_csv(path).to_dense().tobytes() == arr.tobytes()


def test_dense_write_copies_no_n_by_n_array(tmp_path):
    n = 400
    A = random_primitive(n, rng=3)
    assert traced_peak(lambda: write_matrix_market(A, tmp_path / "r.mtx"))[1] < 8 * n * n / 4


@pytest.mark.parametrize(
    "make",
    [lambda: random_primitive(400, rng=3), lambda: random_primitive(1000, rng=3),
     lambda: tridiagonal(2_000, 1.0, 3.0, 2.0), lambda: tridiagonal(20_000, 1.0, 3.0, 2.0)],
    ids=["dense-400", "dense-1000", "csr-2000", "csr-20000"],
)
def test_writer_memory_does_not_grow_with_the_order(tmp_path, make):
    # the writer formats a fixed number of entries at a time, so one bound
    # holds for both layouts at every order
    A = make()
    assert traced_peak(lambda: write_matrix_market(A, tmp_path / "a.mtx"))[1] < 100_000


def test_generated_file_bytes_are_pinned(tmp_path, capsys):
    # the generator's draws and the writer's %.17g column-major layout, byte for byte
    path = tmp_path / "g50.mtx"
    assert main(["gen", "random", "--n", "50", "--seed", "0", "-o", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "c57e2d1e22da74ea78faf062cdab9aa844c2c4e176bad1d8bb4192dab20962ef"


def test_generated_file_bytes_are_pinned_past_a_row_block(tmp_path, capsys):
    # n = 130 draws its entry values in 64 blocks of 2 or 3 rows; n = 50
    # draws them one row at a time
    path = tmp_path / "g130.mtx"
    assert main(["gen", "random", "--n", "130", "--seed", "0", "-o", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "34eb096c645197decca9d590ed73fa4c7be44b501845259fc7e41529428ff268"


@pytest.mark.parametrize(
    "n, digest",
    [(255, "22b4243d9f08f43b067fbcf4750104ce47b6689a71b20449687d7e9cd3eb5255"),
     (257, "a31b02e38f5854d4cf8bdaf53134b44f9fbf0df739414fd1345e6f8c68d43a73"),
     (513, "893b2fb7299d9a23dcb691176f17242e4588bf4caf02f4085fcaace8d4a5c275")],
)
def test_generated_file_bytes_are_pinned_at_the_column_blocks(tmp_path, capsys, n, digest):
    # gen random draws and writes 256 columns at a time: one block one column
    # short, a full block and one column, two full blocks and one column;
    # the digests are those of the generator that held the whole matrix.
    # With two usable CPUs, n = 513 formats its last 257 columns in a helper
    path = tmp_path / "g.mtx"
    assert main(["gen", "random", "--n", str(n), "--seed", "0", "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    capsys.readouterr()
    assert main(["gen", "random", "--n", str(n), "--seed", "0", "-o", "-"]) == 0
    assert capsys.readouterr().out.encode("ascii") == path.read_bytes()


def _count_helpers(monkeypatch):
    """A list that gains one entry per helper io._write_array starts."""
    started = []
    start = perronkit.io._start

    def counted(*args):
        started.append(args[1:3])
        return start(*args)

    monkeypatch.setattr(perronkit.io, "_start", counted)
    return started


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("n", [513, 1000])
def test_generated_bytes_do_not_depend_on_the_usable_cpus(tmp_path, capsys, monkeypatch, n, cpus):
    # k = min(cpus, n // 256) parts of whole blocks; the parts after the
    # first are formatted by helper processes and copied after it
    monkeypatch.setattr(perronkit.cli, "_usable_cpus", lambda: cpus)
    started = _count_helpers(monkeypatch)
    A = random_primitive(n, 0.5, 6)
    expected = io.StringIO(newline="\n")
    write_matrix_market(A, expected)
    path = tmp_path / "g.mtx"
    assert main(["gen", "random", "--n", str(n), "--seed", "6", "-o", str(path)]) == 0
    assert path.read_bytes() == expected.getvalue().encode("ascii")
    assert capsys.readouterr().err == f"wrote {n}x{n} matrix ({A.nnz} stored entries) to {path}\n"
    assert main(["gen", "random", "--n", str(n), "--seed", "6", "-o", "-"]) == 0
    assert capsys.readouterr().out == expected.getvalue()
    parts = {(513, 1): [], (513, 2): [(256, 513)], (513, 3): [(256, 513)], (1000, 1): [],
             (1000, 2): [(512, 1000)], (1000, 3): [(256, 512), (512, 1000)]}[n, cpus]
    assert started == 2 * parts  # the file, then stdout


@pytest.mark.parametrize("count, cuts", [(3, [256, 512]), (None, [])])
def test_without_an_affinity_mask_the_parts_follow_the_cpu_count(monkeypatch, count, cuts):
    # where os has no sched_getaffinity, os.cpu_count() is the usable CPUs,
    # and a count it cannot tell (None) leaves one part, formatted here
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert perronkit.cli._cuts(1000) == cuts


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_gen_random_holds_one_scratch_block_beside_its_helpers(tmp_path, capsys, monkeypatch, cpus):
    # the parts are drawn one after another, each into a scratch array of
    # its own, and each column goes out as it is drawn; the copy of the
    # helpers' lines starts once the last scratch array is gone.  Without
    # helpers the n = 1000 peak sat 139-157 kB over the scratch array; with
    # them 136-156 kB.  A 64 kB copy chunk held beside it would pass 200 kB
    n = 1000
    monkeypatch.setattr(perronkit.cli, "_usable_cpus", lambda: cpus)
    argv = ["gen", "random", "--n", str(n), "--seed", "0", "-o", str(tmp_path / "g.mtx")]
    assert main(argv) == 0  # a first run also imports what gen imports on first use
    assert traced_peak(lambda: main(argv))[1] < 8 * n * perronkit.cli._COLUMNS + 200_000


@pytest.mark.parametrize("fault", ["no interpreter", "spawn error", "no temporary file"])
def test_a_helper_that_cannot_be_set_up_leaves_every_part_here(tmp_path, capsys, monkeypatch, fault):
    n = 1000
    monkeypatch.setattr(perronkit.cli, "_usable_cpus", lambda: 3)
    if fault == "no interpreter":
        monkeypatch.setattr(perronkit.io, "_HELPER", ["", *perronkit.io._HELPER[1:]])
    elif fault == "spawn error":  # the second of two helpers; the first is killed and waited for
        spawned = []

        class SecondRefused(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                if spawned:
                    raise OSError(11, "Resource temporarily unavailable")
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(subprocess, "Popen", SecondRefused)
    else:
        def refused(*args, **kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(perronkit.io.tempfile, "TemporaryFile", refused)
    expected = io.StringIO(newline="\n")
    write_matrix_market(random_primitive(n, 0.5, 2), expected)
    assert main(["gen", "random", "--n", str(n), "--seed", "2", "-o", "-"]) == 0
    assert capsys.readouterr().out == expected.getvalue()
    if fault == "spawn error":
        assert spawned[0].returncode is not None
    with pytest.raises(ChildProcessError):  # no process outlives gen
        os.waitpid(-1, os.WNOHANG)


def test_generated_coordinate_file_bytes_are_pinned(tmp_path, capsys):
    # 898 entries, so the coordinate layout's "i j value" lines run past several chunks
    path = tmp_path / "t300.mtx"
    assert main(["gen", "tridiag", "--n", "300", "--c", "1", "--a", "3", "--b", "2", "-o", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "1a38aa0864e28df7391b1b3183087d887fe162bc90011a76ebb1ac6882093b58"


def test_coordinate_file_bytes_are_pinned_from_1e_minus_300_to_1e300(tmp_path):
    # 1 000 entries of order 100 from 1.3e-299 to 3.8e299, drawn as [1, 2)
    # times a power of two, so that no libm pow enters the values
    rng = np.random.default_rng(7)
    n = 100
    flat = rng.choice(n * n, 1000, replace=False)
    values = np.ldexp(1.0 + rng.random(1000), rng.integers(-997, 997, 1000))
    path = tmp_path / "c.mtx"
    write_matrix_market(from_coordinates(n, flat // n, flat % n, values), path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "ac0cff558ca1edd06bd60c41adcea6e1a9e40055ec969b0efaab943334813bb5"


def _failing_open(writes):
    """open, but a file it gives runs out of space after ``writes`` writes."""

    class Failing:
        def __init__(self, fh):
            self.fh, self.left = fh, writes

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.left -= 1
            if self.left < 0:
                raise OSError(28, "No space left on device")
            return self.fh.write(text)

    return lambda *args, **kwargs: Failing(open(*args, **kwargs))


@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_a_write_that_fails_part_way_leaves_no_file(tmp_path, monkeypatch, storage):
    # 10 000 array values or 2 998 coordinate entries: well past ten 128-entry chunks
    A = random_primitive(100, rng=1) if storage == "dense" else tridiagonal(1000, 1.0, 3.0, 2.0)
    path = tmp_path / "a.mtx"
    monkeypatch.setattr(perronkit.io, "open", _failing_open(10), raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        write_matrix_market(A, path)
    assert not path.exists()


def test_coordinate_roundtrip_keeps_csr(tmp_path):
    T = tridiagonal(9, 1.0, 3.0, 2.0)
    path = tmp_path / "t.mtx"
    write_matrix_market(T, path)
    assert path.read_text().startswith("%%MatrixMarket matrix coordinate real general")
    back = parse_matrix(path)
    assert back.storage == "csr"
    assert np.array_equal(back.to_dense(), T.to_dense())


def test_roundtrip_is_lossless_at_17_digits(tmp_path):
    rng = np.random.default_rng(2)
    A = from_dense(rng.random((4, 4)))
    path = tmp_path / "r.mtx"
    write_matrix_market(A, path)
    assert np.array_equal(parse_matrix(path).to_dense(), A.to_dense())


def test_array_entries_are_column_major(tmp_path):
    path = tmp_path / "cm.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
    )
    assert np.array_equal(read_matrix_market(path).to_dense(), [[1.0, 3.0], [2.0, 4.0]])


def test_coordinate_duplicate_rejected(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n1 1 1.0\n2 2 2.0\n1 1 5.0\n"
    )
    with pytest.raises(MatrixParseError) as err:
        read_matrix_market(path)
    assert err.value.lineno == 5


def test_csv_identity(tmp_path):
    path = tmp_path / "i.csv"
    path.write_text("1,0\n0,1\n")
    assert np.array_equal(read_csv(path).to_dense(), np.eye(2))


def test_auto_detection(tmp_path, sample3):
    mm = tmp_path / "a.mtx"
    write_matrix_market(sample3, mm)
    csv = tmp_path / "a.csv"
    csv.write_text("2,1,0\n0.5,3,2\n1,2,4\n")
    assert np.array_equal(parse_matrix(mm).to_dense(), parse_matrix(csv).to_dense())
    assert np.array_equal(parse_matrix(csv).to_dense(), np.array(SAMPLE3_ROWS))


def test_banner_after_leading_spaces_is_detected(tmp_path, capsys):
    # the reader accepts the banner as the first word of the line; so does detection
    path = tmp_path / "spaced.mtx"
    path.write_text("  %%MatrixMarket matrix coordinate real general\n2 2 2\n1 2 1.5\n2 1 2\n")
    A = parse_matrix(path)
    assert A.storage == "csr" and np.array_equal(A.to_dense(), [[0.0, 1.5], [2.0, 0.0]])
    assert main(["primitivity", str(path)]) == 0


def test_negative_value_rejected_with_position(tmp_path):
    path = tmp_path / "neg.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -3.0\n")
    with pytest.raises(NegativeEntryError) as err:
        read_matrix_market(path)
    assert (err.value.i, err.value.j) == (0, 1)


@pytest.mark.parametrize(
    "content",
    [
        "",
        "%%MatrixMarket matrix array complex general\n2 2\n",
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 1.0\n",
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n",
    ],
)
def test_malformed_matrix_market_rejected(tmp_path, content):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixParseError):
        read_matrix_market(path)


@pytest.mark.parametrize("size, values", [("-2 -2", 4), ("0 0", 0)], ids=["negative", "zero"])
def test_non_positive_array_size_rejected_at_size_line(tmp_path, capsys, size, values):
    path = tmp_path / "bad.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n{size}\n" + "1.0\n" * values)
    with pytest.raises(MatrixParseError) as err:
        read_matrix_market(path)
    assert err.value.lineno == 2
    assert main(["perron", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 2: ")


def test_malformed_csv_rejected(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    with pytest.raises(MatrixParseError):
        read_csv(ragged)
    words = tmp_path / "words.csv"
    words.write_text("1,two\n3,4\n")
    with pytest.raises(MatrixParseError) as err:
        read_csv(words)
    assert err.value.lineno == 1


@pytest.mark.parametrize("content", ["", "\n  \n\n"], ids=["empty", "blank"])
def test_csv_with_no_rows_is_an_empty_file(tmp_path, content):
    path = tmp_path / "e.csv"
    path.write_text(content)
    with pytest.raises(MatrixParseError) as err:
        read_csv(path)
    assert (err.value.lineno, str(err.value)) == (1, "line 1: empty file")


def test_csv_blank_lines_between_rows_skipped(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("\n1,2\n\n  \n3,4\n\n")
    assert np.array_equal(read_csv(path).to_dense(), [[1.0, 2.0], [3.0, 4.0]])


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% generated fixture\n\n"
        "2 2 2\n"
        "1 1 2.5\n"
        "% trailing comment\n"
        "2 2 1.5\n"
    )
    A = read_matrix_market(path)
    assert np.array_equal(A.to_dense(), np.diag([2.5, 1.5]))


@pytest.mark.parametrize("layout", ["array", "coordinate"])
def test_blank_lines_in_a_body_need_no_rescan(tmp_path, monkeypatch, layout):
    body = ["1", "", "2", "3", "  ", "4", ""] if layout == "array" else ["1 1 1", "", "2 1 2", "  ", "1 2 3", "2 2 4", ""]
    path = tmp_path / "b.mtx"
    path.write_text((ARRAY + "2 2\n" if layout == "array" else COORD + "2 2 4\n") + "\n".join(body))
    monkeypatch.setattr(perronkit.io, "_rescan", None)
    assert np.array_equal(read_matrix_market(path).to_dense(), [[1.0, 3.0], [2.0, 4.0]])


def test_roundtrip_preserves_determinant(tmp_path):
    rng = np.random.default_rng(13)
    arr = rng.uniform(0.0, 2.0, (3, 3))
    A = from_dense(arr)
    path = tmp_path / "d.mtx"
    write_matrix_market(A, path)
    assert det_cofactor(parse_matrix(path).to_dense()) == det_cofactor(arr)


ARRAY = "%%MatrixMarket matrix array real general\n"
COORD = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize(
    "content, lineno, message",
    [
        (ARRAY + "2 2\n1\nx\n3\n4\n", 4, "expected one value per line, got 'x'"),
        (ARRAY + "2 2\n1\n2 3\n4\n5\n", 4, "expected one value per line, got '2 3'"),
        (ARRAY + "2 2\n1\n2\n3\n", 5, "expected 4 values, found 3"),
        (ARRAY + "2 2\n1\n2\n3\n4\n5\n", 7, "expected 4 values, found 5"),
        (ARRAY + "2 2\n1\n2 3\n4\n", 5, "expected 4 values, found 3"),
        (ARRAY + "2 2\n1\n2\n3\n% c\n\n", 7, "expected 4 values, found 3"),
        (ARRAY + "% c\n2 2\n1\n% c\n\n2\ny\n4\n", 8, "expected one value per line, got 'y'"),
        (ARRAY + "1 1\n2.0 %c\n", 3, "expected one value per line, got '2.0 %c'"),
        (COORD + "2 2 1\n1.5 1 1.0\n", 3, "malformed coordinate entry: '1.5 1 1.0'"),
        (COORD + "2 2 1\n1 1 abc\n", 3, "malformed coordinate entry: '1 1 abc'"),
        (COORD + "2 2 1\n1 1\n", 3, "coordinate entry must be 'i j value', got '1 1'"),
        (COORD + "2 2 1\n1 1 1.0 2\n", 3, "coordinate entry must be 'i j value', got '1 1 1.0 2'"),
        (COORD + "2 2 2\n1 1 1.0\n3 1 1.0\n", 4, "index (3, 1) outside 2x2"),
        (COORD + "2 2 1\n0 1 1.0\n", 3, "index (0, 1) outside 2x2"),
        (COORD + "2 2 2\n1 1 -1.0\n3 1 1.0\n", 4, "index (3, 1) outside 2x2"),
        (COORD + "2 2 2\n1 1 nan\n1 3 1.0\n", 4, "index (1, 3) outside 2x2"),
        (COORD + "2 2 1\n99999999999999999999 1 1.0\n", 3, "index (99999999999999999999, 1) outside 2x2"),
        (COORD + "2 2 3\n1 1 1.0\n2 2 2.0\n1 1 5.0\n", 5, "duplicate entry (1, 1), first seen on line 3"),
        (COORD + "2 2 2\n1 1 0\n1 1 1\n", 4, "duplicate entry (1, 1), first seen on line 3"),
        (COORD + "2 2 2\n1 1 1\n1 1 0\n", 4, "duplicate entry (1, 1), first seen on line 3"),
        (COORD + "2 2 2\n1 2 1.0\n% c\n\n1 2 2.0\n", 6, "duplicate entry (1, 2), first seen on line 3"),
        (COORD + "2 2 4\n2 2 1\n2 2 1\n1 1 1\n1 1 1\n", 4, "duplicate entry (2, 2), first seen on line 3"),
        (COORD + "% a\n\n2 2 2\n1 1 1.0\n% b\n\n2 2 x\n", 8, "malformed coordinate entry: '2 2 x'"),
        (COORD + "2 2 2\n1 1 1.0\n", 3, "size line promises 2 entries, found 1"),
        (COORD + "2 2 1\n1 1 1.0\n2 2 1.0\n", 4, "size line promises 1 entries, found 2"),
        (COORD + "2 2 2\n1 1 1.0\n% c\n\n", 5, "size line promises 2 entries, found 1"),
        (COORD + "2 3 1\n1 1 1.0\n", 2, "matrix is 2x3, not square"),
        (ARRAY + "2 3\n1\n2\n3\n4\n5\n6\n", 2, "matrix is 2x3, not square"),
        (COORD + "2 2 -1\n", 2, "entry count must be >= 0, got -1"),
        (COORD + "0 0 0\n", 2, "matrix size must be positive, got 0x0"),
        (COORD + "-2 -2 0\n", 2, "matrix size must be positive, got -2x-2"),
        (COORD + "% c\n\n", 3, "missing size line"),
        (ARRAY + "2\n1\n", 2, "array size line must be 'rows cols', got '2'"),
        (COORD + "2 2\n", 2, "coordinate size line must be 'rows cols nnz', got '2 2'"),
        (ARRAY + "2 x\n", 2, "size line entries are not integers"),
        ("hello\n", 1, "not a Matrix Market header: 'hello'"),
        ("%%MatrixMarket matrix vector real general\n2 2\n", 1, "unsupported layout 'vector'"),
    ],
)
def test_malformed_matrix_market_names_line_and_fault(tmp_path, content, lineno, message):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixParseError) as err:
        read_matrix_market(path)
    assert (err.value.lineno, str(err.value)) == (lineno, f"line {lineno}: {message}")


def test_out_of_memory_names_the_matrix_order(tmp_path, monkeypatch, capsys):
    # stands in for a size line such as 3000000000 3000000000 1, whose CSR
    # row pointers alone would need 24 GB
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 22.4 GiB for an array with shape (3000000001,)")

    path = tmp_path / "big.mtx"
    path.write_text(COORD + "% c\n3 3 1\n1 1 1.0\n")
    monkeypatch.setattr(perronkit.io, "_coordinates", exhausted)
    with pytest.raises(MatrixParseError) as err:
        read_matrix_market(path)
    assert (err.value.lineno, str(err.value)) == (3, "line 3: a 3x3 matrix does not fit in memory")
    assert main(["perron", "--json", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3: a 3x3 matrix does not fit in memory\n"


@pytest.mark.parametrize("n", [4611686018427387904, 99999999999999999999])
def test_order_numpy_cannot_address_is_refused_at_the_size_line(tmp_path, n):
    path = tmp_path / "huge.mtx"
    path.write_text(COORD + f"% c\n{n} {n} 1\n1 1 1.0\n")
    with pytest.raises(MatrixParseError) as err:
        read_matrix_market(path)
    assert (err.value.lineno, str(err.value)) == (3, f"line 3: a {n}x{n} matrix does not fit in memory")


def _truncating_loadtxt(loadtxt):
    """np.loadtxt as numpy runs it from 1.23 until that deprecation expired: an
    integer field such as 1.5 is read as a float and truncated, with only a
    DeprecationWarning, which becomes a ValueError when warnings are errors."""

    def run(fh, dtype, **kwargs):
        body = loadtxt(fh, np.dtype([(name, np.float64) for name in dtype.names]), **kwargs)
        if any(dtype[name].kind == "i" and (body[name] % 1).any() for name in dtype.names):
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string to int64") from exc
        return body.astype(dtype)

    return run


@pytest.mark.parametrize("entry", ["1.5 1 1.0", "2 2.7 1.0"])
def test_index_truncated_by_older_numpy_is_still_malformed(tmp_path, monkeypatch, entry):
    monkeypatch.setattr(np, "loadtxt", _truncating_loadtxt(np.loadtxt))
    path = tmp_path / "bad.mtx"
    path.write_text(COORD + f"2 2 1\n{entry}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Python's default filters ignore a warning raised inside numpy
        with pytest.raises(MatrixParseError) as err:
            read_matrix_market(path)
    assert (err.value.lineno, str(err.value)) == (3, f"line 3: malformed coordinate entry: {entry!r}")


@pytest.mark.parametrize(
    "content, error, position",
    [
        (ARRAY + "2 2\n1\n-2\n3\n4\n", NegativeEntryError, (1, 0)),
        (ARRAY + "2 2\n1\nnan\n3\n4\n", NonFiniteEntryError, (1, 0)),
        (COORD + "2 2 2\n1 1 1.0\n% b\n1 2 -3.0\n", NegativeEntryError, (0, 1)),
        (COORD + "2 2 1\n2 1 inf\n", NonFiniteEntryError, (1, 0)),
    ],
)
def test_bad_entry_rejected_with_position(tmp_path, content, error, position):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(error) as err:
        read_matrix_market(path)
    assert (err.value.i, err.value.j) == position
