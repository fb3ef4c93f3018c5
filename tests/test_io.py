import numpy as np
import pytest

from conftest import SAMPLE3_ROWS
from oracles import det_cofactor
from perronkit import (
    MatrixParseError,
    NegativeEntryError,
    Side,
    from_dense,
    parse_matrix,
    read_csv,
    read_matrix_market,
    sums,
    tridiagonal,
    write_matrix_market,
)
from perronkit.cli import main


def test_array_roundtrip(tmp_path, sample3):
    path = tmp_path / "m.mtx"
    write_matrix_market(sample3, path)
    back = parse_matrix(path)
    assert back.storage == "dense"
    assert np.array_equal(back.to_dense(), sample3.to_dense())
    assert np.array_equal(sums(back, Side.ROW), [3.0, 5.5, 7.0])


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


def test_roundtrip_preserves_determinant(tmp_path):
    rng = np.random.default_rng(13)
    arr = rng.uniform(0.0, 2.0, (3, 3))
    A = from_dense(arr)
    path = tmp_path / "d.mtx"
    write_matrix_market(A, path)
    assert det_cofactor(parse_matrix(path).to_dense()) == det_cofactor(arr)
