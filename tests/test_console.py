"""The console checks, run in-process through ``cli.main`` on files that a
module fixture writes once."""

import json

import numpy as np
import pytest

from perronkit import from_coordinates, read_matrix_market, write_matrix_market
from perronkit.cli import main


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """t50.mtx, the coordinate file of ``tridiagonal(50, 1, 3, 2)``;
    r200.mtx, a random dense primitive matrix of order 200; and r200c.mtx,
    r200's entries as a coordinate file.  ``gen`` writes t50 and r200."""
    root = tmp_path_factory.mktemp("console")
    paths = {name: str(root / f"{name}.mtx") for name in ("t50", "r200", "r200c")}
    assert main(["gen", "tridiag", "--n", "50", "--c", "1", "--a", "3", "--b", "2", "-o", paths["t50"]]) == 0
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


def test_perron_json_on_a_dense_file_carries_scaling_not_balanced(capsys, files):
    result = result_of(capsys, ["perron", "--json", files["r200"]])
    assert "scaling" in result and "balanced" not in result


@pytest.mark.parametrize("name", ["t50", "r200"])
def test_algorithms_a_and_b_print_one_result(capsys, files, name):
    # --algo chooses only whether the eigenvector, the scaling normalized, is printed
    a = result_of(capsys, ["perron", "--algo", "a", "--json", files[name]])
    b = result_of(capsys, ["perron", "--algo", "b", "--json", files[name]])
    assert a.pop("eigenvector") is None
    assert b.pop("eigenvector") == b["scaling"]
    assert a == b


def test_balanced_payload_of_a_dense_file_is_dense(capsys, files):
    balanced = result_of(capsys, ["perron", "--balanced", "--json", files["r200"]])["balanced"]
    assert balanced["storage"] == "dense"
    assert len(balanced["rows"]) == balanced["n"] == 200


@pytest.mark.parametrize(
    "argv, expected",
    [(["bounds"], {}), (["power"], {}), (["primitivity"], {"primitive": True}),
     (["stationary", "--normalize"], {"status": "converged"})],
    ids=["bounds", "power", "primitivity", "stationary"],
)
def test_each_command_runs_on_a_dense_file(capsys, files, argv, expected):
    result = result_of(capsys, [*argv, "--json", files["r200"]])
    assert {key: result[key] for key in expected} == expected
