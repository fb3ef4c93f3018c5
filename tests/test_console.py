"""The console checks, run in-process through ``cli.main`` on files that a
module fixture writes once."""

import json

import numpy as np
import pytest

from perronkit import from_coordinates, read_matrix_market, write_matrix_market
from perronkit.cli import main


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """r200.mtx, a random dense primitive matrix of order 200 written by
    ``gen``, and r200c.mtx, the same entries as a coordinate file."""
    root = tmp_path_factory.mktemp("console")
    paths = {name: str(root / f"{name}.mtx") for name in ("r200", "r200c")}
    assert main(["gen", "random", "--n", "200", "--seed", "1", "-o", paths["r200"]]) == 0
    D = read_matrix_market(paths["r200"]).to_dense()
    nz = np.nonzero(D)
    write_matrix_market(from_coordinates(200, *nz, D[nz]), paths["r200c"])
    return paths


def result_text(capsys, argv):
    """The ``result`` object of a --json run, as sorted JSON text."""
    assert main(argv) == 0
    return json.dumps(json.loads(capsys.readouterr().out)["result"], sort_keys=True)


@pytest.mark.parametrize("side", ["row", "col", "auto"])
def test_dense_and_coordinate_files_print_the_same_result(capsys, files, side):
    # the dense einsum and the CSR kernel add each sum's terms in one order
    argv = ["perron", "--algo", "b", "--side", side, "--json"]
    dense = result_text(capsys, argv + [files["r200"]])
    assert json.loads(dense)["status"] == "converged"
    assert result_text(capsys, argv + [files["r200c"]]) == dense
