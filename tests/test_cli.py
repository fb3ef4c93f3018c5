import hashlib
import json

import numpy as np
import pytest

import perronkit.solver
from conftest import PERIODIC3_ROWS, SAMPLE3_ROWS
from perronkit import from_dense, write_matrix_market
from perronkit.cli import main

# perron output on sample3 with the default flags (column side), pinned to
# the bytes printed when every run built the balanced matrix
SAMPLE3_SCALING = [0.17025208568698647, 0.3860267088795343, 0.4437212054334793]
SAMPLE3_BALANCED = {
    "auto": '{"n": 3, "storage": "dense", "rows": [[2.0, 0.4410370623865726, 0.0], '
    '[1.1336915707137236, 3.0, 1.7399515919119428], [2.6062600269653906, 2.2989145322167306, 4.0]]}',
    "row": '{"n": 3, "storage": "dense", "rows": [[2.0, 3.7399515968836607, 0.0], '
    '[0.133691569809788, 3.0, 2.6062600230689905], [0.20518531324800054, 1.5347662798778676, 4.0]]}',
}
SAMPLE3_DISCS_SHA256 = "bfc4100729def7df2fa02cc005a0ae6823e2a6ba00d1dcb7bf97db3c4f3ec84d"


@pytest.fixture
def sample3_file(tmp_path):
    path = tmp_path / "sample3.mtx"
    write_matrix_market(from_dense(SAMPLE3_ROWS), path)
    return str(path)


@pytest.fixture
def periodic3_file(tmp_path):
    path = tmp_path / "periodic3.mtx"
    write_matrix_market(from_dense(PERIODIC3_ROWS), path)
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestPerronCommand:
    def test_json_record(self, capsys, sample3_file):
        code, record = run_json(
            capsys, ["perron", "--algo", "b", "--side", "auto", "--balanced", "--json", sample3_file]
        )
        assert code == 0
        assert record["command"] == "perron"
        assert record["version"] == "0.1.0"
        result = record["result"]
        assert result["root"] == pytest.approx(5.739952, abs=1e-6)
        assert result["side_used"] == "col"
        assert result["status"] == "converged"
        assert len(result["eigenvector"]) == 3
        assert result["balanced"]["n"] == 3
        assert "timing_seconds" in record

    @pytest.mark.parametrize("algo", ["a", "b"])
    def test_json_result_carries_scaling_not_balanced(self, capsys, sample3_file, algo):
        _, record = run_json(capsys, ["perron", "--algo", algo, "--json", sample3_file])
        result = record["result"]
        assert "balanced" not in result
        assert result["scaling"] == SAMPLE3_SCALING
        assert result["eigenvector"] == (SAMPLE3_SCALING if algo == "b" else None)

    def test_scaling_fixes_the_balanced_payload(self, capsys, sample3_file):
        _, record = run_json(capsys, ["perron", "--balanced", "--json", sample3_file])
        result = record["result"]
        y = np.array(result["scaling"])
        A = np.array(SAMPLE3_ROWS)  # column side: b_ij = a_ij y_i / y_j
        assert result["side_used"] == "col"
        assert np.allclose(result["balanced"]["rows"], A * np.outer(y, 1.0 / y), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("side", ["auto", "row"])
    def test_balanced_flag_payload_is_pinned(self, capsys, sample3_file, side):
        _, record = run_json(capsys, ["perron", "--side", side, "--balanced", "--json", sample3_file])
        assert json.dumps(record["result"]["balanced"]) == SAMPLE3_BALANCED[side]

    def test_json_without_balanced_builds_no_balanced_matrix(self, capsys, tmp_path, sample3_file, monkeypatch):
        def refuse(*args):
            raise AssertionError("perron --json built the balanced matrix")

        monkeypatch.setattr(perronkit.solver, "rank_one_hadamard", refuse)
        discs = str(tmp_path / "discs.csv")
        for algo in ("a", "b"):
            assert main(["perron", "--algo", algo, "--discs", discs, "--json", sample3_file]) == 0

    def test_plain_output_and_exit_code(self, capsys, sample3_file):
        assert main(["perron", sample3_file]) == 0
        out = capsys.readouterr().out
        assert "root" in out and "converged" in out

    @pytest.mark.parametrize("command", [["perron", "--side", "row"], ["power"]], ids=["perron-row", "power"])
    def test_stagnation_exit_code(self, capsys, periodic3_file, command):
        assert main([*command, periodic3_file]) == 2

    def test_max_iteration_exit_code(self, capsys, sample3_file):
        assert main(["perron", "--max-iter", "2", sample3_file]) == 3

    def test_missing_file_is_input_error(self, capsys):
        assert main(["perron", "/nonexistent/m.mtx"]) == 1
        assert "error" in capsys.readouterr().err

    def test_zero_row_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("0,0\n1,1\n")
        assert main(["perron", "--side", "row", str(path)]) == 1

    @pytest.mark.parametrize("command", [["perron", "--json"], ["power"]], ids=["perron", "power"])
    def test_overflowing_sums_are_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "big.csv"
        path.write_text("1e308,1e308\n1,1\n")
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "row 0 sum overflows" in captured.err

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["perron", "--tol", "inf"], "inf"),
            (["stationary", "--tol", "inf"], "inf"),
            (["power", "--tol", "inf"], "inf"),
            (["power", "--max-iter", "0"], "0"),
        ],
        ids=["perron-tol", "stationary-tol", "power-tol", "power-max-iter"],
    )
    def test_bad_run_flags_are_input_error(self, capsys, tmp_path, argv, value):
        path = tmp_path / "chain.csv"
        path.write_text("0.9,0.1\n0.5,0.5\n")  # stochastic, so stationary reaches its config too
        assert main([*argv, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"got {value}" in captured.err

    def test_result_payload_is_deterministic(self, capsys, sample3_file):
        _, first = run_json(capsys, ["perron", "--json", sample3_file])
        _, second = run_json(capsys, ["perron", "--json", sample3_file])
        assert json.dumps(first["result"]) == json.dumps(second["result"])
        # the record itself survives a serialization round trip unchanged
        assert json.loads(json.dumps(first)) == first

    def test_trace_file_monotone(self, capsys, tmp_path, sample3_file):
        trace = tmp_path / "trace.csv"
        assert main(["perron", "--trace", str(trace), sample3_file]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iter,rmin,rmax"
        rmin = [float(line.split(",")[1]) for line in lines[1:]]
        rmax = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a <= b + 1e-12 for a, b in zip(rmin, rmin[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(rmax, rmax[1:]))

    def test_discs_trace_is_pinned(self, capsys, tmp_path, sample3_file):
        discs = tmp_path / "discs.csv"
        assert main(["perron", "--discs", str(discs), sample3_file]) == 0
        assert hashlib.sha256(discs.read_bytes()).hexdigest() == SAMPLE3_DISCS_SHA256

    def test_discs_trace_aligns_at_convergence(self, capsys, tmp_path, sample3_file):
        discs = tmp_path / "discs.csv"
        code, record = run_json(capsys, ["perron", "--discs", str(discs), "--json", sample3_file])
        assert code == 0
        root = record["result"]["root"]
        lines = discs.read_text().strip().splitlines()
        assert lines[0] == "iter,index,center,radius"
        last_iter = max(int(line.split(",")[0]) for line in lines[1:])
        final = [line for line in lines[1:] if int(line.split(",")[0]) == last_iter]
        assert len(final) == 3
        for line in final:
            _, _, center, radius = line.split(",")
            assert float(center) + float(radius) == pytest.approx(root, abs=1e-7)

    def test_max_iter_echoed_in_json_config(self, capsys, sample3_file):
        code, record = run_json(capsys, ["perron", "--max-iter", "2", "--json", sample3_file])
        assert code == 3 and record["config"]["max_iter"] == 2
        assert record["result"]["iterations"] == 2
        assert set(record["config"]) == {"tol", "max_iter", "side", "algo"}


class TestPowerCommand:
    def test_json_output(self, capsys, sample3_file):
        code, record = run_json(capsys, ["power", "--json", sample3_file])
        assert code == 0
        assert record["result"]["eigenvalue"] == pytest.approx(5.739952, abs=1e-6)
        assert record["result"]["status"] == "converged"


class TestBoundsCommand:
    def test_intervals(self, capsys, sample3_file):
        code, payload = run_json(capsys, ["bounds", sample3_file])
        assert code == 0
        assert payload["frobenius_row"] == [3.0, 7.0]
        assert payload["frobenius_col"] == [3.5, 6.0]
        lo, hi = payload["minc_col"]
        assert 3.5 <= lo <= 5.739952 <= hi <= 6.0


class TestPrimitivityCommand:
    def test_periodic3(self, capsys, periodic3_file):
        code, payload = run_json(capsys, ["primitivity", periodic3_file])
        assert code == 0
        assert payload == {"irreducible": True, "primitive": False, "wielandt_bound": 5}

    def test_sample3(self, capsys, sample3_file):
        _, payload = run_json(capsys, ["primitivity", sample3_file])
        assert payload["primitive"] is True


class TestStationaryCommand:
    @pytest.fixture
    def chain_file(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text("0.9,0.1\n0.5,0.5\n")
        return str(path)

    def test_undamped_two_state_chain(self, capsys, chain_file):
        code, payload = run_json(capsys, ["stationary", "--no-damp", chain_file])
        assert code == 0
        assert np.allclose(payload["u"], [5.0 / 6.0, 1.0 / 6.0], atol=1e-8)
        assert payload["ranked"] == [0, 1]
        assert payload["residual"] <= 1e-7

    def test_damped_by_default(self, capsys, chain_file):
        code, payload = run_json(capsys, ["stationary", "--json", chain_file])
        assert code == 0
        assert payload["config"]["alpha"] == 0.85
        assert abs(payload["result"]["u"][0] - 5.0 / 6.0) > 1e-4  # damping shifts the answer

    def test_normalize_accepts_raw_counts(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("9,1\n5,5\n")
        code, payload = run_json(capsys, ["stationary", "--normalize", "--no-damp", str(path)])
        assert code == 0
        assert np.allclose(payload["u"], [5.0 / 6.0, 1.0 / 6.0], atol=1e-8)

    def test_non_stochastic_rejected_without_normalize(self, capsys, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("9,1\n5,5\n")
        assert main(["stationary", "--no-damp", str(path)]) == 1


class TestGenCommand:
    def test_tridiag_roundtrip_through_perron(self, capsys, tmp_path):
        out = tmp_path / "t50.mtx"
        assert main(["gen", "tridiag", "--n", "50", "--c", "1", "--a", "3", "--b", "2", "-o", str(out)]) == 0
        assert out.read_text().startswith("%%MatrixMarket matrix coordinate real general")
        code, record = run_json(capsys, ["perron", "--algo", "b", "--json", str(out)])
        assert code == 0
        assert record["result"]["root"] == pytest.approx(5.823063, abs=1e-6)

    def test_tridiag_to_stdout(self, capsys):
        assert main(["gen", "tridiag", "--n", "3", "--c", "1", "--a", "3", "--b", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("%%MatrixMarket matrix coordinate real general")
        assert "3 3 7" in out

    def test_random_is_primitive(self, capsys, tmp_path):
        out = tmp_path / "r.mtx"
        assert main(["gen", "random", "--n", "6", "--seed", "4", "-o", str(out)]) == 0
        code, payload = run_json(capsys, ["primitivity", str(out)])
        assert payload["primitive"] is True

