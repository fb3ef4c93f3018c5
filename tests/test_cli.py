import hashlib
import json
import os

import numpy as np
import pytest

import perronkit.cli
import perronkit.markov
import perronkit.primitivity
import perronkit.solver
from conftest import PERIODIC3_ROWS, SAMPLE3_ROWS
from oracles import traced_peak
from perronkit import from_dense, period, tridiagonal, write_matrix_market
from perronkit.cli import main

# perron output on sample3 with the default flags (column side), pinned to
# the bytes printed when every run built the balanced matrix
SAMPLE3_SCALING = [0.17025208568698644, 0.3860267088795342, 0.4437212054334792]
SAMPLE3_BALANCED = {
    "auto": '{"n": 3, "storage": "dense", "rows": [[2.0, 0.4410370623865726, 0.0], '
    '[1.1336915707137236, 3.0, 1.739951591911943], [2.60626002696539, 2.2989145322167306, 4.0]]}',
    "row": '{"n": 3, "storage": "dense", "rows": [[2.0, 3.7399515968836607, 0.0], '
    '[0.133691569809788, 3.0, 2.6062600230689905], [0.20518531324800054, 1.5347662798778676, 4.0]]}',
}
SAMPLE3_DISCS_SHA256 = "770e753468d1c015c0c00143971ab8dcb98165527c11a53c239102de90592eba"
# text output of perron --algo b and of power on sample3, pinned byte for byte
SAMPLE3_TEXT = {
    "perron": "root 5.739951594795528 in [5.739951591911943, 5.739951597679114]\n"
    "iterations 17  side col  status converged\n"
    "eigenvector 0.17025208568698644 0.3860267088795342 0.4437212054334792\n",
    "power": "eigenvalue 5.739951593125868\niterations 19  status converged\n",
}
# perron --side col --balanced on 3x3 CSR files with an empty row; both are
# reducible and stagnate, and indptr repeats at the empty row
EMPTY_ROW_FILES = {
    "middle": ("3 3 4\n1 1 1.0\n1 2 2.0\n3 2 1.5\n3 3 0.5\n", 21,
               '{"n": 3, "storage": "csr", "indptr": [0, 2, 2, 4], "indices": [0, 1, 1, 2], '
               '"values": [1.0, 0.9999992847447743, 3.5762761285714184e-07, 0.5]}'),
    "last": ("3 3 4\n1 1 1.0\n1 2 2.0\n2 2 1.5\n2 3 0.5\n", 38,
             '{"n": 3, "storage": "csr", "indptr": [0, 2, 4, 4], "indices": [0, 1, 1, 2], '
             '"values": [1.0, 8.139396740430338e-08, 1.5, 1.500000122090961]}'),
}
# coordinate size lines whose order numpy refuses to allocate outright
HUGE_ORDERS = ["4611686018427387904", "99999999999999999999"]
MATRIX_COMMANDS = [["perron"], ["power"], ["bounds"], ["primitivity"], ["stationary", "--normalize"]]


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
    def test_json_result_carries_eigenvector_not_balanced(self, capsys, sample3_file, algo):
        _, record = run_json(capsys, ["perron", "--algo", algo, "--json", sample3_file])
        result = record["result"]
        assert "balanced" not in result and "scaling" not in result
        assert result["eigenvector"] == SAMPLE3_SCALING

    def test_eigenvector_fixes_the_balanced_payload(self, capsys, sample3_file):
        _, record = run_json(capsys, ["perron", "--balanced", "--json", sample3_file])
        result = record["result"]
        y = np.array(result["eigenvector"])
        A = np.array(SAMPLE3_ROWS)  # column side: b_ij = a_ij y_i / y_j
        assert result["side_used"] == "col"
        assert np.allclose(result["balanced"]["rows"], A * np.outer(y, 1.0 / y), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("side", ["auto", "row"])
    def test_balanced_flag_payload_is_pinned(self, capsys, sample3_file, side):
        _, record = run_json(capsys, ["perron", "--side", side, "--balanced", "--json", sample3_file])
        assert json.dumps(record["result"]["balanced"]) == SAMPLE3_BALANCED[side]

    @pytest.mark.parametrize("row", EMPTY_ROW_FILES)
    def test_csr_balanced_payload_with_an_empty_row_is_pinned(self, capsys, tmp_path, row):
        body, steps, balanced = EMPTY_ROW_FILES[row]
        path = tmp_path / "e.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
        code, record = run_json(capsys, ["perron", "--side", "col", "--balanced", "--json", str(path)])
        result = record["result"]
        assert (code, result["status"], result["iterations"]) == (2, "stagnated", steps)
        assert json.dumps(result["balanced"]) == balanced

    @pytest.mark.parametrize("flags", [["--json"], ["--balanced"]], ids=["json", "balanced-text"])
    def test_json_without_balanced_builds_no_balanced_matrix(self, capsys, tmp_path, sample3_file, monkeypatch, flags):
        def refuse(*args):
            raise AssertionError("perron --json built the balanced matrix")

        monkeypatch.setattr(perronkit.solver, "rank_one_hadamard", refuse)
        discs = str(tmp_path / "discs.csv")
        for algo in ("a", "b"):
            assert main(["perron", "--algo", algo, "--discs", discs, *flags, sample3_file]) == 0

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

    @pytest.mark.parametrize("text", ["0,0\n1,1\n", "0,0,0\n3,0,0\n3,0,0\n"], ids=["columns-win", "rows-win"])
    def test_auto_side_refuses_a_zero_sum_on_either_side(self, capsys, tmp_path, text):
        path = tmp_path / "z.csv"
        path.write_text(text)
        assert main(["perron", "--json", str(path)]) == 1
        assert "row 1 sums to zero" in capsys.readouterr().err

    def test_column_side_runs_a_matrix_with_a_zero_row(self, capsys, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("0,0\n1,1\n")
        code, record = run_json(capsys, ["perron", "--side", "col", "--json", str(path)])
        assert code == 0
        assert (record["result"]["status"], record["result"]["iterations"]) == ("converged", 0)

    @pytest.mark.parametrize("command", [["perron", "--json"], ["power"]], ids=["perron", "power"])
    def test_overflowing_sums_are_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "big.csv"
        path.write_text("1e308,1e308\n1,1\n")
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "row 1 sum overflows" in captured.err

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

    @pytest.mark.parametrize("flag", ["--trace", "--discs"])
    def test_unwritable_trace_file_fails_before_the_solve(self, capsys, tmp_path, sample3_file, monkeypatch, flag):
        calls = []
        monkeypatch.setattr(perronkit.cli, "algorithm_a", lambda *args, **kwargs: calls.append(args))
        assert main(["perron", flag, str(tmp_path / "missing" / "x.csv"), sample3_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert calls == []

    @pytest.mark.parametrize(
        "flags, named",
        [(["--trace", "x.csv", "--discs", "./x.csv"], "x.csv"), (["--trace", "a.csv"], "a.csv"),
         (["--discs", "a.csv"], "a.csv"), (["--trace", "h.csv"], "h.csv")],
        ids=["trace-and-discs", "trace-over-input", "discs-over-input", "trace-over-a-hard-link"],
    )
    def test_two_outputs_naming_one_file_are_refused(self, capsys, tmp_path, monkeypatch, flags, named):
        # one of the two writes would be lost, or the input overwritten; h.csv is a.csv under another name
        calls = []
        monkeypatch.setattr(perronkit.cli, "algorithm_a", lambda *args, **kwargs: calls.append(args))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.csv").write_text("2,1\n1,3\n")
        os.link(tmp_path / "a.csv", tmp_path / "h.csv")
        before = (tmp_path / "a.csv").read_bytes()
        assert main(["perron", *flags, "a.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1 and "name one file" in captured.err
        assert calls == []
        assert (tmp_path / "a.csv").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "h.csv"]

    def test_two_outputs_to_a_device_are_not_one_file(self, capsys, sample3_file):
        assert main(["perron", "--trace", os.devnull, "--discs", os.devnull, sample3_file]) == 0

    def test_a_failed_run_removes_its_trace_files(self, capsys, tmp_path):
        # the zero row raises inside the solve, after both files are opened
        path, trace, discs = tmp_path / "z.csv", tmp_path / "t.csv", tmp_path / "d.csv"
        path.write_text("0,0\n1,1\n")
        assert main(["perron", "--side", "row", "--trace", str(trace), "--discs", str(discs), str(path)]) == 1
        assert "sums to zero" in capsys.readouterr().err
        assert not trace.exists() and not discs.exists()

    def test_a_failed_run_removes_only_regular_files_and_reports_its_own_error(self, capsys, tmp_path, monkeypatch):
        # removing /dev/null as root deletes the device; a failed removal must not hide the run's error
        calls = []

        def remove(path):
            calls.append(path)
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(perronkit.cli.os, "remove", remove)
        path, discs = tmp_path / "z.csv", tmp_path / "d.csv"
        path.write_text("0,0\n1,1\n")
        assert main(["perron", "--side", "row", "--trace", os.devnull, "--discs", str(discs), str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "sums to zero" in err
        assert calls == [str(discs)]

    def test_an_empty_trace_path_asks_for_no_file(self, capsys, tmp_path, sample3_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["perron", "--trace", "", "--discs", "", sample3_file]) == 0
        out = capsys.readouterr().out
        assert main(["perron", sample3_file]) == 0
        assert capsys.readouterr().out == out
        assert [p.name for p in tmp_path.iterdir()] == ["sample3.mtx"]

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

    def test_discs_stream_in_memory_of_order_n(self, capsys, tmp_path):
        # 3001 steps of 50 sums would take 1.2 MB if the run kept them
        t50 = tmp_path / "t50.mtx"
        write_matrix_market(tridiagonal(50, 1.0, 3.0, 2.0), t50)
        discs = tmp_path / "discs.csv"
        code, peak = traced_peak(lambda: main(["perron", "--discs", str(discs), "--max-iter", "3000", str(t50)]))
        assert code == 3
        assert peak < 1_000_000
        with open(discs) as fh:
            assert sum(1 for _ in fh) == 3001 * 50 + 1

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

    def test_subnormal_sums_keep_the_plain_intervals(self, capsys, tmp_path):
        # one step would take y below the normal range, so the solver takes none
        path = tmp_path / "tiny.csv"
        path.write_text("1.0,3e-310\n3e-310,1e-310\n")
        code, record = run_json(capsys, ["bounds", "--json", str(path)])
        assert code == 0
        result = record["result"]
        assert result["minc_row"] == result["frobenius_row"]
        assert result["minc_col"] == result["frobenius_col"]


class TestPrimitivityCommand:
    def test_periodic3(self, capsys, periodic3_file):
        code, payload = run_json(capsys, ["primitivity", periodic3_file])
        assert code == 0
        # the 3x3 bipartite path: every cycle has even length
        assert payload == {"irreducible": True, "primitive": False, "period": 2, "wielandt_bound": 5}

    def test_sample3(self, capsys, sample3_file):
        _, payload = run_json(capsys, ["primitivity", sample3_file])
        assert payload["primitive"] is True

    @pytest.mark.parametrize("rows", [
        SAMPLE3_ROWS, PERIODIC3_ROWS, [[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[0]], [[1, 1], [0, 1]],
    ], ids=["primitive", "period2", "cycle3", "zero1x1", "reducible"])
    def test_period_member_is_the_period(self, capsys, tmp_path, rows):
        A = from_dense(rows)
        path = tmp_path / "m.mtx"
        write_matrix_market(A, path)
        _, payload = run_json(capsys, ["primitivity", str(path)])
        p = period(A)
        assert (payload["period"], payload["irreducible"], payload["primitive"]) == (p, p is not None, p == 1)

    def test_searches_the_graph_twice(self, capsys, monkeypatch, sample3_file):
        # one forward and one backward search answer both questions
        searches = []
        levels = perronkit.primitivity._levels
        monkeypatch.setattr(perronkit.primitivity, "_levels", lambda *a: searches.append(a) or levels(*a))
        run_json(capsys, ["primitivity", sample3_file])
        assert len(searches) == 2


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
def test_perron_converges_on_what_primitivity_calls_primitive(capsys, tmp_path):
    # primitive, but its Perron vector spans more than the float64 range;
    # the solver leaves that range on the way and stops early
    n, path = 20, tmp_path / "wide.mtx"
    arr = np.diag(np.arange(1.0, n + 1)) + 1e-20 * (np.eye(n, k=1) + np.eye(n, k=-1))
    write_matrix_market(from_dense(arr), path)
    _, structure = run_json(capsys, ["primitivity", str(path)])
    code, record = run_json(capsys, ["perron", "--json", str(path)])
    assert structure["primitive"] is True
    assert (code, record["result"]["status"]) == (0, "converged")


class TestStationaryCommand:
    @pytest.fixture
    def chain_file(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text("0.9,0.1\n0.5,0.5\n")
        return str(path)

    def test_undamped_two_state_chain(self, capsys, chain_file):
        code, payload = run_json(capsys, ["stationary", "--alpha", "1", chain_file])
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
        code, payload = run_json(capsys, ["stationary", "--normalize", "--alpha", "1", str(path)])
        assert code == 0
        assert np.allclose(payload["u"], [5.0 / 6.0, 1.0 / 6.0], atol=1e-8)

    @pytest.mark.parametrize("flags, taken", [(["--normalize"], ["row", "row"]), ([], ["row"])],
                             ids=["normalize", "as-given"])
    def test_the_rows_are_summed_once_to_divide_and_once_to_check(self, capsys, tmp_path, monkeypatch,
                                                                  flags, taken):
        # --normalize once summed the rows a third time, to check the quotient again under alpha
        sides, sums = [], perronkit.markov.sums

        def logged(A, side):
            sides.append(side.value)
            return sums(A, side)

        monkeypatch.setattr(perronkit.markov, "sums", logged)
        path = tmp_path / "chain.csv"
        path.write_text("0.9,0.1\n0.5,0.5\n")
        code, payload = run_json(capsys, ["stationary", *flags, str(path)])
        assert (code, payload["status"], sides) == (0, "converged", taken)

    def test_non_stochastic_rejected_without_normalize(self, capsys, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("9,1\n5,5\n")
        assert main(["stationary", "--alpha", "1", str(path)]) == 1

    def test_alpha_one_is_the_chain_as_given(self, capsys, chain_file):
        code, record = run_json(capsys, ["stationary", "--alpha", "1", "--json", chain_file])
        assert code == 0
        assert record["config"]["alpha"] == 1.0
        assert np.allclose(record["result"]["u"], [5.0 / 6.0, 1.0 / 6.0], atol=1e-8)

    @pytest.mark.parametrize("alpha", ["0", "1.5", "nan", "7"])
    def test_alpha_outside_its_domain_is_input_error(self, capsys, chain_file, alpha):
        assert main(["stationary", "--alpha", alpha, chain_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "(0, 1]" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_bad_alpha_is_reported_before_the_row_sums(self, capsys, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("9,1\n5,5\n")
        assert main(["stationary", "--alpha", "7", str(path)]) == 1
        assert "(0, 1]" in capsys.readouterr().err

    def test_no_damp_is_a_usage_error(self, capsys, chain_file):
        with pytest.raises(SystemExit) as exc:
            main(["stationary", "--no-damp", chain_file])
        assert exc.value.code == 1
        assert "unrecognized arguments: --no-damp" in capsys.readouterr().err


class TestRunner:
    """What every matrix command shares: the run record, the text output and the error exit."""

    @pytest.mark.parametrize("command", MATRIX_COMMANDS, ids=lambda c: c[0])
    def test_json_prints_one_run_record(self, capsys, sample3_file, command):
        assert main([*command, "--json", sample3_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert list(record) == ["command", "input", "config", "result", "timing_seconds", "version"]
        assert record["command"] == command[0] and record["input"] == sample3_file

    @pytest.mark.parametrize("command", MATRIX_COMMANDS[2:], ids=lambda c: c[0])
    def test_text_is_the_indented_result(self, capsys, sample3_file, command):
        _, record = run_json(capsys, [*command, "--json", sample3_file])
        assert main([*command, sample3_file]) == 0
        assert capsys.readouterr().out == json.dumps(record["result"], indent=2) + "\n"

    @pytest.mark.parametrize("command", [["perron", "--algo", "b"], ["power"]], ids=["perron", "power"])
    def test_text_output_is_pinned(self, capsys, sample3_file, command):
        assert main([*command, sample3_file]) == 0
        assert capsys.readouterr().out == SAMPLE3_TEXT[command[0]]

    @pytest.mark.parametrize(
        "message", ["", "Unable to allocate 22.4 GiB for an array with shape (3000000001,)"], ids=["bare", "numpy"]
    )
    @pytest.mark.parametrize("command", MATRIX_COMMANDS, ids=lambda c: c[0])
    def test_out_of_memory_is_input_error(self, capsys, monkeypatch, sample3_file, command, message):
        def exhausted(path):
            raise MemoryError(message)

        monkeypatch.setattr(perronkit.cli, "parse_matrix", exhausted)
        assert main([*command, "--json", sample3_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message or 'out of memory'}\n"

    @pytest.mark.parametrize(
        "command, body, message",
        [
            ("perron", "2 2 1\n1 1 -1\n", "entry (1, 1) is negative: -1.0"),
            ("bounds", "4 4 3\n1 2 1\n2 3 1\n3 4 1\n", "row 4 sums to zero; matrix cannot be primitive"),
        ],
        ids=["negative-entry", "zero-row"],
    )
    def test_error_messages_count_from_one(self, capsys, tmp_path, command, body, message):
        # the file's own numbering: its entry "1 1 -1" and its fourth, empty row
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n" + body)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


    @pytest.mark.parametrize(
        "argv",
        [["perron", "--side", "up"], ["perron", "--max-iter", "1e3"], ["perron", "--bogus"], ["gen", "random", "--n", "abc"]],
        ids=["choice", "int", "unknown-flag", "gen"],
    )
    def test_usage_error_is_input_error(self, capsys, sample3_file, argv):
        # exit 2 would read as "stagnated"; argparse's usage and message stay on stderr
        with pytest.raises(SystemExit) as exc:
            main([*argv, sample3_file] if argv[0] == "perron" else argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: perronkit")
        assert "error: " in captured.err.splitlines()[-1]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["perron", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: perronkit perron")

    @pytest.mark.parametrize("n", HUGE_ORDERS)
    @pytest.mark.parametrize("command", MATRIX_COMMANDS, ids=lambda c: c[0])
    def test_order_numpy_cannot_address_is_input_error(self, capsys, tmp_path, command, n):
        path = tmp_path / "huge.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n{n} {n} 1\n1 1 1.0\n")
        trace = tmp_path / "trace.csv"
        extra = ["--trace", str(trace)] if command == ["perron"] else []
        assert main([*command, *extra, "--json", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 2: a {n}x{n} matrix does not fit in memory\n"
        assert not trace.exists()


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

    def test_an_empty_output_path_is_one_error_line(self, capsys):
        # only the trace flags read an empty path as unset; -o "" names no file
        assert main(["gen", "tridiag", "--n", "3", "--c", "1", "--a", "3", "--b", "2", "-o", ""]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: [Errno 2] No such file or directory: ''\n")

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--density", "2"], ["--density", "nan"]])
    def test_random_bad_argument_is_one_error_line(self, capsys, tmp_path, flags):
        out = tmp_path / "r.mtx"
        assert main(["gen", "random", "--n", "3", *flags, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["random", "--n", "3000000000"], ["tridiag", "--n", "100000000000000000000", "--c", "1", "--a", "1", "--b", "1"]],
        ids=["random", "tridiag"],
    )
    def test_order_numpy_cannot_address_is_one_error_line(self, capsys, tmp_path, argv):
        out = tmp_path / "huge.mtx"
        assert main(["gen", *argv, "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert "does not fit in memory" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("n", [400, 1000])
    def test_random_memory_does_not_grow_with_the_square_of_the_order(self, capsys, tmp_path, n):
        # the matrix is drawn and written 256 columns at a time through one
        # n x 256 scratch array (2 MB at n = 1000); holding it would take 8n²
        code, peak = traced_peak(lambda: main(["gen", "random", "--n", str(n), "--seed", "3", "-o", str(tmp_path / "r.mtx")]))
        assert code == 0
        assert peak < 3_000_000

    def test_random_is_primitive(self, capsys, tmp_path):
        out = tmp_path / "r.mtx"
        assert main(["gen", "random", "--n", "6", "--seed", "4", "-o", str(out)]) == 0
        code, payload = run_json(capsys, ["primitivity", str(out)])
        assert payload["primitive"] is True

