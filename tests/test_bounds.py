import math

import numpy as np
import pytest

import perronkit.matcore
import perronkit.solver
from oracles import charpoly_coefficients, dominant_eigenvalue, perron_2x2, traced_peak
from perronkit import (
    Side,
    SolverConfig,
    ZeroSumError,
    algorithm_a,
    bounds_report,
    from_coordinates,
    from_dense,
    frobenius_bounds,
    minc_bounds,
    power_method,
    random_primitive,
    rank_one_hadamard,
)

SAMPLE3_ROOT_6DP = 5.739952  # dominant eigenvalue of the 3x3 sample, 6 decimals


class TestFrobeniusBounds:
    def test_sample3_rows(self, sample3):
        assert frobenius_bounds(sample3, Side.ROW) == (3.0, 7.0)

    def test_equality_does_not_certify_primitivity(self, periodic3):
        # column sums all equal 3, yet the matrix is imprimitive
        assert frobenius_bounds(periodic3, Side.COLUMN) == (3.0, 3.0)

    def test_identity(self):
        assert frobenius_bounds(from_dense(np.eye(4)), Side.ROW) == (1.0, 1.0)


class TestMincBounds:
    def test_sample3_columns_sharpen_and_enclose(self, sample3):
        frob = frobenius_bounds(sample3, Side.COLUMN)
        assert frob[1] - frob[0] == 2.5
        lo, hi = minc_bounds(sample3, Side.COLUMN)
        assert frob[0] <= lo <= SAMPLE3_ROOT_6DP <= hi <= frob[1]

    def test_equal_row_sums_collapse(self):
        A = from_dense([[1.0, 2.0], [2.0, 1.0]])
        assert minc_bounds(A, Side.ROW) == (3.0, 3.0)

    def test_periodic3_rows_nested_in_frobenius(self, periodic3):
        lo, hi = minc_bounds(periodic3, Side.ROW)
        # one scaling step by hand gives row sums (6, 1.5, 6)
        assert (lo, hi) == (1.5, 6.0)
        assert frobenius_bounds(periodic3, Side.ROW) == (1.0, 6.0)

    def test_zero_sum_raises(self):
        A = from_dense([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ZeroSumError) as err:
            minc_bounds(A, Side.ROW)
        assert err.value.index == 0

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_zero_column_reported_as_column(self, storage):
        # both rows sum to 1; column 1 sums to zero
        A = from_dense([[1.0, 0.0], [1.0, 0.0]])
        if storage == "csr":
            A = from_coordinates(2, [0, 1], [0, 0], [1.0, 1.0])
        with pytest.raises(ZeroSumError) as err:
            minc_bounds(A, Side.COLUMN)
        assert (err.value.index, err.value.side) == (1, "col")

    def test_nesting_on_random_matrices(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            A = from_dense(rng.uniform(0.05, 3.0, (n, n)))
            for side in Side:
                flo, fhi = frobenius_bounds(A, side)
                mlo, mhi = minc_bounds(A, side)
                assert flo <= mlo + 1e-12 and mhi <= fhi + 1e-12
                assert mlo <= mhi

    @pytest.mark.parametrize("side", [Side.ROW, Side.COLUMN], ids=["row", "col"])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_is_the_solvers_first_step(self, side, storage):
        rng = np.random.default_rng(23)
        stepped = 0
        for _ in range(40):
            A = random_primitive(int(rng.integers(2, 9)), rng=rng)
            if storage == "csr":
                nz = np.nonzero(A.to_dense())
                A = from_coordinates(A.n, *nz, A.to_dense()[nz])
            history = algorithm_a(A, SolverConfig(side=side)).history
            if len(history) > 1:
                stepped += 1
                assert minc_bounds(A, side) == (history.rmin[1], history.rmax[1])
            # the report reads both intervals of a side off one such step
            rep = bounds_report(A)
            name = "row" if side is Side.ROW else "col"
            for got, want in ((getattr(rep, f"frobenius_{name}"), frobenius_bounds(A, side)),
                              (getattr(rep, f"minc_{name}"), minc_bounds(A, side))):
                assert [x.hex() for x in got] == [x.hex() for x in want]
        assert stepped >= 30


class TestPerron2x2:
    def test_root_is_exactly_4(self, root4_2x2):
        root, x = perron_2x2(root4_2x2.to_dense())
        assert root == pytest.approx(4.0, abs=1e-12)
        assert x == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    def test_permutation_still_returns_spectral_radius(self):
        root, x = perron_2x2([[0.0, 1.0], [1.0, 0.0]])
        assert root == 1.0 and x == 1.0

    def test_symmetric_pair(self):
        A = [[2.0, 1.0], [1.0, 2.0]]
        root, _ = perron_2x2(A)
        # larger root of the characteristic polynomial
        c = charpoly_coefficients(A)
        larger = max(np.roots(c).real)
        assert root == pytest.approx(larger, abs=0) == 3.0

    def test_scaling_by_x_equalizes_row_sums(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            A = from_dense(rng.uniform(0.1, 5.0, (2, 2)))
            root, x = perron_2x2(A.to_dense())
            B = rank_one_hadamard(A, np.array([1.0, 1.0 / x]), np.array([1.0, x]))
            r = B.to_dense().sum(axis=1)
            assert np.allclose(r, root, rtol=1e-12)

    def test_agrees_with_solver(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            A = from_dense(rng.uniform(0.1, 5.0, (2, 2)))
            root, _ = perron_2x2(A.to_dense())
            assert abs(root - algorithm_a(A, SolverConfig(tolerance=1e-12)).root) <= 1e-10


def test_report_builds_no_scaled_matrix(sample3, monkeypatch):
    def refuse(*args):
        raise AssertionError("bounds_report built a scaled matrix")

    expected = bounds_report(sample3)
    monkeypatch.setattr(perronkit.matcore, "rank_one_hadamard", refuse)
    monkeypatch.setattr(perronkit.solver, "rank_one_hadamard", refuse)
    assert bounds_report(sample3) == expected


def test_report_on_dense_storage_copies_no_transpose():
    # the row-side sums and minc solve run one einsum over A itself and copy no transpose of it
    n = 400
    A = random_primitive(n, rng=3)
    _, peak = traced_peak(lambda: bounds_report(A))
    assert peak < 8 * n * n / 4


def test_power_root_inside_every_reported_interval():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        A = random_primitive(n, density=0.6, rng=rng)
        rho = power_method(A, tol=1e-12).eigenvalue
        rep = bounds_report(A)
        for lo, hi in (rep.frobenius_row, rep.frobenius_col, rep.minc_row, rep.minc_col):
            assert lo - 1e-9 <= rho <= hi + 1e-9


def test_intervals_bracket_the_true_spectral_radius(sample3):
    rho = dominant_eigenvalue(sample3.to_dense())
    rep = bounds_report(sample3)
    for lo, hi in (rep.frobenius_row, rep.frobenius_col, rep.minc_row, rep.minc_col):
        assert lo <= rho <= hi
