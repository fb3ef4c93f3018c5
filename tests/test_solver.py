import dataclasses
import math

import numpy as np
import pytest

from conftest import SAMPLE3_ROWS
from oracles import charpoly_coefficients
from perronkit import (
    ConvergenceHistory,
    Side,
    SolverConfig,
    Status,
    ZeroSumError,
    algorithm_a,
    algorithm_b,
    bounds_report,
    choose_side,
    convergence_discs,
    detect_stagnation,
    diag_similarity,
    estimate_iterations,
    from_coordinates,
    from_dense,
    power_method,
    random_primitive,
    range_error,
    recover_X,
    sums,
    tridiagonal,
)
from perronkit.errors import DomainError
from perronkit.solver import _STAGNATION_WINDOW


def history(rmin, rmax):
    return ConvergenceHistory(rmin=np.asarray(rmin, float), rmax=np.asarray(rmax, float))


class TestChooseSide:
    def test_sample3_prefers_columns(self, sample3):
        # initial ranges: rows 4, columns 2.5
        assert choose_side(sample3) is Side.COLUMN

    def test_symmetric_tie_goes_to_rows(self):
        assert choose_side(from_dense([[1.0, 2.0], [2.0, 1.0]])) is Side.ROW

    def test_periodic3_prefers_columns(self, periodic3):
        # ranges: rows 5, columns 0
        assert choose_side(periodic3) is Side.COLUMN


class TestRangeError:
    def test_zero_spread(self):
        assert range_error(np.array([3.0, 3.0, 3.0])) == 0.0

    def test_sample3_rows(self, sample3):
        assert range_error(sums(sample3, Side.ROW)) == 4.0

    def test_plain_sequence(self):
        assert range_error([1.0, 6.0, 2.0]) == 5.0


class TestAlgorithmA:
    def test_sample3_converges_on_columns(self, sample3):
        res = algorithm_a(sample3)
        assert res.status is Status.CONVERGED
        assert res.side_used is Side.COLUMN
        assert res.root == pytest.approx(5.739952, abs=1e-6)
        assert res.root_hi - res.root_lo <= 1e-8
        assert res.eigenvector is None

    def test_already_balanced_needs_no_update(self):
        A = from_dense([[1.0, 2.0], [2.0, 1.0]])
        res = algorithm_a(A)
        assert res.iterations == 0 and res.root == 3.0
        assert res.status is Status.CONVERGED

    def test_periodic3_row_side_oscillates(self, periodic3):
        res = algorithm_a(periodic3, SolverConfig(side=Side.ROW), record_sums=True)
        assert res.status is Status.STAGNATED
        assert res.iterations <= 200
        # hand iteration: sums flip between (6, 1.5, 6) and (1.5, 6, 1.5)
        assert np.array_equal(res.history.sums[1], [6.0, 1.5, 6.0])
        assert np.array_equal(res.history.sums[2], [1.5, 6.0, 1.5])
        assert np.array_equal(res.history.sums[3], [6.0, 1.5, 6.0])
        assert res.root_hi - res.root_lo == 4.5

    def test_zero_row_sum_rejected(self):
        with pytest.raises(ZeroSumError) as err:
            algorithm_a(from_dense([[0.0, 0.0], [1.0, 1.0]]), SolverConfig(side=Side.ROW))
        assert err.value.index == 0

    def test_max_iterations_status(self, sample3):
        res = algorithm_a(sample3, SolverConfig(max_iterations=2))
        assert res.status is Status.MAX_ITERATIONS and res.iterations == 2

    def test_one_step_balances_the_2x2(self, root4_2x2):
        res = algorithm_a(root4_2x2)
        assert res.iterations == 1 and res.status is Status.CONVERGED
        assert np.allclose(res.balanced.to_dense(), [[3.0, 1.0], [3.0, 1.0]], atol=1e-12, rtol=0)

    def test_single_entry_matrix(self):
        res = algorithm_a(from_dense([[5.0]]))
        assert res.root == 5.0 and res.iterations == 0

    def test_root_midpoint_does_not_overflow(self):
        res = algorithm_a(from_dense([[1e308]]))
        assert res.root == 1e308

    def test_slow_primitive_run_is_not_reported_stagnant(self):
        # the spread of this primitive matrix stalls for a window near
        # iteration 960; the exact test keeps the run going to the cap
        res = algorithm_a(tridiagonal(400, 1.0, 3.0, 2.0), SolverConfig(max_iterations=3000))
        assert res.status is Status.MAX_ITERATIONS and res.iterations == 3000


class TestAlgorithmB:
    def test_sample3_matches_algorithm_a(self, sample3):
        res_a = algorithm_a(sample3)
        res_b = algorithm_b(sample3)
        assert abs(res_a.root - res_b.root) <= 1e-8
        assert res_b.eigenvector is not None and np.all(res_b.eigenvector > 0)
        assert res_b.eigenvector.sum() == pytest.approx(1.0, abs=1e-12)

    def test_eigenvector_of_2x2(self, root4_2x2):
        res = algorithm_b(root4_2x2)
        assert res.root == pytest.approx(4.0, abs=1e-10)
        expected = np.array([math.sqrt(3.0), 1.0])
        assert np.allclose(res.eigenvector, expected / expected.sum(), atol=1e-10)

    def test_eigen_identity_in_solved_orientation(self, sample3):
        res = algorithm_b(sample3)
        M = sample3.to_dense() if res.side_used is Side.ROW else sample3.to_dense().T
        v = res.eigenvector
        assert np.abs(M @ v - res.root * v).max() / np.abs(v).max() <= 1e-7

    def test_balanced_rows_all_equal_root(self):
        A = random_primitive(6, density=0.7, rng=123)
        res = algorithm_b(A, SolverConfig(side=Side.ROW))
        r = res.balanced.to_dense().sum(axis=1)
        assert np.all(r >= res.root_lo - 1e-12) and np.all(r <= res.root_hi + 1e-12)

    def test_order_50_tridiagonal(self):
        T = tridiagonal(50, 1.0, 3.0, 2.0)
        res = algorithm_b(T)
        assert res.status is Status.CONVERGED
        assert res.root == pytest.approx(5.823063, abs=1e-6)
        assert 3000 <= res.iterations <= 8000

    def test_huge_scale_spread_converges(self):
        M = diag_similarity(from_dense([[2.0, 1.0], [1.0, 2.0]]), np.array([1.0, 1e155]))
        res = algorithm_b(M)
        assert res.status is Status.CONVERGED
        assert res.root == pytest.approx(3.0, abs=1e-8)
        assert np.all(res.eigenvector > 0)

    @pytest.mark.parametrize(
        "rows, side",
        [
            ([[1e20, 1.0], [0.0, 1.0]], Side.ROW),
            ([[1.0, 1.0, 0.0], [0.0, 1e40, 1.0], [0.0, 0.0, 1.0]], Side.ROW),
            ([[1.0, 1.0, 0.0], [0.0, 1e40, 1.0], [0.0, 0.0, 1.0]], Side.COLUMN),
        ],
        ids=["2x2-row", "3x3-row", "3x3-col"],
    )
    def test_reducible_underflow_stops_finite(self, rows, side):
        # the scaling vector underflows on these reducible inputs; the run
        # must stop early and keep its last finite step
        cfg = SolverConfig(side=side)
        res = algorithm_b(from_dense(rows), cfg)
        assert res.status is Status.STAGNATED
        assert res.iterations <= _STAGNATION_WINDOW + 5
        assert np.all(np.isfinite([res.root_lo, res.root_hi, res.root]))
        assert np.all(np.isfinite(res.eigenvector))
        assert np.all(np.isfinite(res.balanced.to_dense()))

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_huge_root_converges_at_rounding_floor(self, storage):
        # after one step the ends of the enclosure are adjacent doubles near
        # 1e300; their spread, one ulp (1.5e284), is far above the tolerance
        arr = np.array([[1e-300, 1e-300], [1.0, 1e300]])
        nz = np.nonzero(arr)
        A = from_dense(arr) if storage == "dense" else from_coordinates(2, *nz, arr[nz])
        res = algorithm_b(A, SolverConfig(side=Side.COLUMN))
        assert res.status is Status.CONVERGED and res.iterations == 1
        assert res.root_hi == 1e300 and res.root_hi - res.root_lo <= math.ulp(1e300)
        assert np.array_equal(res.eigenvector, [1e-300, 1.0])


class TestStoppingRules:
    def test_range_rule_detects_stagnation_within_window(self, periodic3):
        cfg = SolverConfig(side=Side.ROW)
        res = algorithm_a(periodic3, cfg)
        assert res.status is Status.STAGNATED
        assert res.iterations <= _STAGNATION_WINDOW + 5


class TestDetectStagnation:
    def test_periodic3_trace_is_stagnant(self, periodic3):
        cfg = SolverConfig(side=Side.ROW)
        res = algorithm_a(periodic3, cfg)
        assert res.iterations <= 25
        assert detect_stagnation(res.history, cfg)

    def test_sample3_trace_never_stagnates(self, sample3):
        # a tolerance at the rounding floor runs sample3 past the window
        cfg = SolverConfig(tolerance=1e-15)
        res = algorithm_a(sample3, cfg)
        assert res.status is Status.CONVERGED
        h = res.history
        assert len(h) > _STAGNATION_WINDOW + 1
        for t in range(len(h)):
            assert not detect_stagnation(
                ConvergenceHistory(rmin=h.rmin[: t + 1], rmax=h.rmax[: t + 1]), cfg
            )

    def test_converged_history_is_not_stagnant(self):
        h = history([3.0] * (_STAGNATION_WINDOW + 5), [3.0] * (_STAGNATION_WINDOW + 5))
        assert not detect_stagnation(h, SolverConfig())

    def test_short_history_reports_false(self):
        cfg = SolverConfig()
        assert not detect_stagnation(history([1.0], [2.0]), cfg)


class TestEstimateIterations:
    def test_halving(self):
        assert estimate_iterations(0.5, 0.5) == 1

    def test_powers_of_ten(self):
        assert estimate_iterations(1e-8, 0.1) == 8

    def test_domain_rejections(self):
        for alpha, c in ((1.0, 0.5), (0.5, 1.0), (0.0, 0.5), (0.5, 0.0), (-0.1, 0.5)):
            with pytest.raises(DomainError):
                estimate_iterations(alpha, c)

    def test_prediction_from_measured_contraction(self, sample3):
        res = algorithm_a(sample3)
        h = res.history
        spreads = h.rmax - h.rmin
        ratios = spreads[1:] / spreads[:-1]
        c = float(np.exp(np.log(ratios[ratios > 0]).mean()))
        predicted = estimate_iterations(1e-8 / spreads[0], c)
        assert predicted <= 2 * res.iterations and res.iterations <= 2 * predicted


class TestRecoverX:
    def test_all_ones(self):
        X = recover_X(np.ones(3))
        assert np.array_equal(X.to_dense(), np.ones((3, 3)))

    def test_2x2_scaling_vector(self):
        X = recover_X(np.array([1.0, 1.0 / math.sqrt(3.0)]))
        s3 = math.sqrt(3.0)
        assert np.allclose(X.to_dense(), [[1.0, 1.0 / s3], [s3, 1.0]], rtol=1e-15)
        assert np.array_equal(np.diagonal(X.to_dense()), np.ones(2))

    def test_elementwise_reciprocal_symmetry(self):
        rng = np.random.default_rng(6)
        y = rng.uniform(0.1, 10.0, 5)
        X = recover_X(y).to_dense()
        assert np.allclose(X * X.T, np.ones((5, 5)), rtol=1e-12)


class TestInvariants:
    def test_monotone_enclosure_on_primitive_matrices(self):
        rng = np.random.default_rng(100)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            A = random_primitive(n, density=float(rng.uniform(0.2, 0.9)), rng=rng)
            res = algorithm_a(A)
            assert res.status is Status.CONVERGED
            assert np.all(np.diff(res.history.rmin) >= -1e-12)
            assert np.all(np.diff(res.history.rmax) <= 1e-12)
            assert np.all(res.history.rmin <= res.history.rmax)

    def test_balanced_preserves_diagonal_pattern_and_spectrum(self):
        rng = np.random.default_rng(200)
        for n in (2, 3, 4):
            A = random_primitive(n, density=0.6, rng=rng)
            arr = A.to_dense()
            for solve in (algorithm_a, algorithm_b):
                res = solve(A)
                bal = res.balanced.to_dense()
                assert np.array_equal(np.diagonal(bal), np.diagonal(arr))
                assert np.array_equal(bal == 0, arr == 0)
                assert np.allclose(
                    charpoly_coefficients(bal), charpoly_coefficients(arr), atol=1e-9, rtol=0
                )

    def test_balanced_unit_vector_identity(self):
        rng = np.random.default_rng(300)
        for _ in range(10):
            A = random_primitive(int(rng.integers(2, 7)), rng=rng)
            res = algorithm_b(A)
            M = res.balanced if res.side_used is Side.ROW else res.balanced.transpose()
            r = M.to_dense().sum(axis=1)
            assert np.abs(r - res.root).max() <= 1e-8

    def test_disc_alignment_at_convergence(self):
        rng = np.random.default_rng(400)
        for _ in range(10):
            A = random_primitive(int(rng.integers(2, 8)), rng=rng)
            res = algorithm_a(A)
            for disc in convergence_discs(res):
                assert abs(disc.reach - res.root) <= 10 * 1e-8

    def test_agreement_with_power_method_and_between_variants(self):
        rng = np.random.default_rng(500)
        for _ in range(30):
            A = random_primitive(int(rng.integers(2, 9)), density=0.5, rng=rng)
            root_b = algorithm_b(A).root
            root_a = algorithm_a(A).root
            lam = power_method(A).eigenvalue
            assert abs(root_b - lam) <= 1e-7
            assert abs(root_a - root_b) <= 2e-8

    def test_scale_equivariance(self, sample3):
        base = algorithm_a(sample3).root
        for beta in (0.01, 1.0, 1000.0):
            scaled = from_dense(beta * np.array(SAMPLE3_ROWS))
            res = algorithm_a(scaled, SolverConfig(tolerance=beta * 1e-8))
            assert abs(res.root - beta * base) <= 1e-9 * beta

    @pytest.mark.parametrize("side", [Side.ROW, Side.COLUMN], ids=["row", "col"])
    @pytest.mark.parametrize("solve", [algorithm_a, algorithm_b], ids=["algorithm_a", "algorithm_b"])
    def test_csr_and_dense_runs_are_bit_identical(self, solve, side):
        T = tridiagonal(8, 1.0, 3.0, 2.0)
        D = from_dense(T.to_dense())
        cfg = SolverConfig(side=side)
        res_sparse = solve(T, cfg, record_sums=True)
        res_dense = solve(D, cfg, record_sums=True)
        assert res_sparse.iterations == res_dense.iterations
        assert np.array_equal(res_sparse.history.rmin, res_dense.history.rmin)
        assert np.array_equal(res_sparse.history.rmax, res_dense.history.rmax)
        assert np.array_equal(res_sparse.history.sums, res_dense.history.sums)
        assert np.array_equal(res_sparse.balanced.to_dense(), res_dense.balanced.to_dense())
        if solve is algorithm_b:
            assert np.array_equal(res_sparse.eigenvector, res_dense.eigenvector)

    def test_eigenvector_residual_within_ten_tolerances(self, sample3):
        cfg = SolverConfig(side=Side.ROW)
        res = algorithm_b(sample3, cfg)
        y = res.eigenvector
        assert np.abs(sample3.to_dense() @ y - res.root * y).max() <= 10 * cfg.tolerance

    @pytest.mark.parametrize(
        "rows",
        [[[1e-300, 0.0], [1.0, 1e300]], [[1e-300, 1e-300], [1.0, 1e300]]],
        ids=["zero-entry", "positive-entry"],
    )
    def test_csr_and_dense_bounds_agree_on_extreme_scales(self, rows):
        # the scale r_1 / r_0 of the sharpened row bound overflows; zero entries
        # must stay zero and the others finite
        arr = np.array(rows)
        nz = np.nonzero(arr)
        dense = bounds_report(from_dense(arr))
        sparse = bounds_report(from_coordinates(2, *nz, arr[nz]))
        assert dense == sparse
        assert np.all(np.isfinite(dataclasses.astuple(dense)))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": 0.0},
            {"tolerance": -1e-8},
            {"max_iterations": 0},
            {"tolerance": float("inf")},
            {"side": "row"},
            {"max_iterations": float("nan")},
            {"max_iterations": 2.5},
            {"max_iterations": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SolverConfig(**kwargs)
