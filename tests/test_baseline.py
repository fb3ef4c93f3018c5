import numpy as np
import pytest

import perronkit.baseline
from conftest import PERIODIC3_ROWS
from oracles import traced_peak, tridiagonal_eigs
from perronkit import (
    BreakdownError,
    DomainError,
    Status,
    algorithm_a,
    algorithm_b,
    from_dense,
    power_method,
    random_primitive,
    tridiagonal,
)
from perronkit.primitivity import is_primitive


class TestPowerMethod:
    def test_sample3(self, sample3):
        res = power_method(sample3)
        assert res.status is Status.CONVERGED
        assert res.eigenvalue == pytest.approx(5.739952, abs=1e-6)
        assert 14 <= res.iterations <= 24

    def test_identity_converges_immediately(self):
        res = power_method(from_dense(np.eye(3)))
        assert res.eigenvalue == 1.0 and res.iterations == 1

    def test_order_50_tridiagonal(self):
        res = power_method(tridiagonal(50, 1.0, 3.0, 2.0))
        assert res.eigenvalue == pytest.approx(tridiagonal_eigs(50, 1, 3, 2)[0], abs=1e-6)
        assert 3000 <= res.iterations <= 8000

    def test_eigenvector_residual(self, sample3):
        res = power_method(sample3, tol=1e-10)
        arr = sample3.to_dense()
        v = res.eigenvector
        assert np.abs(arr @ v - res.eigenvalue * v).max() <= 1e-8 * np.abs(v).max()
        assert np.abs(v).max() == 1.0

    def test_zero_matrix_breaks_down(self):
        with pytest.raises(BreakdownError):
            power_method(from_dense([[0.0]]))

    def test_nilpotent_pattern_breaks_down(self):
        # strictly upper triangular: iterates reach the zero vector
        with pytest.raises(BreakdownError):
            power_method(from_dense([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "build, max_iter, status, iterations, calls",
        [
            (lambda: from_dense(PERIODIC3_ROWS), 100_000, Status.STAGNATED, 22, 1),
            (lambda: tridiagonal(50, 1.0, 0.0, 2.0), 100_000, Status.STAGNATED, 608, 1),
            # primitive and slow: the spread stalls, the exact test says yes once
            (lambda: tridiagonal(400, 1.0, 3.0, 2.0), 3000, Status.MAX_ITERATIONS, 3000, 1),
            (lambda: tridiagonal(200, 1.0, 3.0, 2.0), 3000, Status.MAX_ITERATIONS, 3000, 0),
        ],
        ids=["periodic3", "period2-tridiag50", "tridiag400", "tridiag200"],
    )
    def test_stall_rule_steps_and_exact_test_calls(self, monkeypatch, build, max_iter, status, iterations, calls):
        asked = []

        def counted(A):
            asked.append(A)
            return is_primitive(A)

        monkeypatch.setattr(perronkit.baseline, "is_primitive", counted)
        res = power_method(build(), max_iter=max_iter)
        assert (res.status, res.iterations, len(asked)) == (status, iterations, calls)

    def test_max_iteration_cap(self, sample3):
        res = power_method(sample3, tol=1e-14, max_iter=3)
        assert res.status is Status.MAX_ITERATIONS and res.iterations == 3

    def test_a_long_run_keeps_only_the_stall_window_of_spreads(self):
        # a list of every spread peaked at 670 kB, the window at 19 kB
        A = tridiagonal(200, 1, 3, 2)
        res, peak = traced_peak(lambda: power_method(A, max_iter=20_000))
        assert res.status is Status.MAX_ITERATIONS
        assert peak <= 100e3

    def test_agrees_with_balancing_solver(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            A = random_primitive(int(rng.integers(2, 9)), rng=rng)
            assert abs(power_method(A).eigenvalue - algorithm_b(A).root) <= 1e-7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": float("inf")},
            {"tol": float("nan")},
            {"tol": 0.0},
            {"tol": -1.0},
            {"tol": True},
            {"max_iter": 0},
            {"max_iter": 2.5},
        ],
        ids=["tol-inf", "tol-nan", "tol-0", "tol-neg", "tol-bool", "max_iter-0", "max_iter-2.5"],
    )
    def test_rejects_bad_arguments(self, sample3, kwargs):
        with pytest.raises(DomainError):
            power_method(sample3, **kwargs)

    def test_iterations_grow_with_the_eigenvalue_ratio(self):
        # lambda2/lambda1 of tridiag(n, 1, 3, 2) rises towards 1 with n
        for method in (algorithm_a, algorithm_b, power_method):
            iterations = []
            for n in (5, 10, 20):
                res = method(tridiagonal(n, 1.0, 3.0, 2.0))
                root = res.eigenvalue if method is power_method else res.root
                assert res.status is Status.CONVERGED
                assert abs(root - tridiagonal_eigs(n, 1, 3, 2)[0]) <= 1e-6
                iterations.append(res.iterations)
            assert iterations[0] < iterations[1] < iterations[2], method.__name__
