import numpy as np
import pytest

import perronkit.markov
import perronkit.solver
from oracles import damped_dense, stationary_linear_solve
from perronkit import (
    NonnegMatrix,
    NotStochasticError,
    RootNotOneError,
    Side,
    SolverConfig,
    Status,
    StochasticMatrix,
    ZeroSumError,
    algorithm_b,
    damp,
    from_coordinates,
    from_dense,
    is_irreducible,
    is_primitive,
    make_stochastic,
    stationary,
    tridiagonal,
)
from perronkit.errors import DomainError

TWO_STATE = [[0.9, 0.1], [0.5, 0.5]]  # stationary vector (5/6, 1/6) by hand


@pytest.fixture
def chain():
    """Primitive sparse chain of order 300: i -> i + 1 and three random moves a row."""
    rng = np.random.default_rng(8)
    n, k = 300, 4
    moves = [np.append(1, 2 + rng.choice(n - 2, k - 1, replace=False)) for _ in range(n)]
    cols = (np.arange(n)[:, None] + np.array(moves)).ravel() % n
    return make_stochastic(from_coordinates(n, np.repeat(np.arange(n), k), cols, rng.uniform(0.1, 1.0, n * k)))


@pytest.fixture
def damped_chain(chain):
    return damp(chain, 0.85)


class TestMakeStochastic:
    def test_divides_rows(self):
        P = make_stochastic(from_dense([[1.0, 1.0], [2.0, 0.0]]))
        assert np.array_equal(P.matrix.to_dense(), [[0.5, 0.5], [1.0, 0.0]])

    def test_already_stochastic_unchanged(self):
        P = make_stochastic(from_dense(TWO_STATE))
        assert np.array_equal(P.matrix.to_dense(), np.array(TWO_STATE))

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroSumError):
            make_stochastic(from_dense([[0.0, 0.0], [1.0, 1.0]]))

    def test_csr_input_stays_sparse(self):
        P = make_stochastic(tridiagonal(6, 1.0, 2.0, 1.0))
        assert P.matrix.storage == "csr"
        assert np.allclose(P.matrix.to_dense().sum(axis=1), 1.0, atol=1e-15)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_entry_that_underflows_is_not_stored(self, storage):
        # 5e-324 / 2 rounds to zero: the edge 0 -> 1 is gone in both storages
        if storage == "dense":
            A = from_dense([[2.0, 5e-324], [1.0, 1.0]])
        else:
            A = from_coordinates(2, [0, 0, 1, 1], [0, 1, 0, 1], [2.0, 5e-324, 1.0, 1.0])
        P = make_stochastic(A)
        assert P.matrix.storage == storage
        assert P.matrix.nnz == 3 and not is_irreducible(P.matrix)

    def test_strict_constructor_rejects_near_stochastic(self):
        with pytest.raises(NotStochasticError):
            StochasticMatrix(from_dense([[0.9, 0.2], [0.5, 0.5]]))


class TestDamp:
    def test_half_damped_identity(self):
        P = StochasticMatrix(from_dense(np.eye(2)))
        assert np.array_equal(damped_dense(damp(P, 0.5)), [[0.75, 0.25], [0.25, 0.75]])

    def test_entries_bounded_below(self):
        P = make_stochastic(from_dense([[1.0, 3.0, 0.0], [0.0, 1.0, 0.0], [2.0, 0.0, 2.0]]))
        alpha = 0.85
        damped = damped_dense(damp(P, alpha))
        assert damped.min() >= (1 - alpha) / 3
        assert np.allclose(damped.sum(axis=1), 1.0, atol=1e-12)

    def test_damping_makes_a_cycle_primitive(self):
        cycle = StochasticMatrix(from_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0.0]]))
        assert not is_primitive(cycle.matrix)
        assert is_primitive(from_dense(damped_dense(damp(cycle, 0.85))))

    def test_shares_the_chain_and_multiplies_factors(self, chain):
        damped = damp(damp(chain, 0.5), 0.85)
        assert damped.matrix is chain.matrix
        assert damped.alpha == 0.5 * 0.85

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, float("nan")])
    def test_alpha_domain(self, alpha):
        P = StochasticMatrix(from_dense(np.eye(2)))
        with pytest.raises(DomainError):
            damp(P, alpha)

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5, float("nan")])
    def test_constructor_alpha_domain(self, alpha):
        with pytest.raises(DomainError):
            StochasticMatrix(from_dense(np.eye(2)), alpha)


class TestOperator:
    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_an_undamped_chain_runs_its_matrixs_own_operator(self, chain, storage):
        # no damping wrapper, whose work would be the matrix's plus n
        matrix = chain.matrix if storage == "csr" else from_dense(chain.matrix.to_dense())
        op = perronkit.markov._operator(StochasticMatrix(matrix), loop=True)
        assert op.work == (matrix.nnz if storage == "csr" else matrix.n**2)
        assert op.apply.__module__ == "perronkit.matcore"
        damped = perronkit.markov._operator(damp(StochasticMatrix(matrix), 0.85), loop=True)
        assert damped.work == op.work + matrix.n
        assert damped.apply.__module__ == "perronkit.markov"


class TestStationary:
    def test_two_state_chain(self):
        dist = stationary(StochasticMatrix(from_dense(TWO_STATE)))
        assert dist.status is Status.CONVERGED
        assert np.allclose(dist.u, [5.0 / 6.0, 1.0 / 6.0], atol=1e-8, rtol=0)
        assert dist.residual <= 1e-7
        assert dist.u.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_linear_solve_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            P = make_stochastic(from_dense(rng.uniform(0.05, 1.0, (n, n))))
            dist = stationary(P, SolverConfig(tolerance=1e-11))
            assert np.allclose(dist.u, stationary_linear_solve(P.matrix.to_dense()), atol=1e-8)
            assert np.all(dist.u > 0)

    def test_doubly_stochastic_gives_uniform(self):
        P = StochasticMatrix(from_dense([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]))
        dist = stationary(P)
        assert np.allclose(dist.u, 1.0 / 3.0, atol=1e-10, rtol=0)

    def test_damped_cycle_gives_uniform(self):
        cycle = StochasticMatrix(from_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0.0]]))
        dist = stationary(damp(cycle, 0.85))
        assert np.allclose(dist.u, 1.0 / 3.0, atol=1e-10, rtol=0)

    def test_root_is_one_for_stochastic_input(self):
        rng = np.random.default_rng(321)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            P = make_stochastic(from_dense(rng.uniform(0.01, 1.0, (n, n))))
            dist = stationary(P)
            assert dist.status is Status.CONVERGED
            assert dist.residual <= 1e-7

    def test_ranking_stable_under_damping_perturbation(self):
        # fixture with well-separated stationary mass
        base = make_stochastic(
            from_dense([[8.0, 1.0, 1.0], [6.0, 2.0, 2.0], [5.0, 1.0, 4.0]])
        )
        orders = []
        for alpha in (0.84, 0.85, 0.86):
            u = stationary(damp(base, alpha)).u
            assert min(abs(np.diff(np.sort(u)))) > 1e-3
            orders.append(tuple(np.argsort(-u)))
        assert orders[0] == orders[1] == orders[2]

    def test_same_vector_as_column_side_algorithm_b(self, chain):
        # undamped, both run the same kernel: bit for bit
        dist = stationary(chain)
        res = algorithm_b(chain.matrix, SolverConfig(side=Side.COLUMN))
        assert dist.u.tobytes() == res.eigenvector.tobytes()
        assert (dist.iterations, dist.status) == (res.iterations, res.status)
        # damped, the implicit operator adds in another order than the n×n matrix
        damped = damp(chain, 0.85)
        dist = stationary(damped)
        res = algorithm_b(from_dense(damped_dense(damped)), SolverConfig(side=Side.COLUMN))
        assert np.abs(dist.u - res.eigenvector).max() <= 1e-15 * res.eigenvector.max()
        assert (dist.iterations, dist.status) == (res.iterations, res.status)

    def test_builds_no_balanced_matrix(self, damped_chain, monkeypatch):
        def refuse(*args):
            raise AssertionError("stationary built a balanced matrix")

        monkeypatch.setattr(perronkit.solver, "rank_one_hadamard", refuse)
        assert stationary(damped_chain).status is Status.CONVERGED

    def test_damping_builds_no_dense_matrix(self, chain, monkeypatch):
        def refuse(self):
            raise AssertionError("damping densified the chain")

        monkeypatch.setattr(NonnegMatrix, "to_dense", refuse)
        assert stationary(damp(chain, 0.85)).status is Status.CONVERGED

    @pytest.mark.parametrize(
        "alpha, status, iterations, asked",
        [(1.0, Status.STAGNATED, 579, 1), (0.85, Status.CONVERGED, 108, 0)],
        ids=["undamped", "damped"],
    )
    def test_exact_test_runs_only_on_an_undamped_chain(self, monkeypatch, alpha, status, iterations, asked):
        # the path of odd order 51 has period 2, and the all-ones start has a
        # period-2 component: undamped, the spread stalls and the exact test
        # on P's matrix says no; damped, the chain is positive and never asked
        P = make_stochastic(tridiagonal(51, 1, 0, 2))
        calls = []

        def counted(A):
            calls.append(A)
            return is_primitive(A)

        monkeypatch.setattr(perronkit.solver, "is_primitive", counted)
        dist = stationary(StochasticMatrix(P.matrix, alpha))
        assert (dist.status, dist.iterations, len(calls)) == (status, iterations, asked)
        assert all(A is P.matrix for A in calls)

    @pytest.mark.parametrize("alpha", [1.0, 0.85], ids=["undamped", "damped"])
    def test_rows_within_validation_slack_are_not_mis_scaled(self, alpha):
        # row 0 sums to 1 + 5e-13, inside the 1e-12 the constructor allows,
        # so the root may miss 1 by more than 100x a tolerance of 1e-15
        P = StochasticMatrix(from_dense([[0.5, 0.5 + 5e-13], [0.3, 0.7]]), alpha)
        dist = stationary(P, SolverConfig(tolerance=1e-15))
        assert dist.status is Status.CONVERGED
        assert np.allclose(dist.u, stationary_linear_solve(damped_dense(P)), rtol=0, atol=1e-12)

    def test_mis_scaled_input_raises_root_not_one(self):
        # bypass validation to simulate a corrupted "stochastic" matrix
        fake = object.__new__(StochasticMatrix)
        object.__setattr__(fake, "matrix", from_dense([[1.8, 0.2], [1.0, 1.0]]))
        with pytest.raises(RootNotOneError):
            stationary(fake)
