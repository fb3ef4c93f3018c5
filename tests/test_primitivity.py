import numpy as np
import pytest

from conftest import PERIODIC3_ROWS
from oracles import irreducible_by_closure, period_by_powers, primitive_by_stepwise_powers
from perronkit import (
    SolverConfig,
    Side,
    Status,
    algorithm_a,
    from_dense,
    is_irreducible,
    is_primitive,
    period,
    random_primitive,
    rank_one_hadamard,
    tridiagonal,
    wielandt_bound,
)


class TestIrreducible:
    def test_periodic3_is_irreducible(self, periodic3):
        assert is_irreducible(periodic3)

    def test_zero_row_is_reducible(self):
        assert not is_irreducible(from_dense([[1.0, 1.0], [0.0, 0.0]]))

    def test_identity_is_reducible(self):
        assert not is_irreducible(from_dense(np.eye(3)))

    def test_single_state(self):
        assert is_irreducible(from_dense([[0.0]]))


class TestPrimitive:
    def test_periodic3_is_imprimitive(self, periodic3):
        assert not is_primitive(periodic3)

    def test_sample3_is_primitive(self, sample3):
        assert is_primitive(sample3)

    @pytest.mark.parametrize("n", [50, 3000])
    def test_tridiagonal_is_primitive(self, n):
        assert is_primitive(tridiagonal(n, 1.0, 3.0, 2.0))

    def test_zero_row_is_imprimitive(self):
        assert not is_primitive(from_dense([[1.0, 1.0], [0.0, 0.0]]))

    def test_cyclic_permutation_is_imprimitive(self):
        cycle = from_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0.0]])
        assert is_irreducible(cycle)
        assert not is_primitive(cycle)

    def test_matches_stepwise_powers_up_to_order_5(self):
        rng = np.random.default_rng(55)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            arr = (rng.random((n, n)) < rng.uniform(0.15, 0.8)).astype(float)
            A = from_dense(arr)
            assert is_primitive(A) == primitive_by_stepwise_powers(arr, wielandt_bound(n))

    def test_primitive_implies_irreducible(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            A = from_dense((rng.random((n, n)) < 0.4).astype(float))
            if is_primitive(A):
                assert is_irreducible(A)

    def test_pattern_invariant_under_similarity(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = from_dense(np.where(rng.random((n, n)) < 0.5, rng.uniform(0.1, 2, (n, n)), 0.0))
            d = rng.uniform(0.1, 10.0, n)
            B = rank_one_hadamard(A, np.reciprocal(d), d)
            assert is_primitive(A) == is_primitive(B)
            assert is_irreducible(A) == is_irreducible(B)


class TestPeriod:
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_cycle_of_length_k(self, k):
        assert period(from_dense(np.roll(np.eye(k), 1, axis=1))) == k

    @pytest.mark.parametrize("rows, expected", [(PERIODIC3_ROWS, 2), ([[0.0]], 0), ([[1.0, 1.0], [0.0, 1.0]], None)],
                             ids=["periodic3", "zero1x1-no-cycle", "reducible"])
    def test_known_periods(self, rows, expected):
        assert period(from_dense(rows)) == expected

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_block_cyclic(self, p):
        # edges only from block b to block b + 1 (mod p), dense enough to be irreducible
        rng = np.random.default_rng(p)
        blocks = np.repeat(np.arange(p), 3)
        arr = np.where((blocks[None, :] - blocks[:, None]) % p == 1, rng.uniform(0.5, 2.0, (3 * p, 3 * p)), 0.0)
        assert period(from_dense(arr)) == period_by_powers(arr) == p

    def test_primitive_with_a_perron_vector_wider_than_float64(self):
        # the matrix on which perron stops STAGNATED (ROADMAP item 17)
        n = 20
        A = from_dense(np.diag(np.arange(1.0, n + 1)) + 1e-20 * (np.eye(n, k=1) + np.eye(n, k=-1)))
        assert period(A) == 1


class TestWielandtBound:
    @pytest.mark.parametrize("n,expected", [(1, 1), (2, 2), (3, 5), (10, 82)])
    def test_values(self, n, expected):
        assert wielandt_bound(n) == expected

    def test_positivity_appears_within_the_bound(self):
        # the extremal pattern: a cycle plus one chord needs nearly the full bound
        n = 4
        arr = np.zeros((n, n))
        for i in range(n - 1):
            arr[i, i + 1] = 1.0
        arr[n - 1, 0] = 1.0
        arr[n - 1, 1] = 1.0
        A = from_dense(arr)
        assert is_primitive(A)
        assert primitive_by_stepwise_powers(arr, wielandt_bound(n))
        assert not primitive_by_stepwise_powers(arr, wielandt_bound(n) - 2)


class TestBoolPattern:
    """Boolean power patterns, seen through the oracles and the graph search."""

    def test_full_detection(self):
        # the first power of a positive pattern is full; one zero entry is not,
        # though that pattern fills at its square
        assert primitive_by_stepwise_powers([[1.0, 1.0], [1.0, 1.0]], 1)
        assert not primitive_by_stepwise_powers([[1.0, 1.0], [1.0, 0.0]], 1)
        assert primitive_by_stepwise_powers([[1.0, 1.0], [1.0, 0.0]], 2)
        assert is_primitive(from_dense([[1.0, 1.0], [1.0, 0.0]]))

    def test_product_is_reachability_composition(self):
        # cyclic shift 0 -> 1 -> 2 -> 0; its square is the shift by two
        shift = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        square = (shift @ shift > 0).astype(float)
        np.testing.assert_array_equal(square, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        for p in (shift, square):
            assert irreducible_by_closure(p) and is_irreducible(from_dense(p))
            assert not primitive_by_stepwise_powers(p, wielandt_bound(3))
            assert not is_primitive(from_dense(p))


class TestCrossCheck:
    """The solver's STAGNATED means "not primitive" by the exact test it runs."""

    def test_periodic3_agreement(self, periodic3):
        run = algorithm_a(periodic3, SolverConfig(side=Side.ROW))
        assert run.status is Status.STAGNATED
        assert not is_primitive(periodic3) and is_irreducible(periodic3)

    def test_sample3_agreement(self, sample3):
        run = algorithm_a(sample3)
        assert run.status is Status.CONVERGED and is_primitive(sample3)

    def test_trivial_single_state(self):
        A = from_dense([[5.0]])
        assert algorithm_a(A).status is Status.CONVERGED and is_primitive(A)

    def test_disagreement_when_oscillation_hides_behind_equal_sums(self, periodic3):
        # automatic side selection lands on the equal column sums and
        # converges instantly even though the matrix is imprimitive
        run = algorithm_a(periodic3)
        assert run.status is Status.CONVERGED and not is_primitive(periodic3)

    def test_generated_primitive_matrices_agree(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            A = random_primitive(int(rng.integers(2, 7)), rng=rng)
            assert (algorithm_a(A).status is Status.STAGNATED) == (not is_primitive(A))
