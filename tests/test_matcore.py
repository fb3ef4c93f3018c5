import math

import numpy as np
import pytest

from conftest import SAMPLE3_ROWS
from oracles import all_eigenvalues, charpoly_coefficients, det_cofactor
from perronkit import (
    NegativeEntryError,
    NonFiniteEntryError,
    NonPositiveScaleError,
    NotSquareError,
    Side,
    diag_similarity,
    from_coordinates,
    from_dense,
    gerschgorin,
    random_primitive,
    rank_one_hadamard,
    sums,
    tridiagonal,
    tridiagonal_eigs,
)
from perronkit.errors import DomainError


class TestConstruction:
    def test_sample3(self):
        A = from_dense(SAMPLE3_ROWS)
        assert A.n == 3 and A.storage == "dense"
        assert np.array_equal(A.to_dense(), np.array(SAMPLE3_ROWS))

    def test_smallest_square(self):
        A = from_dense([[1.0]])
        assert A.n == 1 and A.nnz == 1

    def test_negative_entry_reports_position(self):
        with pytest.raises(NegativeEntryError) as err:
            from_dense([[1, -2], [3, 4]])
        assert (err.value.i, err.value.j) == (0, 1)

    def test_rejects_non_square(self):
        with pytest.raises(NotSquareError):
            from_dense([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(NotSquareError):
            from_dense([[1, 2], [3]])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteEntryError):
            from_dense([[1, float("nan")], [0, 1]])
        with pytest.raises(NonFiniteEntryError):
            from_dense([[1, float("inf")], [0, 1]])

    @pytest.mark.parametrize(
        "rows, message",
        [([[1e308, 1e308], [1.0, 1.0]], "row 0"), ([[1.0, 1.0], [1e308, 1e308]], "row 1"),
         ([[1e308, 1.0], [1e308, 1.0]], "column 0")],
        ids=["row0", "row1", "col0"],
    )
    def test_rejects_overflowing_sums(self, rows, message):
        arr = np.array(rows)
        nz = np.nonzero(arr)
        for build in (lambda: from_dense(arr), lambda: from_coordinates(2, *nz, arr[nz])):
            with pytest.raises(DomainError, match=message):
                build()

    def test_coordinates_build_sorted_csr(self):
        A = from_coordinates(3, [2, 0, 0, 1], [1, 2, 0, 1], [5.0, 2.0, 1.0, 4.0])
        assert A.storage == "csr" and A.nnz == 4
        expected = np.array([[1, 0, 2], [0, 4, 0], [0, 5, 0]], dtype=float)
        assert np.array_equal(A.to_dense(), expected)

    def test_coordinates_drop_zeros_and_reject_duplicates(self):
        A = from_coordinates(2, [0, 1], [1, 0], [0.0, 3.0])
        assert A.nnz == 1
        with pytest.raises(DomainError):
            from_coordinates(2, [0, 0], [1, 1], [1.0, 2.0])

    def test_matrices_are_immutable(self):
        A = from_dense(SAMPLE3_ROWS)
        with pytest.raises(ValueError):
            A._dense[0, 0] = 9.0


class TestSums:
    def test_periodic3_column_sums_all_equal(self, periodic3):
        assert np.array_equal(sums(periodic3, Side.COLUMN).values, [3.0, 3.0, 3.0])

    def test_sample3_row_sums(self, sample3):
        assert np.array_equal(sums(sample3, Side.ROW).values, [3.0, 5.5, 7.0])

    def test_identity(self):
        eye = from_dense(np.eye(3))
        assert np.array_equal(sums(eye, Side.ROW).values, np.ones(3))

    def test_csr_and_dense_sums_bit_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            arr = np.where(rng.random((n, n)) < 0.6, rng.random((n, n)), 0.0)
            i, j = np.nonzero(arr)
            csr = from_coordinates(n, i, j, arr[i, j])
            for dense in (from_dense(arr), from_dense(np.asfortranarray(arr))):
                for side in Side:
                    assert np.array_equal(sums(dense, side).values, sums(csr, side).values)


class TestRankOneHadamard:
    def test_identity_scaling_is_noop(self, sample3):
        ones = np.ones(3)
        B = rank_one_hadamard(sample3, ones, ones)
        assert np.array_equal(B.to_dense(), sample3.to_dense())

    def test_one_step_equalizes_2x2(self, root4_2x2):
        r1, r2 = 3.0 + math.sqrt(3.0), 1.0 + math.sqrt(3.0)
        B = rank_one_hadamard(root4_2x2, np.array([1.0, r1 / r2]), np.array([1.0, r2 / r1]))
        assert np.allclose(B.to_dense(), [[3.0, 1.0], [3.0, 1.0]], atol=1e-12, rtol=0)

    def test_reciprocal_pair_preserves_trace_and_determinant(self):
        rng = np.random.default_rng(11)
        arr = rng.uniform(0.1, 2.0, (4, 4))
        A = from_dense(arr)
        y = rng.uniform(0.25, 4.0, 4)
        B = rank_one_hadamard(A, 1.0 / y, y)
        assert np.array_equal(np.diagonal(B.to_dense()), np.diagonal(arr))
        assert abs(det_cofactor(B.to_dense()) - det_cofactor(arr)) <= 1e-10

    def test_rejects_non_positive_scale(self, sample3):
        with pytest.raises(NonPositiveScaleError) as err:
            rank_one_hadamard(sample3, [1.0, 0.0, 1.0], np.ones(3))
        assert err.value.i == 1

    def test_zero_pattern_preserved(self, sample3):
        B = rank_one_hadamard(sample3, [0.5, 2.0, 3.0], [7.0, 0.25, 1.0])
        assert np.array_equal(B.to_dense() == 0, sample3.to_dense() == 0)


class TestDiagSimilarity:
    def test_all_ones_is_identity(self, sample3):
        assert np.array_equal(diag_similarity(sample3, np.ones(3)).to_dense(), sample3.to_dense())

    def test_hand_computed_scaling(self, periodic3):
        B = diag_similarity(periodic3, np.array([1.0, 2.0, 1.0]))
        expected = [[0.0, 2.0, 0.0], [1.5, 0.0, 1.5], [0.0, 4.0, 0.0]]
        assert np.array_equal(B.to_dense(), np.array(expected))

    def test_matches_rank_one_hadamard_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            A = from_dense(rng.uniform(0.0, 3.0, (n, n)))
            d = rng.uniform(0.1, 10.0, n)
            lhs = rank_one_hadamard(A, np.reciprocal(d), d)
            rhs = diag_similarity(A, d)
            assert np.array_equal(lhs.to_dense(), rhs.to_dense())

    def test_preserves_spectrum_small_orders(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            arr = rng.uniform(0.0, 2.0, (n, n))
            A = from_dense(arr)
            d = rng.uniform(0.2, 5.0, n)
            B = diag_similarity(A, d)
            assert np.allclose(
                charpoly_coefficients(B.to_dense()),
                charpoly_coefficients(arr),
                atol=1e-10,
                rtol=0,
            )

    def test_preserves_diagonal_pattern_trace_exactly(self):
        rng = np.random.default_rng(9)
        arr = np.where(rng.random((5, 5)) < 0.7, rng.uniform(0.1, 4.0, (5, 5)), 0.0)
        A = from_dense(arr)
        d = rng.uniform(0.01, 100.0, 5)
        B = diag_similarity(A, d)
        assert np.array_equal(np.diagonal(B.to_dense()), np.diagonal(arr))
        assert np.array_equal(B.to_dense() == 0, arr == 0)


class TestGerschgorin:
    def test_2x2_sample_discs(self, root4_2x2):
        discs = gerschgorin(root4_2x2)
        s3 = math.sqrt(3.0)
        assert [d.center for d in discs] == [3.0, 1.0]
        for d in discs:
            assert d.radius == pytest.approx(s3, rel=1e-15)

    def test_balanced_2x2_discs_share_reach(self):
        discs = gerschgorin(from_dense([[3.0, 1.0], [3.0, 1.0]]))
        assert [d.center for d in discs] == [3.0, 1.0]
        assert [d.radius for d in discs] == [1.0, 3.0]
        assert all(d.reach == 4.0 for d in discs)

    def test_diagonal_matrix_has_zero_radii(self):
        discs = gerschgorin(from_dense(np.diag([2.0, 5.0])))
        assert all(d.radius == 0.0 for d in discs)

    def test_reach_equals_row_sum(self, sample3):
        r = sums(sample3, Side.ROW).values
        for disc, s in zip(gerschgorin(sample3), r):
            assert disc.reach == pytest.approx(s, rel=1e-14)


class TestTridiagonal:
    def test_small_instance_unrolled(self):
        T = tridiagonal(3, 1.0, 3.0, 2.0)
        assert T.storage == "csr"
        assert np.array_equal(T.to_dense(), [[3, 2, 0], [1, 3, 2], [0, 1, 3]])

    def test_dominant_eigenvalue_of_order_50(self):
        eigs = tridiagonal_eigs(50, 1.0, 3.0, 2.0)
        assert eigs[0] == pytest.approx(3.0 + 2.0 * math.sqrt(2.0) * math.cos(math.pi / 51), abs=0)
        assert eigs[0] == pytest.approx(5.823063, abs=1e-6)
        assert eigs[1] == pytest.approx(5.806989, abs=1e-6)

    def test_zero_offdiagonals_collapse_to_diagonal(self):
        assert np.array_equal(tridiagonal_eigs(6, 0.0, 4.0, 0.0), np.full(6, 4.0))
        T = tridiagonal(4, 0.0, 4.0, 0.0)
        assert T.nnz == 4

    def test_closed_form_matches_dense_eigensolver(self):
        T = tridiagonal(8, 1.0, 3.0, 2.0)
        computed = np.sort(tridiagonal_eigs(8, 1.0, 3.0, 2.0))[::-1]
        reference = np.sort(all_eigenvalues(T.to_dense()).real)[::-1]
        assert np.allclose(computed, reference, atol=1e-9, rtol=0)

    def test_descending_order(self):
        eigs = tridiagonal_eigs(20, 2.0, 1.0, 0.5)
        assert np.all(np.diff(eigs) <= 0)

    def test_rejects_negative_band(self):
        with pytest.raises(NegativeEntryError):
            tridiagonal(5, -1.0, 3.0, 2.0)


class TestTranspose:
    def test_csr_transpose_roundtrip(self):
        T = tridiagonal(7, 1.0, 0.0, 2.0)
        assert np.array_equal(T.transpose().to_dense(), T.to_dense().T)
        assert np.array_equal(T.transpose().transpose().to_dense(), T.to_dense())

    def test_dense_transpose(self, sample3):
        assert np.array_equal(sample3.transpose().to_dense(), np.array(SAMPLE3_ROWS).T)


def test_random_primitive_has_positive_diagonal():
    for seed in range(5):
        A = random_primitive(6, density=0.4, rng=seed)
        assert np.all(np.diagonal(A.to_dense()) > 0)
