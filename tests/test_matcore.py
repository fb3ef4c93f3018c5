import math
import pathlib
import re

import numpy as np
import pytest

import perronkit.cli
import perronkit.matcore
from conftest import SAMPLE3_ROWS
from oracles import (
    all_eigenvalues,
    charpoly_coefficients,
    det_cofactor,
    random_primitive_two_arrays,
    traced_peak,
    tridiagonal_eigs,
)
from perronkit import (
    NegativeEntryError,
    NonFiniteEntryError,
    NonPositiveScaleError,
    NotSquareError,
    Side,
    from_coordinates,
    from_dense,
    random_primitive,
    rank_one_hadamard,
    sums,
    tridiagonal,
)
from perronkit.errors import DomainError, DuplicateEntryError
from perronkit.markov import make_stochastic
from perronkit.matcore import NonnegMatrix


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

    @pytest.mark.parametrize(
        "make, order",
        [(lambda n: from_coordinates(n, [0], [0], [1.0]), 2.5), (lambda n: from_coordinates(n, [0], [0], [1.0]), True),
         (lambda n: random_primitive(n, rng=0), 2.5), (lambda n: tridiagonal(n, 1, 3, 2), 3.5)],
        ids=["coordinates-float", "coordinates-bool", "random-float", "tridiagonal-float"],
    )
    def test_non_integer_order_is_not_square_and_named(self, make, order):
        with pytest.raises(NotSquareError, match=f"got {order!r}$"):
            make(order)
        assert make(np.int64(3)).n == 3  # numpy integers are orders

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteEntryError):
            from_dense([[1, float("nan")], [0, 1]])
        with pytest.raises(NonFiniteEntryError):
            from_dense([[1, float("inf")], [0, 1]])

    @pytest.mark.parametrize(
        "rows, message",
        [([[1e308, 1e308], [1.0, 1.0]], "row 1 sum"), ([[1.0, 1.0], [1e308, 1e308]], "row 2 sum"),
         ([[1e308, 1.0], [1e308, 1.0]], "column 1 sum")],
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

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 1, 0, 2]], ids=["row-major", "shuffled"])
    def test_coordinates_copy_the_callers_arrays(self, order):
        # entries in row-major order are not gathered, so they are copied
        rows, cols, values = (np.array(a)[order] for a in ([0, 0, 1, 2], [0, 2, 1, 1], [1.0, 2.0, 4.0, 5.0]))
        A = from_coordinates(3, rows, cols, values)
        rows[:], cols[:], values[:] = 2, 2, 9.0
        assert np.array_equal(A.to_dense(), [[1, 0, 2], [0, 4, 0], [0, 5, 0]])

    def test_row_major_coordinates_are_not_sorted(self, monkeypatch):
        monkeypatch.setattr(np, "lexsort", None)
        A = from_coordinates(3, [0, 0, 1, 2], [0, 2, 1, 1], [1.0, 2.0, 4.0, 5.0])
        assert np.array_equal(A.to_dense(), [[1, 0, 2], [0, 4, 0], [0, 5, 0]])

    @pytest.mark.parametrize(
        "rows, cols, values",
        [([0, 1], [0], [1.0]), ([0], [0, 1], [1.0]), ([0], [0], [1.0, 2.0])],
        ids=["rows", "cols", "values"],
    )
    def test_coordinates_of_unequal_lengths_are_refused(self, rows, cols, values):
        with pytest.raises(NotSquareError, match="^coordinate arrays have unequal lengths$"):
            from_coordinates(2, rows, cols, values)

    # coordinates are checked before values, so a bad value at an index
    # outside the matrix is not reported as an entry of it
    @pytest.mark.parametrize(
        "i, j, value",
        [(-1, 0, 1.0), (0, -1, 1.0), (2, 0, 1.0), (0, 2, 1.0), (0, 7, 1.0), (5, 0, -1.0), (0, 3, np.nan)],
    )
    def test_coordinate_outside_the_matrix_is_refused(self, i, j, value):
        with pytest.raises(NotSquareError, match="^coordinate outside a 2x2 matrix$"):
            from_coordinates(2, [1, i], [1, j], [1.0, value])

    def test_coordinates_drop_zeros_and_reject_duplicates(self):
        A = from_coordinates(2, [0, 1], [1, 0], [0.0, 3.0])
        assert A.nnz == 1
        with pytest.raises(DomainError):
            from_coordinates(2, [0, 0], [1, 1], [1.0, 2.0])

    def test_explicit_zero_does_not_hide_a_duplicate(self):
        with pytest.raises(DuplicateEntryError) as err:
            from_coordinates(2, [0, 0, 1, 1], [0, 0, 1, 0], [0.0, 1.0, 2.0, 1.0])
        assert (err.value.i, err.value.j, err.value.first, err.value.second) == (0, 0, 0, 1)

    def test_duplicate_reported_at_its_first_repeat_in_input_order(self):
        with pytest.raises(DuplicateEntryError) as err:
            from_coordinates(3, [2, 2, 0, 1, 0], [2, 2, 0, 1, 0], [1.0, 1.0, 1.0, 1.0, 1.0])
        assert (err.value.i, err.value.j, err.value.first, err.value.second) == (2, 2, 0, 1)
        with pytest.raises(DuplicateEntryError) as err:
            from_coordinates(3, [1, 0, 1, 0, 1], [1, 0, 1, 0, 1], [1.0, 1.0, 1.0, 1.0, 1.0])
        assert (err.value.i, err.value.j, err.value.first, err.value.second) == (1, 1, 0, 2)

    def test_matrices_are_immutable(self):
        A = from_dense(SAMPLE3_ROWS)
        with pytest.raises(ValueError):
            A._dense[0, 0] = 9.0

    def test_from_dense_leaves_the_callers_array_alone(self):
        # the one copy it makes is normalized in place, never the caller's array
        arr = np.array([[-0.0, 1.0], [2.0, -0.0]])
        before = arr.tobytes()
        A = from_dense(arr)
        assert arr.flags.writeable and arr.flags.c_contiguous
        assert arr.tobytes() == before
        assert A.to_dense().tobytes() == np.array([[0.0, 1.0], [2.0, 0.0]]).tobytes()

    def test_csr_arrays_are_read_only_and_nothing_is_cached(self):
        T = tridiagonal(4, 1.0, 3.0, 2.0)
        built = [T, rank_one_hadamard(T, [1, 2, 3, 4], [4, 3, 2, 1]), make_stochastic(T).matrix]
        for A in built:
            assert A.storage == "csr"
            for arr in (A._rows, A._indices, A._data):
                assert not arr.flags.writeable
        assert set(NonnegMatrix.__slots__) == {"n", "_dense", "_rows", "_indices", "_data"}

    def test_only_matcore_reads_the_storage_arrays(self):
        # every other module reads a matrix through _kernel, _entries or the public methods
        package = pathlib.Path(perronkit.matcore.__file__).parent
        reads = [
            f"{path.name}:{k}: {line.strip()}"
            for path in sorted(package.glob("*.py")) if path.name != "matcore.py"
            for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"\._(dense|rows|indices|data)\b", line)
        ]
        assert reads == []

    def test_only_io_cli_and_baseline_import_the_dense_view(self):
        # a solve reads dense and CSR storage alike, through _kernel and _entries
        package = pathlib.Path(perronkit.matcore.__file__).parent
        named = {path.stem for path in package.glob("*.py") if "_dense_view" in path.read_text(encoding="utf-8")}
        assert named == {"matcore", "io", "cli", "baseline"}

    @pytest.mark.parametrize(
        "build, n",
        [
            (lambda: from_coordinates(2**62, [0], [0], [1.0]), 2**62),
            (lambda: tridiagonal(10**20, 1.0, 1.0, 1.0), 10**20),
            (lambda: random_primitive(3_000_000_000), 3_000_000_000),  # n² values
        ],
        ids=["coordinates", "tridiagonal", "random"],
    )
    def test_order_numpy_cannot_address_is_refused(self, build, n):
        # refused before anything is allocated
        with pytest.raises(MemoryError, match=f"^a {n}x{n} matrix does not fit in memory$"):
            build()


class TestSums:
    def test_periodic3_column_sums_all_equal(self, periodic3):
        assert np.array_equal(sums(periodic3, Side.COLUMN), [3.0, 3.0, 3.0])

    def test_sample3_row_sums(self, sample3):
        assert np.array_equal(sums(sample3, Side.ROW), [3.0, 5.5, 7.0])

    def test_identity(self):
        eye = from_dense(np.eye(3))
        assert np.array_equal(sums(eye, Side.ROW), np.ones(3))

    def test_csr_and_dense_sums_bit_identical(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            arr = np.where(rng.random((n, n)) < 0.6, rng.random((n, n)), 0.0)
            i, j = np.nonzero(arr)
            csr = from_coordinates(n, i, j, arr[i, j])
            for dense in (from_dense(arr), from_dense(np.asfortranarray(arr))):
                for side in Side:
                    assert np.array_equal(sums(dense, side), sums(csr, side))

    def test_dense_row_sums_copy_no_transpose(self):
        # the row sums are one einsum over A itself; a full copy of Aᵀ is 8n² bytes
        n = 400
        A = random_primitive(n, rng=3)
        _, peak = traced_peak(lambda: sums(A, Side.ROW))
        assert peak < 8 * n * n / 4


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

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)])
    def test_rejects_a_scale_of_the_wrong_shape(self, sample3, shape):
        for x, y in ((np.ones(shape), np.ones(3)), (np.ones(3), np.ones(shape))):
            with pytest.raises(DomainError, match=re.escape(f"scaling vector has shape {shape}, expected (3,)")):
                rank_one_hadamard(sample3, x, y)

    def test_zero_pattern_preserved(self, sample3):
        B = rank_one_hadamard(sample3, [0.5, 2.0, 3.0], [7.0, 0.25, 1.0])
        assert np.array_equal(B.to_dense() == 0, sample3.to_dense() == 0)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_entry_that_underflows_is_not_stored(self, storage):
        arr = np.array([[2.0, 5e-324], [1.0, 1.0]])
        nz = np.nonzero(arr)
        A = from_dense(arr) if storage == "dense" else from_coordinates(2, *nz, arr[nz])
        B = rank_one_hadamard(A, [0.5, 1.0], [1.0, 1.0])  # 5e-324 * 0.5 rounds to zero
        assert (B.storage, B.nnz) == (storage, 3)
        assert np.array_equal(B.to_dense(), [[1.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_entry_that_overflows_raises(self, storage):
        # a_01 and a_10 both overflow; a_01, named 1-based as (1, 2), comes first in row-major order
        arr = np.array([[1.0, 1e300], [1e300, 1.0]])
        nz = np.nonzero(arr)
        A = from_dense(arr) if storage == "dense" else from_coordinates(2, *nz, arr[nz])
        with pytest.raises(DomainError, match=r"entry \(1, 2\) overflows"):
            rank_one_hadamard(A, [1e10, 1e10], [1e10, 1e10])
        with pytest.raises(DomainError, match=r"entry \(1, 1\) overflows"):
            rank_one_hadamard(from_dense([[1e300, 1.0], [1.0, 1.0]]), [1e10, 1.0], [1e10, 1.0])

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_sum_that_overflows_raises(self, storage):
        # every entry of B is finite, but row 0 sums to 9.5e307 + 9.5e307
        arr = np.array([[5e307, 5e307], [1.0, 1.0]])
        nz = np.nonzero(arr)
        A = from_dense(arr) if storage == "dense" else from_coordinates(2, *nz, arr[nz])
        with pytest.raises(DomainError, match="row 1 sum overflows"):
            rank_one_hadamard(A, [1.9, 1.0], [1.0, 1.0])


class TestDiagSimilarity:
    """The reciprocal pair (1/d, d): b_ij = a_ij d_j / d_i, a similarity."""

    def test_all_ones_is_identity(self, sample3):
        ones = np.ones(3)
        assert np.array_equal(rank_one_hadamard(sample3, ones, ones).to_dense(), sample3.to_dense())

    def test_hand_computed_scaling(self, periodic3):
        d = np.array([1.0, 2.0, 1.0])
        B = rank_one_hadamard(periodic3, np.reciprocal(d), d)
        expected = [[0.0, 2.0, 0.0], [1.5, 0.0, 1.5], [0.0, 4.0, 0.0]]
        assert np.array_equal(B.to_dense(), np.array(expected))

    def test_preserves_spectrum_small_orders(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 4):
            arr = rng.uniform(0.0, 2.0, (n, n))
            A = from_dense(arr)
            d = rng.uniform(0.2, 5.0, n)
            B = rank_one_hadamard(A, np.reciprocal(d), d)
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
        B = rank_one_hadamard(A, np.reciprocal(d), d)
        assert np.array_equal(np.diagonal(B.to_dense()), np.diagonal(arr))
        assert np.array_equal(B.to_dense() == 0, arr == 0)


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
        T = tridiagonal(4, -0.0, 4.0, 0.0)
        assert T.nnz == 4 and np.array_equal(T._indices, np.arange(4))

    def test_closed_form_matches_dense_eigensolver(self):
        T = tridiagonal(8, 1.0, 3.0, 2.0)
        computed = np.sort(tridiagonal_eigs(8, 1.0, 3.0, 2.0))[::-1]
        reference = np.sort(all_eigenvalues(T.to_dense()).real)[::-1]
        assert np.allclose(computed, reference, atol=1e-9, rtol=0)

    def test_descending_order(self):
        eigs = tridiagonal_eigs(20, 2.0, 1.0, 0.5)
        assert np.all(np.diff(eigs) <= 0)

    @pytest.mark.parametrize("order", [2.5, 0, -3, True])
    def test_rejects_what_is_not_an_order(self, order):
        with pytest.raises(NotSquareError, match=f"got {order!r}$"):
            tridiagonal(order, 1.0, 3.0, 2.0)

    @pytest.mark.parametrize(
        "bands, error, at",
        [
            ((-1.0, 3.0, 2.0), NegativeEntryError, (1, 0)),
            ((1.0, -3.0, 2.0), NegativeEntryError, (0, 0)),
            ((1.0, 3.0, -2.0), NegativeEntryError, (0, 1)),
            ((math.nan, 3.0, 2.0), NonFiniteEntryError, (1, 0)),
            ((1.0, math.inf, 2.0), NonFiniteEntryError, (0, 0)),
            ((1.0, 3.0, math.nan), NonFiniteEntryError, (0, 1)),
            # a non-finite value is reported before a negative one, as from_dense does
            ((-1.0, math.nan, 2.0), NonFiniteEntryError, (0, 0)),
        ],
    )
    def test_rejects_bad_band_at_its_first_entry(self, bands, error, at):
        with pytest.raises(error) as err:
            tridiagonal(5, *bands)
        assert (err.value.i, err.value.j) == at


def test_random_primitive_has_positive_diagonal():
    for seed in range(5):
        A = random_primitive(6, density=0.4, rng=seed)
        assert np.all(np.diagonal(A.to_dense()) > 0)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_random_primitive_draws_what_two_arrays_draw(n, density):
    # the same draws from the same stream, which ends in the same place
    for seed in (0, 1, 2):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        A = random_primitive(n, density, rng=mine)
        assert A.to_dense().tobytes() == random_primitive_two_arrays(n, density, theirs).tobytes()
        assert mine.random() == theirs.random()


W = perronkit.cli._COLUMNS  # the width of the column blocks gen random writes


@pytest.mark.parametrize("n", [1, 2, W - 1, W, W + 1, 2 * W + 1])
@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_random_columns_draw_each_block_of_the_two_arrays(n, density):
    # each column block gen random writes, drawn alone from the stream's start,
    # with the same bits; the stream ends where the two arrays leave it
    for seed in (0, 1, 2):
        theirs = np.random.default_rng(seed)
        expected = random_primitive_two_arrays(n, density, theirs)
        after = theirs.random()
        for j0 in range(0, n, W):
            mine, block = np.random.default_rng(seed), np.empty((n, min(W, n - j0)))
            perronkit.matcore._random_columns(n, density, mine, j0, block)
            assert block.tobytes() == np.ascontiguousarray(expected[:, j0 : j0 + W]).tobytes()
            assert mine.random() == after


def test_random_primitive_holds_one_n_by_n_array():
    # a separate mask and value array hold 1.25 x 8n² bytes
    n = 400
    _, peak = traced_peak(lambda: random_primitive(n, rng=3))
    assert peak < 1.15 * 8 * n * n


@pytest.mark.parametrize("kwargs", [{"rng": -1}, {"rng": 1.5}, {"density": -1.0}, {"density": 2.0}, {"density": math.nan}])
def test_random_primitive_rejects_bad_seed_and_density(kwargs):
    with pytest.raises(DomainError):
        random_primitive(3, **kwargs)
