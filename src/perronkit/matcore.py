"""Nonnegative square matrices: validated storage, sums, scalings, discs, generators.

Matrices are immutable once constructed and safe to share between threads.
Dense storage is row-major; sparse storage is CSR with strictly increasing
column indices per row and no explicitly stored zeros.  All reductions add
entries in index-ascending order so that dense and CSR storage of the same
matrix produce bit-identical sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DomainError,
    DuplicateEntryError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonPositiveScaleError,
    NotSquareError,
)

__all__ = [
    "Side",
    "NonnegMatrix",
    "GerschgorinDisc",
    "from_dense",
    "from_coordinates",
    "sums",
    "rank_one_hadamard",
    "diag_similarity",
    "gerschgorin",
    "tridiagonal",
    "tridiagonal_eigs",
    "random_primitive",
]

# Diagonal scale factors this close to 1 are rounding residue of a reciprocal
# pair (1/d)*d and are taken as 1 so similarity scalings keep the diagonal
# bit-exact.
_UNIT_SNAP = 2.0**-50


class Side(str, Enum):
    ROW = "row"
    COLUMN = "col"


class NonnegMatrix:
    """Immutable square matrix with finite entries >= 0.

    Construct through :func:`from_dense`, :func:`from_coordinates`, the
    generators below, or the readers in :mod:`perronkit.io`.
    """

    __slots__ = ("n", "_dense", "_indptr", "_indices", "_data", "_rowidx")

    def __init__(self, n, dense=None, indptr=None, indices=None, data=None):
        self.n = int(n)
        self._dense = dense
        self._indptr = indptr
        self._indices = indices
        self._data = data
        self._rowidx = None
        for arr in (dense, indptr, indices, data):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def storage(self) -> str:
        return "dense" if self._dense is not None else "csr"

    @property
    def nnz(self) -> int:
        if self._dense is not None:
            return int(np.count_nonzero(self._dense))
        return len(self._data)

    def to_dense(self) -> np.ndarray:
        """Entries as a fresh (n, n) float array."""
        if self._dense is not None:
            return self._dense.copy()
        out = np.zeros((self.n, self.n))
        out[self._row_indices(), self._indices] = self._data
        return out

    def diagonal(self) -> np.ndarray:
        if self._dense is not None:
            return np.ascontiguousarray(np.diagonal(self._dense))
        d = np.zeros(self.n)
        on_diag = self._row_indices() == self._indices
        d[self._indices[on_diag]] = self._data[on_diag]
        return d

    def transpose(self) -> "NonnegMatrix":
        if self._dense is not None:
            return NonnegMatrix(self.n, dense=np.ascontiguousarray(self._dense.T))
        rows = self._row_indices()
        order = np.lexsort((rows, self._indices))
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._indices, minlength=self.n), out=indptr[1:])
        return NonnegMatrix(
            self.n,
            indptr=indptr,
            indices=rows[order].copy(),
            data=self._data[order].copy(),
        )

    def _row_indices(self) -> np.ndarray:
        """CSR row index of every stored entry, cached."""
        if self._rowidx is None:
            counts = np.diff(self._indptr)
            rowidx = np.repeat(np.arange(self.n, dtype=np.int64), counts)
            rowidx.setflags(write=False)
            self._rowidx = rowidx
        return self._rowidx

    def __repr__(self):
        return f"NonnegMatrix(n={self.n}, storage={self.storage!r}, nnz={self.nnz})"


@dataclass(frozen=True)
class GerschgorinDisc:
    """Disc with center on the diagonal entry and radius the off-diagonal row sum."""

    center: float
    radius: float

    @property
    def reach(self) -> float:
        """Rightmost point of the disc on the real axis."""
        return self.center + self.radius


def _validated_array(rows) -> np.ndarray:
    try:
        arr = np.asarray(rows, dtype=np.float64, order="C")  # axis-0 reductions rely on row-major
    except (ValueError, TypeError) as exc:
        raise NotSquareError(f"input is not a rectangular numeric table: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise NotSquareError(f"expected a square matrix, got shape {arr.shape}")
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        i, j = map(int, bad[0])
        raise NonFiniteEntryError(i, j, float(arr[i, j]))
    neg = np.argwhere(arr < 0)
    if neg.size:
        i, j = map(int, neg[0])
        raise NegativeEntryError(i, j, float(arr[i, j]))
    return arr + 0.0  # normalizes -0.0 so stored zeros compare equal


def _finite_sums(A: NonnegMatrix) -> NonnegMatrix:
    """A itself, once no row or column sum overflows to inf."""
    for side, name in ((Side.ROW, "row"), (Side.COLUMN, "column")):
        with np.errstate(over="ignore"):
            over = np.flatnonzero(np.isinf(sums(A, side)))
        if over.size:
            raise DomainError(f"{name} {int(over[0])} sum overflows; scale the matrix down")
    return A


def from_dense(rows) -> NonnegMatrix:
    """Validated dense matrix from a list of row lists (or any 2-D array-like).

    Rejects a matrix whose row or column sums overflow, since every sum,
    bound and solver step would turn inf.
    """
    arr = _validated_array(rows)
    return _finite_sums(NonnegMatrix(arr.shape[0], dense=arr))


def from_coordinates(n, rows, cols, values) -> NonnegMatrix:
    """Validated CSR matrix from coordinate triplets (0-based, any order).

    Duplicate coordinates (an explicit zero among them) and row or column
    sums that overflow are rejected; explicit zeros are then dropped.
    """
    if n < 1:
        raise NotSquareError(f"order must be >= 1, got {n}")
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if not (len(rows) == len(cols) == len(values)):
        raise NotSquareError("coordinate arrays have unequal lengths")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        k = int(bad[0])
        raise NonFiniteEntryError(int(rows[k]), int(cols[k]), float(values[k]))
    neg = np.flatnonzero(values < 0)
    if neg.size:
        k = int(neg[0])
        raise NegativeEntryError(int(rows[k]), int(cols[k]), float(values[k]))
    if len(rows) and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
        raise NotSquareError(f"coordinate outside a {n}x{n} matrix")
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    # duplicates first, so an explicit zero cannot hide a second copy
    dup = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
    if dup.size:
        k = dup[np.argmin(order[dup + 1])]  # lexsort is stable: the first repeat in input order
        raise DuplicateEntryError(int(rows[k]), int(cols[k]), int(order[k]), int(order[k + 1]))
    keep = values != 0
    rows, cols, values = rows[keep], cols[keep], values[keep] + 0.0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return _finite_sums(NonnegMatrix(n, indptr=indptr, indices=cols, data=values))


def sums(A: NonnegMatrix, side: Side) -> np.ndarray:
    """Row or column totals, O(nnz), entries added in index-ascending order."""
    if A.storage == "dense":
        D = A._dense if side is Side.COLUMN else np.ascontiguousarray(A._dense.T)
        return np.add.reduce(D, axis=0)
    # np.bincount accumulates in input order: index-ascending sequential adds.
    bins = A._row_indices() if side is Side.ROW else A._indices
    return np.bincount(bins, weights=A._data, minlength=A.n)


def _matvec(A: NonnegMatrix, v: np.ndarray) -> np.ndarray:
    if A.storage == "dense":
        return A._dense @ v
    return np.bincount(A._row_indices(), weights=A._data * v[A._indices], minlength=A.n)


def _vecmat(A: NonnegMatrix, v: np.ndarray) -> np.ndarray:
    """vᵀA, each column's terms added in ascending row order for both storages.

    Only this einsum on the C-contiguous array, called without ``optimize``,
    adds in the same order as the CSR bincount: it accumulates row after row
    into the output and fuses no multiply-add.  Reductions over axis 1 or a
    transposed view and BLAS ``@`` all round differently, which would break
    dense/CSR bit identity.
    """
    if A.storage == "dense":
        return np.einsum("ij,i->j", A._dense, v)
    return np.bincount(A._indices, weights=A._data * v[A._row_indices()], minlength=A.n)


def _checked_scale(v, n) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise DomainError(f"scaling vector has shape {v.shape}, expected ({n},)")
    bad = np.flatnonzero(~(np.isfinite(v) & (v > 0)))
    if bad.size:
        i = int(bad[0])
        raise NonPositiveScaleError(i, float(v[i]))
    return v


def rank_one_hadamard(A: NonnegMatrix, x, y) -> NonnegMatrix:
    """Entrywise product of A with the rank-one matrix x yᵀ: b_ij = a_ij x_i y_j.

    x and y must be strictly positive, so no zero of A becomes nonzero; a
    nonzero a_ij becomes zero only where a_ij x_i y_j underflows.
    Where x_i y_i = 1 the diagonal is preserved exactly.  No partial product
    overflows unless b_ij itself does.
    """
    n = A.n
    x = _checked_scale(x, n)
    y = _checked_scale(y, n)
    # with x_i = m_i 2^e_i and y_j = m_j 2^e_j, b_ij = (a_ij m_i m_j) 2^(e_i + e_j):
    # the mantissa product rounds as a_ij (x_i y_j) does and the exponents go
    # in last, so neither x_i y_j nor a_ij x_i can overflow on the way
    mx, ex = np.frexp(x)
    my, ey = np.frexp(y)
    with np.errstate(over="ignore"):
        unit = np.abs(x * y - 1.0) <= _UNIT_SNAP
    if A.storage == "dense":
        B = np.multiply.outer(mx, my)
        B *= A._dense
        np.ldexp(B, np.add.outer(ex, ey), out=B)
        idx = np.flatnonzero(unit)
        B[idx, idx] = A._dense[idx, idx]
        return NonnegMatrix(n, dense=B)
    rows, cols = A._row_indices(), A._indices
    data = np.ldexp(A._data * (mx[rows] * my[cols]), ex[rows] + ey[cols])
    keep = (rows == cols) & unit[rows]
    data[keep] = A._data[keep]
    return NonnegMatrix(n, indptr=A._indptr.copy(), indices=cols.copy(), data=data)


def diag_similarity(A: NonnegMatrix, d) -> NonnegMatrix:
    """Similarity transform with the positive diagonal d: b_ij = a_ij d_j / d_i.

    Preserves the spectrum, the diagonal, and the zero pattern of A.
    """
    d = _checked_scale(d, A.n)
    return rank_one_hadamard(A, np.reciprocal(d), d)


def gerschgorin(A: NonnegMatrix) -> list[GerschgorinDisc]:
    """One disc per row: center a_ii, radius the row sum minus a_ii."""
    r = sums(A, Side.ROW)
    diag = A.diagonal()
    return [GerschgorinDisc(float(c), float(s - c)) for c, s in zip(diag, r)]


def tridiagonal(n: int, c: float, a: float, b: float) -> NonnegMatrix:
    """CSR matrix of order n with constant subdiagonal c, diagonal a, superdiagonal b."""
    if n < 2:
        raise NotSquareError(f"tridiagonal matrix needs order >= 2, got {n}")
    for (i, j), v in (((1, 0), c), ((0, 0), a), ((0, 1), b)):
        if not np.isfinite(v):
            raise NonFiniteEntryError(i, j, float(v))
        if v < 0:
            raise NegativeEntryError(i, j, float(v))
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    if c != 0:
        rows += range(1, n)
        cols += range(n - 1)
        vals += [c] * (n - 1)
    if a != 0:
        rows += range(n)
        cols += range(n)
        vals += [a] * n
    if b != 0:
        rows += range(n - 1)
        cols += range(1, n)
        vals += [b] * (n - 1)
    return from_coordinates(n, rows, cols, vals)


def tridiagonal_eigs(n: int, c: float, a: float, b: float) -> np.ndarray:
    """Eigenvalues a + 2*sqrt(b*c)*cos(k*pi/(n+1)), k = 1..n, in descending order."""
    if b * c < 0:
        raise DomainError(f"b*c must be >= 0, got {b * c}")
    k = np.arange(1, n + 1)
    return a + 2.0 * np.sqrt(b * c) * np.cos(k * np.pi / (n + 1))


def random_primitive(n, density=0.5, rng=None, low=0.2, high=2.0) -> NonnegMatrix:
    """Random dense primitive matrix: random sparsity plus a positive diagonal.

    A spanning cycle is always present, so the pattern is strongly connected;
    with the positive diagonal the matrix is primitive by construction.
    """
    if n < 1:
        raise NotSquareError(f"order must be >= 1, got {n}")
    rng = np.random.default_rng(rng)
    mask = rng.random((n, n)) < density
    arr = np.where(mask, rng.uniform(low, high, (n, n)), 0.0)
    idx = np.arange(n)
    arr[idx, idx] = rng.uniform(low, high, n)
    arr[idx, (idx + 1) % n] = rng.uniform(low, high, n)
    return NonnegMatrix(n, dense=arr)
