"""Nonnegative square matrices: validated storage, sums, scalings, generators.

Matrices are immutable once constructed and safe to share between threads.
Dense storage is row-major; sparse storage is CSR kept as row-sorted
triplets: the row index, column index and value of each stored entry, in
row-major order, with no explicitly stored zeros.  Every sum and
matrix-vector product goes through one kernel, which adds in
index-ascending order, so dense and CSR storage of the same matrix give
bit-identical results; ``_square``, the one matrix product, runs BLAS on
a dense array in blocks that each run on one thread.  The kernel writes
into an ``out`` array when given one; a solve allowed more than one step
asks, when it builds its operator, for a CSR kernel that runs a padded slot
layout built once, with the same bits, and calls it at every step.  No
other module reads the storage: they use that kernel, ``_entries`` and, for
dense storage, the read-only ``_dense_view``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import as_strided

# einsum's C entry point, without np.einsum's Python wrapper and dispatch
from numpy._core._multiarray_umath import c_einsum

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
    "tridiagonal",
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

    CSR storage is three read-only arrays, ``_rows``, ``_indices`` and
    ``_data``: the row, column and value of each stored entry.
    Construct through :func:`from_dense`, :func:`from_coordinates`, the
    generators below, or the readers in :mod:`perronkit.io`.
    """

    __slots__ = ("n", "_dense", "_rows", "_indices", "_data")

    def __init__(self, n, dense=None, rows=None, indices=None, data=None):
        self.n = int(n)
        self._dense = dense
        self._rows = rows
        self._indices = indices
        self._data = data
        for arr in (dense, rows, indices, data):
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
        out[self._rows, self._indices] = self._data
        return out

    def diagonal(self) -> np.ndarray:
        if self._dense is not None:
            return np.ascontiguousarray(np.diagonal(self._dense))
        d = np.zeros(self.n)
        on_diag = self._rows == self._indices
        d[self._indices[on_diag]] = self._data[on_diag]
        return d

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


def _csr(n, rows, cols, values) -> NonnegMatrix:
    """CSR matrix from entries in row-major order; zero entries are dropped.
    With no zero among them the matrix keeps the three arrays themselves."""
    if values.all():
        return NonnegMatrix(n, rows=rows, indices=cols, data=values)
    keep = values != 0
    return NonnegMatrix(n, rows=rows[keep], indices=cols[keep], data=values[keep])


def _entries(A: NonnegMatrix):
    """(rows, cols, values) of A's nonzero entries in row-major order; CSR's own arrays."""
    if A.storage == "dense":
        rows, cols = np.nonzero(A._dense)
        return rows, cols, A._dense[rows, cols]
    return A._rows, A._indices, A._data


def _dense_view(A: NonnegMatrix) -> np.ndarray:
    """A's dense storage as an (n, n) view, uncopied and read-only; dense A only."""
    return A._dense.view()


def _like(A: NonnegMatrix, rows, cols, values) -> NonnegMatrix:
    """Matrix in A's storage from entries in row-major order; zeros are not stored."""
    if A.storage == "dense":
        dense = np.zeros((A.n, A.n))
        dense[rows, cols] = values
        return NonnegMatrix(A.n, dense=dense)
    return _csr(A.n, rows, cols, values)


def _order(n, least: int = 1, power: int = 1) -> int:
    """n as an int, if it is an integer order >= least; numpy integers count, bools do not."""
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < least:
        raise NotSquareError(f"order must be an integer >= {least}, got {n!r}")
    if 8 * int(n) ** power > np.iinfo(np.intp).max:  # numpy cannot address n**power doubles
        raise MemoryError(f"a {n}x{n} matrix does not fit in memory")
    return int(n)


def _adopt_dense(arr) -> NonnegMatrix:
    """Validated dense matrix stored in arr itself, with -0.0 made +0.0.

    arr is a row-major float64 array that the caller owns and gives up:
    it is checked and normalized in place and becomes the storage, with no
    copy.  :func:`from_dense` and the dense readers validate through it.
    """
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise NotSquareError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    largest = _checked_entries(arr.reshape(-1), lambda k: divmod(k, n))
    arr += 0.0  # in place: normalizes -0.0 so stored zeros compare equal
    return _finite_sums(NonnegMatrix(n, dense=arr), largest)


def _checked_entries(values, at):
    """max(values, 0.0), or NonFiniteEntryError at the first non-finite value,
    else NegativeEntryError at the first negative one, with at(k) the (i, j)
    of values[k].  Valid values cost one max and one min, and no mask."""
    largest = values.max(initial=0.0)
    if not (values.min(initial=0.0) >= 0 and largest < np.inf):  # nan fails both
        bad = np.flatnonzero(~np.isfinite(values))
        error = NonFiniteEntryError if bad.size else NegativeEntryError
        k = int(bad[0] if bad.size else np.flatnonzero(values < 0)[0])
        i, j = at(k)
        raise error(int(i), int(j), float(values[k]))
    return largest


def _finite_sums(A: NonnegMatrix, largest) -> NonnegMatrix:
    """A itself, once no row or column sum overflows to inf.

    ``largest`` is A's largest entry.  A rounded sum of n terms, each at
    most ``largest``, stays below 2 n ``largest`` while n 2⁻⁵³ < 1/2, so
    when that bound is finite no sum is taken.  The product is taken in
    Python floats, which overflow to inf without a warning.
    """
    if math.isfinite(2.0 * A.n * float(largest)):
        return A
    for side, name in ((Side.ROW, "row"), (Side.COLUMN, "column")):
        with np.errstate(over="ignore"):
            over = np.flatnonzero(np.isinf(sums(A, side)))
        if over.size:
            raise DomainError(f"{name} {int(over[0]) + 1} sum overflows; scale the matrix down")
    return A


def from_dense(rows) -> NonnegMatrix:
    """Validated dense matrix from a list of row lists (or any 2-D array-like).

    The matrix keeps one row-major float copy of rows.  Rejects a matrix
    whose row or column sums overflow, since every sum, bound and solver
    step would turn inf.
    """
    try:
        arr = np.array(rows, dtype=np.float64, order="C")  # axis-0 reductions rely on row-major
    except (ValueError, TypeError) as exc:
        raise NotSquareError(f"input is not a rectangular numeric table: {exc}") from exc
    return _adopt_dense(arr)


def from_coordinates(n, rows, cols, values) -> NonnegMatrix:
    """Validated CSR matrix from coordinate triplets (0-based, any order).

    Coordinates are checked before values: an index outside the matrix
    raises NotSquareError, whatever the value at it.  Duplicate
    coordinates (an explicit zero among them) and row or column sums that
    overflow are rejected; explicit zeros are then dropped.  The matrix
    keeps its own copy of the entries.
    """
    return _coordinates(n, rows, cols, values, owned=False)


def _coordinates(n, rows, cols, values, owned) -> NonnegMatrix:
    """:func:`from_coordinates`; with ``owned`` the caller gives up the three
    arrays, which must then be contiguous int64, int64 and float64: they
    are sorted in place, and the matrix may keep them.

    The coordinate range is checked first, then the values, then
    duplicates.  Entries already in row-major order are neither sorted nor
    gathered.
    """
    n = _order(n)
    copy = None if owned else True
    rows = np.array(rows, dtype=np.int64, copy=copy)
    cols = np.array(cols, dtype=np.int64, copy=copy)
    values = np.array(values, dtype=np.float64, copy=copy)
    if not (len(rows) == len(cols) == len(values)):
        raise NotSquareError("coordinate arrays have unequal lengths")
    if len(rows) and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
        raise NotSquareError(f"coordinate outside a {n}x{n} matrix")
    largest = _checked_entries(values, lambda k: (rows[k], cols[k]))
    order = None if _row_major(rows, cols) else np.lexsort((cols, rows))
    if order is not None:
        for field in (rows, cols, values):
            field.take(order, out=field)  # mode "raise" buffers the overlap
    # duplicates first, so an explicit zero cannot hide a second copy
    dup = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
    if dup.size:
        order = np.arange(len(rows)) if order is None else order
        k = dup[np.argmin(order[dup + 1])]  # lexsort is stable: the first repeat in input order
        raise DuplicateEntryError(int(rows[k]), int(cols[k]), int(order[k]), int(order[k + 1]))
    del order, dup  # before the sums, which need 16 bytes an entry more
    return _finite_sums(_csr(n, rows, cols, values), largest)


def _row_major(rows, cols) -> bool:
    """Whether the entries are in non-decreasing row-major order, compared
    rows first and then columns: a key rows·n + cols overflows for large n."""
    if not (rows[1:] >= rows[:-1]).all():
        return False
    return bool(((rows[1:] > rows[:-1]) | (cols[1:] >= cols[:-1])).all())


def sums(A: NonnegMatrix, side: Side) -> np.ndarray:
    """Row or column totals, O(nnz): the side's kernel applied to ones."""
    return _kernel(A, side)(np.ones(A.n))


# a loop's CSR kernel pads each output's terms to K slots, K the most of any
# output, when the K n slots are at most this many times the nnz terms: the
# slots ran 25-50 % faster than bincount up to 1.5 nnz, and lost from about 2
_SLOT_FILL = 1.5


# the dense kernel's einsum and iteration order on each side
_DENSE_PRODUCT = {Side.COLUMN: ("ij,i->j", "K"), Side.ROW: ("ij,j->i", "F")}
# OpenBLAS runs a product of at most this many multiply-adds on one thread,
# whatever its thread count (interface/gemm.c: m n k at most
# SMP_THRESHOLD_MIN * GEMM_MULTITHREAD_THRESHOLD = 65536 * 4)
_ONE_THREAD = 2**18
# _square's blocks: columns this wide, or one more where one would be left,
# and rows and inner terms at most _SQUARE_ROWS, so that each block's
# product stays within _ONE_THREAD
_SQUARE_COLUMNS = 16
_SQUARE_ROWS = math.isqrt(_ONE_THREAD // (_SQUARE_COLUMNS + 1))


def _kernel(A: NonnegMatrix, side: Side = Side.COLUMN, loop: bool = False):
    """``v -> vᵀA`` (column side) or ``v -> A v`` (row side), A's arrays bound once.

    The kernel is ``apply(v, out=None)``: it writes into ``out`` when one
    is given, a float (n,) array that does not overlap v, and returns it,
    else a fresh array.  Both storages add each output's terms in
    ascending index order, so dense and CSR results are bit-identical, and
    the row side of A is the column side of Aᵀ bit for bit.  CSR runs
    np.bincount, which adds in input order; the row side swaps its bins
    and gather index.  Dense runs one einsum on A, ``"ij,i->j"`` on the
    column side and ``"ij,j->i"`` on the row side, the latter iterated in
    Fortran order: both then run the output index innermost, so every
    output adds its terms in ascending order of the summed index, one row
    or one column of A after another, and neither fuses a multiply-add.
    Axis-1 reductions, the row einsum in its default order and BLAS ``@``
    round differently.  Neither side copies Aᵀ or holds scratch, so a
    dense kernel keeps no state between calls.  Every einsum
    here is a call of its C entry point, which np.einsum without
    ``optimize`` makes too, minus its Python wrapper and dispatch.

    ``loop=True`` asks for a kernel that a loop calls many times: the
    solver's operator of a run allowed more than one step asks for it, and
    calls it at every step past the input's sums.  On CSR it builds a
    padded slot (ELLPACK) layout once, when its slots number at most 1.5
    nnz: two (K, n) arrays, K the most terms of any output, whose column j
    holds output j's gather indices and values in row-major order, padded
    at the end with index 0 and value 0.  A call gathers v into a (K, n)
    scratch array the kernel owns, and one einsum ``"kj,kj->j"`` multiplies it by
    the values and adds each output's K products slot after slot into
    ``out``.  Each output adds its terms in bincount's order and then
    exact +0.0s, so the bits are bincount's, and a call given ``out``
    allocates nothing; the scratch array makes the kernel one loop's at a
    time.  A padding term 0 v_0 is nan when v_0 is inf, where bincount
    gives inf; the solver's loop discards every row computed from one that
    holds an inf, and the all-ones vector holds none.  The one-shot
    callers (:func:`sums`, the discs, the power method, a one-step solve)
    keep bincount: they may see an inf, or would pay the layout's sort for
    one call.  With more slots the padding costs about what bincount does,
    and the loop kernel is the one-shot one.
    """
    if A.storage == "csr":
        n, data, bins, gather = A.n, A._data, A._indices, A._rows
        if side is Side.ROW:
            bins, gather = gather, bins
        slots = _slot_product(n, bins, gather, data) if loop else None

        def product(v, out=None):
            w = np.bincount(bins, weights=data * v[gather], minlength=n)
            if out is None:
                return w
            out[...] = w
            return out

        return product if slots is None else slots
    D, n = A._dense, A.n
    subscripts, order = _DENSE_PRODUCT[side]

    def dense_product(v, out=None):
        return c_einsum(subscripts, D, v, order=order, out=np.empty(n) if out is None else out)

    return dense_product


def _dense_sums(M, side: Side) -> np.ndarray:
    """The side's sums of an (n, n) array, added as the dense kernel adds them."""
    subscripts, order = _DENSE_PRODUCT[side]
    return c_einsum(subscripts, M, np.ones(len(M)), order=order)


def _square(M, out) -> np.ndarray:
    """M M into ``out``, a float (n, n) array that does not overlap M.

    Blocks of rows times blocks of _SQUARE_COLUMNS columns, each a sum over
    blocks of inner terms, added in ascending order.  Each block's product
    is one BLAS call with, for n > 1, at least two rows and two columns, so
    that numpy calls gemm and not gemv, and its m n k is at most
    _ONE_THREAD, so OpenBLAS runs it on one thread.  Given M, the bits are
    therefore the same whatever storage M came from, from run to run and at
    any OpenBLAS thread count; another BLAS build or CPU kernel may add an
    entry's terms in another order.  Every entry lies within
    γ_n = n u / (1 - n u) relative of the exact product.  Above order
    _SQUARE_ROWS it holds one scratch array of _SQUARE_ROWS rows.
    """
    n = len(M)
    rest = n % _SQUARE_COLUMNS + (_SQUARE_COLUMNS if n % _SQUARE_COLUMNS == 1 < n else 0)
    columns = [
        (start, stop, width)
        for start, stop, width in ((0, n - rest, _SQUARE_COLUMNS), (n - rest, n, rest))
        if start < stop
    ]
    terms = [_column_blocks(M, *block) for block in columns]
    starts = [*range(0, n, _SQUARE_ROWS), n]
    if starts[-1] - starts[-2] == 1 < n:  # a last block of one row or term takes one more
        starts[-2] -= 1
    scratch = np.empty((_SQUARE_ROWS, n)) if n > _SQUARE_ROWS else None
    for i, j in zip(starts, starts[1:]):
        for p, q in zip(starts, starts[1:]):
            part = out[i:j] if p == 0 else scratch[: j - i]
            for block, blocks in zip(columns, terms):
                np.matmul(M[i:j, p:q], blocks[:, p:q], out=_column_blocks(part, *block))
            if p:
                out[i:j] += part
    return out


def _column_blocks(X, start, stop, width):
    """Columns start to stop of the 2-D array X as a (blocks, rows, width)
    view, each block ``width`` columns wide."""
    row, column = X.strides
    return as_strided(X[:, start:], ((stop - start) // width, len(X), width), (width * column, row, column))


def _slot_product(n, bins, gather, data):
    """The padded slot kernel of :func:`_kernel` on entries in row-major
    order, or None when its slots would number more than _SLOT_FILL times
    the entries.
    """
    counts = np.bincount(bins, minlength=n)
    k = int(counts.max())
    if k * n > _SLOT_FILL * len(data):
        return None
    order = np.argsort(bins, kind="stable")  # row-major in each bin; the row side's bins are sorted
    bins = bins[order]
    slot = np.arange(len(bins)) - (np.cumsum(counts) - counts)[bins]
    idx, val, terms = np.zeros((k, n), np.intp), np.zeros((k, n)), np.empty((k, n))
    idx[slot, bins] = gather[order]
    val[slot, bins] = data[order]

    def product(v, out=None):
        v.take(idx, None, terms, "clip")  # the method, and "clip", neither buffers nor copies
        return c_einsum("kj,kj->j", terms, val, out=np.empty(n) if out is None else out)

    return product


def _checked_scale(v, n) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise DomainError(f"scaling vector has shape {v.shape}, expected ({n},)")
    bad = np.flatnonzero(~(np.isfinite(v) & (v > 0)))
    if bad.size:
        i = int(bad[0])
        raise NonPositiveScaleError(i, float(v[i]))
    return v


@np.errstate(over="ignore")  # an overflow is reported by entry below
def rank_one_hadamard(A: NonnegMatrix, x, y) -> NonnegMatrix:
    """Entrywise product of A with the rank-one matrix x yᵀ: b_ij = a_ij x_i y_j.

    x and y must be strictly positive, so no zero of A becomes nonzero; a
    nonzero a_ij becomes zero only where a_ij x_i y_j underflows, and is
    then not stored.  Where x_i y_i = 1 the diagonal is preserved exactly.
    No partial product overflows unless b_ij itself does; a b_ij that does
    raises DomainError naming the first such (i, j) in row-major order, and
    a row or column sum of B that overflows raises as in :func:`from_dense`.
    """
    x, y = _checked_scale(x, A.n), _checked_scale(y, A.n)
    # with x_i = m_i 2^e_i and y_j = m_j 2^e_j, b_ij = (a_ij m_i m_j) 2^(e_i + e_j):
    # the mantissa product rounds as a_ij (x_i y_j) does and the exponents go
    # in last, so neither x_i y_j nor a_ij x_i can overflow on the way
    (mx, ex), (my, ey) = np.frexp(x), np.frexp(y)
    unit = np.abs(x * y - 1.0) <= _UNIT_SNAP
    rows, cols, values = _entries(A)
    data = np.ldexp(values * (mx[rows] * my[cols]), ex[rows] + ey[cols])
    keep = (rows == cols) & unit[rows]
    data[keep] = values[keep]
    largest = data.max(initial=0.0)
    if largest == np.inf:
        k = np.flatnonzero(np.isinf(data))[0]
        raise DomainError(f"entry ({rows[k] + 1}, {cols[k] + 1}) overflows; scale the matrix down")
    return _finite_sums(_like(A, rows, cols, data), largest)


def tridiagonal(n: int, c: float, a: float, b: float) -> NonnegMatrix:
    """CSR matrix of order n with constant subdiagonal c, diagonal a, superdiagonal b.

    A zero band stores no entries; a negative or non-finite band value is
    rejected at its first entry, (1, 0), (0, 0) or (0, 1).
    """
    n = _order(n, 2)
    i = np.arange(n)
    rows = np.concatenate((i[1:], i, i[:-1]))
    cols = np.concatenate((i[:-1], i, i[1:]))
    vals = np.repeat([c, a, b], [n - 1, n, n - 1])
    return _coordinates(n, rows, cols, vals, owned=True)


def random_primitive(n, density=0.5, rng=None) -> NonnegMatrix:
    """Random dense primitive matrix: random sparsity plus a positive diagonal.

    Entries are drawn uniformly from [0.2, 2.0).  A spanning cycle is always
    present, so the pattern is strongly connected; with the positive
    diagonal the matrix is primitive by construction.  ``rng`` is a seed
    or generator for np.random.default_rng; ``density`` lies in [0, 1].
    The stream gives n² draws for the mask (an entry is kept where its draw
    is below ``density``), then n² entry values, then the diagonal and the
    cycle.  Both n² draws go into the matrix's one array, a row at a time,
    through :func:`_random_columns`, which also draws any block of columns
    alone with the same bits.
    """
    n, rng = _random_args(n, density, rng)
    arr = np.empty((n, n))
    _random_columns(n, density, rng, 0, arr)
    return NonnegMatrix(n, dense=arr)


def _random_args(n, density, rng):
    """random_primitive's order as an int and its Generator; raise on a bad argument."""
    n = _order(n, power=2)
    if not 0 <= density <= 1:  # nan fails too
        raise DomainError(f"density must be in [0, 1], got {density!r}")
    try:
        return n, np.random.default_rng(rng)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"seed must be a non-negative integer, got {rng!r}") from exc


def _random_columns(n, density, rng, j0, out) -> None:
    """Fill out, an (n, w) array, with columns j0 .. j0 + w - 1 of
    random_primitive(n, density, rng).

    rng must stand at the start of the matrix's stream; it is left where
    random_primitive leaves it, 2n² + 2n draws on.  Each row takes w mask
    draws and, n² draws later, w values; the bit generator's ``advance``
    skips the other n - w draws of each row, so a block of all n columns
    skips nothing and draws from any bit generator.
    """
    w = out.shape[1]
    bits, skip = rng.bit_generator, j0
    for row in out:  # the mask
        if skip:
            bits.advance(skip)
        rng.random(out=row)
        skip = n - w
    np.less(out, density, out=out)  # 1.0 where an entry is kept, else 0.0
    for row in out:  # the values, next in the stream
        if skip:
            bits.advance(skip)
        row *= rng.uniform(0.2, 2.0, w)
    if n - j0 - w:  # to the end of the values
        bits.advance(n - j0 - w)
    diagonal, cycle = rng.uniform(0.2, 2.0, n), rng.uniform(0.2, 2.0, n)
    cols, at = np.arange(j0, j0 + w), np.arange(w)
    out[cols, at] = diagonal[cols]
    out[(cols - 1) % n, at] = cycle[(cols - 1) % n]  # after the diagonal: at n = 1 the cycle is the diagonal
