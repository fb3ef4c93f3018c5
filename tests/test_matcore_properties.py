"""Randomised agreement of the two storages: the dense kernel, either side,
with the plain axis-0 reduction and with CSR, the loop's padded slot kernel
with bincount and dense, the dense row sums with the row kernel, the
sum overflow check with the sums themselves, and the jobs that run on the
entry view."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import transposed, vecmat_unblocked
from perronkit import PerronError, Side, from_coordinates, from_dense, rank_one_hadamard, sums
from perronkit.errors import DomainError, DuplicateEntryError
from perronkit.markov import make_stochastic
from perronkit.matcore import _SLOT_FILL, NonnegMatrix, _csr, _entries, _kernel, _like
from perronkit.primitivity import period


@pytest.mark.parametrize("side", list(Side), ids=lambda side: side.value)
@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 194),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# large orders on either side of n ≈ 1500, where the row einsum's time per entry jumps
@example(n=1000, density=0.5, seed=0)
@example(n=2000, density=0.5, seed=1)
def test_dense_vecmat_is_the_unblocked_reduction_bit_for_bit(side, n, density, seed):
    """Entries and vector components span e^±30, so every add rounds.  The
    row side is v -> A v, the column side of Aᵀ."""
    rng = np.random.default_rng(seed)
    D = np.where(rng.random((n, n)) < density, np.exp(rng.uniform(-30.0, 30.0, (n, n))), 0.0)
    v = np.exp(rng.uniform(-30.0, 30.0, n))
    i, j = np.nonzero(D)
    dense, csr = from_dense(D), from_coordinates(n, i, j, D[i, j])
    got = _kernel(dense, side)(v)
    assert got.tobytes() == vecmat_unblocked(D if side is Side.COLUMN else np.ascontiguousarray(D.T), v).tobytes()
    assert got.tobytes() == _kernel(csr, side)(v).tobytes()
    if side is Side.ROW:
        for A in (dense, csr):
            assert _kernel(A, Side.ROW)(v).tobytes() == _kernel(transposed(A))(v).tobytes()


@pytest.mark.parametrize("side", list(Side), ids=lambda side: side.value)
@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 120),
    fill=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    heavy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=40, fill=[0.1, 0.1], heavy=False, seed=0)  # 4 terms in every bin: slots
@example(n=40, fill=[0.1, 0.1], heavy=True, seed=0)  # one bin of 40 terms: bincount
def test_loop_kernel_is_bincount_and_dense_bit_for_bit(side, n, fill, heavy, seed):
    """Output bin j (a column for the column side, a row for the row side)
    holds a count of terms drawn between the two ``fill`` shares of n, and
    with ``heavy`` bin 0 holds n, so the slots number from nnz to n² and
    either CSR path runs.  Entries and vector components span e^±30, so
    every add rounds.  The loop kernel keeps scratch between calls, and
    fills and returns ``out`` when given one."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(round(fill[0] * n), round(fill[1] * n) + 1, n)
    if heavy:
        counts[0] = n
    D = np.zeros((n, n))
    for j, count in enumerate(counts):
        D[rng.choice(n, count, replace=False), j] = np.exp(rng.uniform(-30.0, 30.0, count))
    if side is Side.ROW:
        D = np.ascontiguousarray(D.T)
    i, j = np.nonzero(D)
    dense, csr = from_dense(D), from_coordinates(n, i, j, D[i, j])
    loop = _kernel(csr, side, loop=True)
    slots = counts.max() * n <= _SLOT_FILL * csr.nnz
    assert ("_slot_product" in loop.__qualname__) == slots
    for v in (np.exp(rng.uniform(-30.0, 30.0, n)), np.exp(rng.uniform(-30.0, 30.0, n))):
        want = _kernel(csr, side)(v)
        assert want.tobytes() == _kernel(dense, side)(v).tobytes()
        assert loop(v).tobytes() == want.tobytes()
        for kernel in (loop, _kernel(csr, side), _kernel(dense, side), _kernel(dense, side, loop=True)):
            out = np.full(n, np.nan)
            assert kernel(v, out=out) is out
            assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("side", [Side.COLUMN, Side.ROW])
def test_dense_vecmat_fuses_no_multiply_add(side):
    """(1 + 2⁻³⁰)(1 − 2⁻³⁰) rounds to 1, so output 0, which adds -1 and
    then that product, is 0 exactly; a fused multiply-add would keep the
    product exact and return -2⁻⁶⁰.  The row side runs on the transpose."""
    eps = 2.0**-30
    M = np.array([[1.0, 0.0], [1.0 + eps, 0.0]])
    D = M if side is Side.COLUMN else np.ascontiguousarray(M.T)
    v = np.array([-1.0, 1.0 - eps])
    got = _kernel(from_dense(D), side)(v)
    assert got.tobytes() == np.zeros(2).tobytes()
    assert got.tobytes() == vecmat_unblocked(M, v).tobytes()
    i, j = np.nonzero(D)
    assert got.tobytes() == _kernel(from_coordinates(2, i, j, D[i, j]), side)(v).tobytes()


@pytest.mark.parametrize("side", [Side.COLUMN, Side.ROW])
def test_slot_kernel_fuses_no_multiply_add(side):
    """The slot layout's einsum adds -1 and then (1 + 2⁻³⁰)(1 − 2⁻³⁰),
    which rounds to 1, in output 0, so that output is 0 exactly, as in
    bincount; a fused multiply-add would return -2⁻⁶⁰."""
    eps = 2.0**-30
    D = np.array([[1.0, 1.0], [1.0 + eps, 1.0]])
    D = D if side is Side.COLUMN else np.ascontiguousarray(D.T)
    i, j = np.nonzero(D)
    A = from_coordinates(2, i, j, D[i, j])
    loop = _kernel(A, side, loop=True)
    assert "_slot_product" in loop.__qualname__
    got = loop(np.array([-1.0, 1.0 - eps]))
    assert got.tobytes() == np.array([0.0, -eps]).tobytes()
    assert got.tobytes() == _kernel(A, side)(np.array([-1.0, 1.0 - eps])).tobytes()


# orders of one and two, powers of two, and the orders just past them,
# where a vectorised inner loop leaves a remainder
_ORDERS = [1, 2, 64, 65, 128, 129, 513]


@settings(max_examples=100, deadline=None)
@given(
    n=st.sampled_from(_ORDERS) | st.integers(1, 128),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    overflow=st.booleans(),
)
@example(n=1000, density=0.5, seed=0, overflow=True)  # as in the test above
@example(n=2000, density=0.5, seed=1, overflow=True)
def test_dense_row_sums_are_the_row_kernel_bit_for_bit(n, density, seed, overflow):
    """Entries span e^±30, so every add rounds.  With ``overflow`` one row
    holds 2^969 twice and then the largest double: added in ascending order
    it sums to just past the largest double, while fmax + 2^969 alone rounds
    back to fmax, so only that order names the row."""
    rng = np.random.default_rng(seed)
    D = np.where(rng.random((n, n)) < density, np.exp(rng.uniform(-30.0, 30.0, (n, n))), 0.0)
    big = int(rng.integers(n)) if overflow and n >= 3 else None
    if big is not None:
        D[big, :2], D[big, -1] = 2.0**969, np.finfo(np.float64).max
    i, j = np.nonzero(D)
    dense, csr = NonnegMatrix(n, dense=D.copy()), _csr(n, i, j, D[i, j])  # unvalidated: a sum may be inf
    with np.errstate(over="ignore"):
        got = sums(dense, Side.ROW)
        assert got.tobytes() == _kernel(dense, Side.ROW)(np.ones(n)).tobytes()
        assert got.tobytes() == sums(csr, Side.ROW).tobytes()
    assert np.flatnonzero(np.isinf(got)).tolist() == ([] if big is None else [big])
    if big is not None:
        with pytest.raises(DomainError, match=f"^row {big + 1} sum overflows"):
            from_dense(D)


_FMAX = np.finfo(np.float64).max


def _validated(build):
    """"ok" when build() returns, else the type and message of the error it raised."""
    try:
        build()
    except PerronError as exc:
        return type(exc), str(exc)
    return "ok"


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 40),
    density=st.floats(0.0, 1.0),
    scale=st.floats(0.25, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sum_overflow_check_is_the_sums_rule(n, density, scale, seed):
    """The largest entry is scale fmax / n (fmax at most), the others lie
    within a factor 2 below it.  Under fmax / (2n) the check takes no sum;
    above it the sums decide, and past fmax / n a full row or column
    overflows.  Both storages accept exactly what has every row and column
    sum finite, and otherwise name the first row, or else the first
    column, whose sum overflows."""
    rng = np.random.default_rng(seed)
    largest = min(scale / n, 1.0) * _FMAX
    D = np.where(rng.random((n, n)) < density, largest * 2.0 ** -rng.uniform(0.0, 1.0, (n, n)), 0.0)
    D[rng.integers(n), rng.integers(n)] = largest
    want = "ok"
    with np.errstate(over="ignore"):
        for name, M in (("row", np.ascontiguousarray(D.T)), ("column", D)):
            over = np.flatnonzero(np.isinf(vecmat_unblocked(M, np.ones(n))))
            if over.size:
                want = DomainError, f"{name} {over[0] + 1} sum overflows; scale the matrix down"
                break
    i, j = np.nonzero(D)
    assert _validated(lambda: from_dense(D)) == want
    assert _validated(lambda: from_coordinates(n, i, j, D[i, j])) == want


def _outcome(job, A):
    """nnz and bytes of job(A), which must keep A's storage, or the type and message it raised."""
    try:
        M = job(A)
    except PerronError as exc:
        return type(exc), str(exc)
    assert M.storage == A.storage
    return M.nnz, M.to_dense().tobytes()


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 8),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    pair=st.sampled_from(["free", "reciprocal", "overflowing"]),
)
def test_entry_view_jobs_agree_across_storages(n, density, seed, pair):
    """Hostile entries 10^U(-300, 300) with zeros, stored dense and as CSR:
    every job on _entries and _like gives the same bits, or raises the same
    error, whatever the storage."""
    rng = np.random.default_rng(seed)
    D = np.where(rng.random((n, n)) < density, 10.0 ** rng.uniform(-300, 300, (n, n)), 0.0)
    i, j = np.nonzero(D)
    dense, csr = from_dense(D), from_coordinates(n, i, j, D[i, j])
    if pair == "reciprocal":
        x = 10.0 ** rng.uniform(-150, 150, n)
        y = 1.0 / x
    else:
        low = 100 if pair == "overflowing" else -150
        x, y = 10.0 ** rng.uniform(low, 150, n), 10.0 ** rng.uniform(low, 150, n)

    for got, want in zip(_entries(dense), _entries(csr)):
        assert got.tobytes() == want.tobytes()
    for job in (lambda A: _like(A, *_entries(A)), lambda A: rank_one_hadamard(A, x, y),
                lambda A: make_stochastic(A).matrix):
        assert _outcome(job, dense) == _outcome(job, csr)
    for A in (dense, csr):
        assert _outcome(lambda A: _like(A, *_entries(A)), A) == (A.nnz, A.to_dense().tobytes())
    assert period(dense) == period(csr)


def _built(n, rows, cols, values):
    """The CSR arrays of from_coordinates, as bytes, or the fields of the
    DuplicateEntryError it raised."""
    try:
        A = from_coordinates(n, rows, cols, values)
    except DuplicateEntryError as exc:
        return exc.i, exc.j, exc.first, exc.second
    return tuple(a.tobytes() for a in _entries(A))


def _first_repeat(rows, cols):
    """(i, j, first, second) of the first entry, in input order, whose coordinates came before."""
    seen = {}
    for k, key in enumerate(zip(rows.tolist(), cols.tolist())):
        if key in seen:
            return (*key, seen[key], k)
        seen[key] = k
    return None


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 9),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    zero=st.booleans(),
    duplicate=st.booleans(),
)
def test_coordinates_in_any_order_build_the_row_major_arrays(n, density, seed, zero, duplicate):
    """Entries in row-major order skip the sort; a permutation of them is
    sorted.  Both give the same arrays bit for bit, an explicit zero
    dropped, or the same first repeat in their own input order."""
    rng = np.random.default_rng(seed)
    D = np.where(rng.random((n, n)) < density, 10.0 ** rng.uniform(-300, 300, (n, n)), 0.0)
    D[0, 0] = 1.0
    rows, cols = np.nonzero(D)
    values = D[rows, cols]
    if zero:
        values[rng.integers(len(values))] = 0.0
    if duplicate:  # a second copy right after the first keeps row-major order
        k = int(rng.integers(len(values)))
        rows, cols, values = (np.insert(a, k + 1, a[k]) for a in (rows, cols, values))
    order = rng.permutation(len(values))
    got = [_built(n, rows, cols, values), _built(n, rows[order], cols[order], values[order])]
    if duplicate:
        assert got == [_first_repeat(rows, cols), _first_repeat(rows[order], cols[order])]
    else:
        assert got[0] == got[1]
        kept = values != 0
        assert got[0] == tuple(a[kept].tobytes() for a in (rows, cols, values))
