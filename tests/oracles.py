"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the code paths under test: determinants
come from cofactor expansion, characteristic polynomials from the trace
recursion, primitivity from stepwise boolean powers, irreducibility from a
boolean transitive closure, the period from the traces of boolean powers,
stationary vectors from a linear solve, and eigenvalues from numpy's dense
QR solver.  A random primitive matrix is
drawn with a separate mask array and value array.  A damped chain is
written out as the n×n matrix it stands for, and a transpose is rebuilt
from the dense entries.  The reference balancing loop shares only the one-shot kernel
with the solver, np.bincount on CSR and never the loop's padded slot
layout, and spells the stall rule out with its own window and factor.
It runs one step at a time,
rescaling y by a power of two at every step, where the solver runs blocks
of steps between rescalings, and spells out each step with one reduction
per guard.  The dense vᵀA is one n×n product reduced over axis 0,
and Matrix Market files are written one value at a time.  The 2x2 root
and the tridiagonal spectrum are closed forms.
The one helper that is not a reference, :func:`traced_peak`, measures
the memory the memory tests bound.
"""

import functools
import math
import tracemalloc

import numpy as np

from perronkit import from_coordinates, from_dense
from perronkit.matcore import _kernel
from perronkit.primitivity import is_primitive
from perronkit.solver import Status

# the stall rule's window and factor, written out rather than imported
STALL_WINDOW, STALL_FACTOR = 20, 0.999


def traced_peak(job):
    """(job(), the bytes held at job's tracemalloc peak, its result included)."""
    tracemalloc.start()
    try:
        result = job()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def det_cofactor(arr) -> float:
    """Determinant by cofactor expansion along the first row (n <= ~8)."""
    a = np.asarray(arr, dtype=float)
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        if a[0, j] == 0.0:
            continue
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * det_cofactor(minor)
    return total


def charpoly_coefficients(arr) -> np.ndarray:
    """Coefficients (1, c1, ..., cn) of det(tI - A) via the trace recursion."""
    a = np.asarray(arr, dtype=float)
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(float(-np.trace(a @ m)) / k)
    return np.array(coeffs)


def dominant_eigenvalue(arr) -> float:
    """Spectral radius from the dense QR eigensolver."""
    return float(np.abs(np.linalg.eigvals(np.asarray(arr, dtype=float))).max())


def all_eigenvalues(arr) -> np.ndarray:
    return np.linalg.eigvals(np.asarray(arr, dtype=float))


def perron_2x2(arr) -> tuple[float, float]:
    """Closed-form dominant eigenvalue of a 2x2 array with positive off-diagonals.

    Returns (root, x) where root = (a11 + a22 + sqrt((a11 - a22)^2
    + 4 a12 a21)) / 2 and x = (root - a11) / a12, so that scaling the
    off-diagonals by x and 1/x equalizes both row sums at the root.  Both
    terms of the quadratic formula are nonnegative here, so there is no
    cancellation.
    """
    a = np.asarray(arr, dtype=float)
    assert a.shape == (2, 2) and a[0, 1] > 0 and a[1, 0] > 0
    (a11, a12), (a21, a22) = a
    root = (a11 + a22 + math.sqrt((a11 - a22) ** 2 + 4.0 * a12 * a21)) / 2.0
    return float(root), float((root - a11) / a12)


def tridiagonal_eigs(n, c, a, b) -> np.ndarray:
    """Eigenvalues of tridiagonal(n, c, a, b) in descending order:
    a + 2*sqrt(b*c)*cos(k*pi/(n+1)), k = 1..n."""
    assert n >= 1 and b * c >= 0
    k = np.arange(1, n + 1)
    return a + 2.0 * np.sqrt(b * c) * np.cos(k * np.pi / (n + 1))


def primitive_by_stepwise_powers(arr, limit: int) -> bool:
    """Multiply boolean powers one step at a time, exponents 1..limit."""
    p = np.asarray(arr, dtype=float) > 0
    q = p.copy()
    for _ in range(limit - 1):
        if q.all():
            return True
        q = (q.astype(np.int64) @ p.astype(np.int64)) > 0
    return bool(q.all())


def irreducible_by_closure(arr) -> bool:
    """Every node reaches every other: Warshall closure of the boolean pattern."""
    reach = (np.asarray(arr, dtype=float) > 0) | np.eye(len(arr), dtype=bool)
    for k in range(len(reach)):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    return bool(reach.all())


def period_by_powers(arr):
    """gcd of the k <= n with trace(A^k) > 0, by boolean powers; None when A is reducible.

    Every cycle length is a sum of simple cycle lengths, each at most n, so
    the gcd over k <= n is the gcd of all cycle lengths; 0 when there is none.
    """
    if not irreducible_by_closure(arr):
        return None
    p = (np.asarray(arr, dtype=float) > 0).astype(np.int64)
    q, g = np.eye(len(p), dtype=np.int64), 0
    for k in range(1, len(p) + 1):
        q = ((q @ p) > 0).astype(np.int64)
        if np.trace(q) > 0:
            g = math.gcd(g, k)
    return g


def stationary_linear_solve(p) -> np.ndarray:
    """Stationary vector from (P^T - I) u = 0 with the unit-sum constraint."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    system = np.vstack([p.T - np.eye(n), np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    u, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return u


def damped_dense(P) -> np.ndarray:
    """The n×n matrix a StochasticMatrix stands for: alpha*P + (1 - alpha)/n everywhere."""
    return P.alpha * P.matrix.to_dense() + (1.0 - P.alpha) / P.n


def transposed(A):
    """Aᵀ in A's storage, rebuilt from A's dense entries."""
    arr = A.to_dense().T
    if A.storage == "dense":
        return from_dense(arr)
    rows, cols = np.nonzero(arr)
    return from_coordinates(A.n, rows, cols, arr[rows, cols])


def damped_vecmat(P):
    """u -> uᵀ (alpha P + (1 - alpha)/n 11ᵀ) for a StochasticMatrix P, on its matrix's one-shot kernel."""
    kernel, alpha, beta = _kernel(P.matrix), P.alpha, (1.0 - P.alpha) / P.n
    return lambda u: alpha * kernel(u) + beta * u.sum()


def reference_iterate(K, cfg, primitive=None):
    """The balancing loop y <- Kᵀ y on a matrix K; see :func:`reference_loop`.

    ``primitive`` defaults to the exact test on K.
    """
    primitive = primitive or functools.partial(is_primitive, K)
    return reference_loop(_kernel(K), K.n, primitive, cfg)


def reference_loop(vecmat, n, primitive, cfg):
    """The balancing loop y <- Kᵀ y one step at a time, with a pass per guard.

    ``vecmat(y)`` computes Kᵀ y and ``primitive()`` answers whether K is
    primitive.  Returns (y, iterations, status, rmin, rmax, steps), or None
    when some sum of K is zero and the solver raises; ``steps`` lists
    (t, r.tobytes()) for the input's sums and each accepted step's, the
    calls the solver makes to ``on_step``.  Every step rescales w by 2^-e,
    e the exponent of max w, reduces y and w = Kᵀ y afresh, tests every
    quotient for finiteness and then tests the stop rules.  The spread
    stalls when it is above the tolerance and keeps more than STALL_FACTOR
    of a positive spread STALL_WINDOW entries back; ``primitive()`` is then
    asked once, and a no stops the run.
    """
    tiny = np.finfo(np.float64).tiny
    verdict = None
    y = np.ones(n)
    r = w = vecmat(y)
    if (r == 0).any():
        return None
    rmin, rmax = [float(r.min())], [float(r.max())]
    steps = [(0, r.tobytes())]
    t = 0
    with np.errstate(all="ignore"):
        while True:
            spread = rmax[-1] - rmin[-1]
            if math.isfinite(spread) and (spread <= cfg.tolerance or spread <= math.ulp(rmax[-1])):
                status = Status.CONVERGED
                break
            if len(rmin) > STALL_WINDOW:
                then = rmax[-1 - STALL_WINDOW] - rmin[-1 - STALL_WINDOW]
                if then > 0 and spread > cfg.tolerance and spread / then > STALL_FACTOR:
                    verdict = primitive() if verdict is None else verdict
                    if not verdict:
                        status = Status.STAGNATED
                        break
            if t >= cfg.max_iterations:
                status = Status.MAX_ITERATIONS
                break
            y_next = np.ldexp(w, -np.frexp(w.max())[1])
            w = vecmat(y_next)
            r = w / y_next
            if min(y_next.min(), w.min()) < tiny or not np.isfinite(r).all():
                status = Status.STAGNATED
                break
            y = y_next
            t += 1
            rmin.append(float(r.min()))
            rmax.append(float(r.max()))
            steps.append((t, r.tobytes()))
    return y, t, status, np.array(rmin), np.array(rmax), steps


def vecmat_unblocked(D, v) -> np.ndarray:
    """vᵀD as one n×n product reduced over axis 0: each column in ascending row order."""
    return np.add.reduce(D * v[:, None], axis=0)


def write_matrix_market_per_value(A, fh) -> None:
    """Matrix Market text of A, one f"{v:.17g}" value at a time."""
    if A.storage == "dense":
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{A.n} {A.n}\n")
        dense = A.to_dense()
        for j in range(A.n):
            for i in range(A.n):
                fh.write(f"{dense[i, j]:.17g}\n")
    else:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.n} {A.n} {A.nnz}\n")
        for i, j, v in zip(A._rows, A._indices, A._data):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def random_primitive_two_arrays(n, density, rng):
    """A random primitive matrix drawn as an n×n mask and an n×n value array."""
    mask = rng.random((n, n)) < density
    arr = rng.uniform(0.2, 2.0, (n, n))
    arr[~mask] = 0.0
    idx = np.arange(n)
    arr[idx, idx] = rng.uniform(0.2, 2.0, n)
    arr[idx, (idx + 1) % n] = rng.uniform(0.2, 2.0, n)
    return arr
