"""Independent reference computations the tests check the package against.

Everything here deliberately avoids the code paths under test: determinants
come from cofactor expansion, characteristic polynomials from the trace
recursion, primitivity from stepwise boolean powers, irreducibility from a
boolean transitive closure, stationary vectors from a linear solve, and
eigenvalues from numpy's dense QR solver.
"""

import numpy as np


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


def stationary_linear_solve(p) -> np.ndarray:
    """Stationary vector from (P^T - I) u = 0 with the unit-sum constraint."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    system = np.vstack([p.T - np.eye(n), np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    u, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    return u
