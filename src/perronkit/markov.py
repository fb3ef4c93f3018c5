"""Stationary distributions of row-stochastic matrices.

The stationary vector u (u^T P = u^T) is the dominant left eigenvector of
P, so it drops out of the solver's loop run on P's columns; the dominant
eigenvalue must come back as 1, which doubles as an input sanity check.
Chains that are not primitive can be made so by blending with the uniform
matrix (damping) before solving.

Damping is implicit: a damped chain keeps P as given, sparse or dense, next
to its factor alpha, and each step applies the PageRank identity
u^T (alpha P + (1 - alpha)/n 11^T) = alpha u^T P + (1 - alpha)/n sum(u) 1^T
(Langville & Meyer, Google's PageRank and Beyond, 2006, ch. 4).  A step
costs O(nnz + n) and no n x n matrix is ever built.  It damps the one
kernel a solve calls, on CSR a slot layout when more than one step is allowed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NotStochasticError, RootNotOneError, ZeroSumError
from .matcore import NonnegMatrix, Side, _entries, _like, sums
from .solver import SolverConfig, Status, _iterate, _Operator, _operator as _matrix_operator

__all__ = [
    "StochasticMatrix",
    "StationaryDistribution",
    "make_stochastic",
    "damp",
    "stationary",
]

_ROWSUM_TOL = 1e-12


@dataclass(frozen=True)
class StochasticMatrix:
    """The chain alpha*matrix + (1 - alpha)/n everywhere.

    ``matrix`` is square and nonnegative, and its rows each sum to 1 within
    1e-12; ``alpha`` is in (0, 1], and 1 leaves the chain undamped.
    """

    matrix: NonnegMatrix
    alpha: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")
        r = sums(self.matrix, Side.ROW)
        off = np.flatnonzero(np.abs(r - 1.0) > _ROWSUM_TOL)
        if off.size:
            i = int(off[0])
            raise NotStochasticError(i, float(r[i]))

    @property
    def n(self) -> int:
        return self.matrix.n


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    """Probability vector u with u^T P = u^T, plus solve diagnostics; ``==`` is identity."""

    u: np.ndarray
    residual: float
    iterations: int
    status: Status


def make_stochastic(A: NonnegMatrix) -> StochasticMatrix:
    """Divide each row by its sum; preserves the storage layout."""
    r = sums(A, Side.ROW)
    zero = np.flatnonzero(r == 0)
    if zero.size:
        raise ZeroSumError(int(zero[0]), side="row")
    rows, cols, values = _entries(A)
    return StochasticMatrix(_like(A, rows, cols, values / r[rows]))


def damp(P: StochasticMatrix, alpha: float) -> StochasticMatrix:
    """Blend with the uniform matrix: alpha*P + (1 - alpha)/n everywhere.

    Every entry of the result is at least (1 - alpha)/n > 0, so the damped
    chain is positive and therefore primitive, and rows still sum to 1.
    P's matrix is shared, not copied; damping twice multiplies the factors.
    """
    if not (0 < alpha < 1):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    return StochasticMatrix(P.matrix, P.alpha * alpha)


def _operator(P: StochasticMatrix, loop: bool = False) -> _Operator:
    """u -> u^T (alpha P + (1 - alpha)/n 11^T), in O(nnz + n).

    An undamped chain (alpha = 1) is P's column operator itself, which
    ``loop`` picks as in :func:`~perronkit.solver._operator`.  A damped
    one damps that operator's kernel; its least factor is alpha times P's
    least entry, or (1 - alpha)/n on the sum of u, and it is positive,
    hence primitive.
    """
    op, alpha, beta = _matrix_operator(P.matrix, Side.COLUMN, loop), P.alpha, (1.0 - P.alpha) / P.n
    if alpha == 1:
        return op

    def apply(u, out=None):
        w = op.apply(u, out=out)
        w *= alpha
        w += beta * u.sum()
        return w

    return replace(op, apply=apply, work=op.work + P.n,
                   least=lambda: min(alpha * op.least(), beta), primitive=lambda: True)


def stationary(P: StochasticMatrix, cfg: SolverConfig | None = None) -> StationaryDistribution:
    """Stationary distribution of a primitive row-stochastic matrix.

    Runs the solver's loop alone on the damped chain's columns, which
    iterates u^T <- u^T (alpha P + (1 - alpha)/n 11^T); it builds no
    balanced matrix and does not read ``cfg.side`` (automatic selection
    would pick the already-equal rows and return the trivial all-ones
    direction).  The returned vector is normalized to unit sum; the
    residual is the inf-norm of u^T times the damped chain minus u^T.
    Raises RootNotOneError when a converged run's eigenvalue strays from 1
    by more than 100x tolerance plus the 1e-12 row-sum slack: a mis-scaled input.
    """
    cfg = cfg or SolverConfig()
    op = _operator(P, cfg.max_iterations > 1)
    y, iterations, status, history = _iterate(op, op.apply(np.ones(P.n)), cfg)
    root = 0.5 * float(history.rmin[-1]) + 0.5 * float(history.rmax[-1])
    if status is Status.CONVERGED and abs(root - 1.0) > 100.0 * cfg.tolerance + _ROWSUM_TOL:
        raise RootNotOneError(root)
    u = y / y.sum()
    residual = float(np.abs(op.apply(u) - u).max())
    return StationaryDistribution(u=u, residual=residual, iterations=iterations, status=status)
