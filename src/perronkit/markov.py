"""Stationary distributions of row-stochastic matrices.

The stationary vector u (u^T P = u^T) is the dominant left eigenvector of
P, so it drops out of the solver's loop run on P's columns; the dominant
eigenvalue must come back as 1, which doubles as an input sanity check.
Chains that are not primitive can be made so by blending with the uniform
matrix (damping) before solving.  The damping factor alpha is in (0, 1],
1 being the chain as given, and it is set and checked only on a
:class:`StochasticMatrix`.

Damping is implicit: a damped chain keeps P as given, sparse or dense, next
to its factor alpha, and each step applies the PageRank identity
u^T (alpha P + (1 - alpha)/n 11^T) = alpha u^T P + (1 - alpha)/n sum(u) 1^T
(Langville & Meyer, Google's PageRank and Beyond, 2006, ch. 4).  A step
costs O(nnz + n) and no n x n matrix is ever built.  It damps the matrix's
one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NotStochasticError, RootNotOneError
from .matcore import NonnegMatrix, Side, _entries, _like, _real, sums
from .solver import SolverConfig, Status, _iterate, _nonzero, _Operator, _operator as _matrix_operator

__all__ = [
    "StochasticMatrix",
    "StationaryDistribution",
    "make_stochastic",
    "stationary",
]

_ROWSUM_TOL = 1e-12


@dataclass(frozen=True)
class StochasticMatrix:
    """The chain alpha*matrix + (1 - alpha)/n everywhere.

    ``matrix`` is square and nonnegative, and its rows each sum to 1 within
    1e-12; ``alpha`` is in (0, 1], checked before the rows, and 1 leaves
    the chain undamped.  Below 1 every entry of the chain is at least
    (1 - alpha)/n > 0, so it is positive, hence primitive, and its rows
    still sum to 1.
    """

    matrix: NonnegMatrix
    alpha: float = 1.0

    def __post_init__(self):
        if not (_real(self.alpha) and 0 < self.alpha <= 1):
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha!r}")
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


def make_stochastic(A: NonnegMatrix, alpha: float = 1.0) -> StochasticMatrix:
    """Divide each row by its sum, in A's storage layout, and damp by alpha.

    A zero row raises ZeroSumError before alpha is checked.
    """
    r = _nonzero(sums(A, Side.ROW), Side.ROW)
    rows, cols, values = _entries(A)
    return StochasticMatrix(_like(A, rows, cols, values / r[rows]), alpha)


def _operator(P: StochasticMatrix) -> _Operator:
    """u -> u^T (alpha P + (1 - alpha)/n 11^T), in O(nnz + n).

    An undamped chain (alpha = 1) is P's column operator itself.  A damped
    one damps that operator's kernel; its least factor is alpha times P's
    least entry, or (1 - alpha)/n on the sum of u, and it is positive,
    hence primitive.  It has no dense form, so the loop never squares it.
    """
    op, alpha, beta = _matrix_operator(P.matrix, Side.COLUMN), P.alpha, (1.0 - P.alpha) / P.n
    if alpha == 1:
        return op

    def apply(u, out=None):
        w = op.apply(u, out=out)
        w *= alpha
        w += beta * u.sum()
        return w

    return replace(op, apply=apply, work=op.work + P.n, least=lambda: min(alpha * op.least(), beta),
                   primitive=lambda: True, balanced=None)


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
    op = _operator(P)
    y, iterations, status, history = _iterate(op, op.apply(np.ones(P.n)), cfg)
    root = 0.5 * float(history.rmin[-1]) + 0.5 * float(history.rmax[-1])
    if status is Status.CONVERGED and abs(root - 1.0) > 100.0 * cfg.tolerance + _ROWSUM_TOL:
        raise RootNotOneError(root)
    u = y / y.sum()
    residual = float(np.abs(op.apply(u) - u).max())
    return StationaryDistribution(u=u, residual=residual, iterations=iterations, status=status)
