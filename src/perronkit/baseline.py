"""Power iteration: the independent oracle for the balancing solver.

It runs the solver's recurrence y <- A y through separate code (a BLAS
matvec on dense storage, sup-norm normalization, its own convergence
test), so agreement between the two is evidence for both.  Only the CSR
product, the solver's row kernel, and ``_stalled``, the stall rule's one
definition, are shared: on input that is not primitive both stop STAGNATED.
Both slow down together as the second eigenvalue approaches the first,
which the tridiagonal family exposes through its closed-form spectrum.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BreakdownError
from .matcore import NonnegMatrix, Side, _dense_view, _kernel
from .primitivity import is_primitive
from .solver import _STAGNATION_WINDOW, SolverConfig, Status, _stalled

__all__ = ["PowerResult", "power_method"]


@dataclass(frozen=True, eq=False)
class PowerResult:
    """Dominant eigenpair estimate from power iteration; ``==`` is identity."""

    eigenvalue: float
    eigenvector: np.ndarray
    iterations: int
    status: Status


def power_method(A: NonnegMatrix, tol: float = 1e-8, max_iter: int = 100_000) -> PowerResult:
    """Power iteration from the all-ones vector with sup-norm normalization.

    The eigenvalue estimate is the sup norm of A v for the unit-sup-norm
    iterate v.  Convergence requires the eigenvalue step and the vector
    step to fall within tol and, where the iterate is positive, the spread
    of the quotients (A v)_i / v_i to do the same.  The quotient spread is
    a two-sided enclosure of the dominant eigenvalue, so the returned
    estimate is within tol of it even when the second eigenvalue is close
    enough to the first that per-step deltas alone go quiet early.

    tol and max_iter are checked as SolverConfig's tolerance and
    max_iterations are; bad values raise DomainError.
    """
    SolverConfig(tolerance=tol, max_iterations=max_iter)  # raises on a bad tol or max_iter
    spreads = deque(maxlen=_STAGNATION_WINDOW + 1)  # this step's spread and the window's before it
    verdict = None  # is_primitive(A), once the spread stalls
    # v -> A v: BLAS on dense storage, the solver's row kernel on CSR
    matvec = functools.partial(np.matmul, _dense_view(A)) if A.storage == "dense" else _kernel(A, Side.ROW)
    v = np.ones(A.n)
    lam = float(np.abs(matvec(v)).max())
    if lam == 0:
        raise BreakdownError("matrix maps the all-ones vector to zero")
    for t in range(1, max_iter + 1):
        w = matvec(v)
        nw = float(np.abs(w).max())
        if nw == 0:
            raise BreakdownError(f"iterate vanished at iteration {t}")
        quotients = w[v > 0] / v[v > 0]
        spread = float(quotients.max()) - float(quotients.min())
        spreads.append(spread)
        v_new = w / nw
        if (
            spread <= tol
            and abs(nw - lam) <= tol
            and float(np.abs(v_new - v).max()) <= tol
        ):
            return PowerResult(nw, v_new, t, Status.CONVERGED)
        v, lam = v_new, nw
        then = spreads[0] if t > _STAGNATION_WINDOW else 0.0
        if then > 0 and _stalled(spread, then, tol):
            verdict = is_primitive(A) if verdict is None else verdict
            if not verdict:
                return PowerResult(lam, v, t, Status.STAGNATED)
    return PowerResult(lam, v, max_iter, Status.MAX_ITERATIONS)
