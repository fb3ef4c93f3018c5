"""Iterative balancing of row or column sums to the dominant eigenvalue.

The paper's step replaces the working matrix B by the similarity
D_r^{-1} B D_r, where D_r is the diagonal of B's current row sums.  After t
steps the working matrix is D^{-1} A D with D = diag(y) and y = A^t 1, and
its row sums are the Collatz-Wielandt quotients (A y)_i / y_i.  So the
solver never forms the scaled matrices: it runs the power recurrence
y <- A y (normalized to max 1) and reads the sums off as r = (A y) / y.
For a primitive matrix min r rises, max r falls, and both converge to the
dominant eigenvalue.  The balanced matrix D^{-1} A D is built once, from
the final y, and keeps the input's diagonal and zero pattern exactly.
Column sums are balanced the same way on the transpose.

:func:`algorithm_a` and :func:`algorithm_b` run this one kernel; B also
returns y, which converges to the dominant eigenvector (of the transpose
when column sums were balanced).

On matrices whose dominant eigenvalue is not strictly dominant in modulus
(imprimitive matrices), the sums oscillate instead of converging.  When the
spread stops shrinking the solver runs the exact test
:func:`~perronkit.primitivity.is_primitive` once: an imprimitive matrix
stops as ``Status.STAGNATED``, while a primitive one that merely converges
slowly keeps iterating.  A run whose y or A y leaves the normal
floating-point range (on reducible input) also stops as ``STAGNATED``, with
the last accurate step.

The one stopping rule is the paper's: the run has converged once the
balanced sums agree, that is once max r - min r is within the tolerance
or within one unit in the last place of max r, the rounding floor below
which no step can shrink the spread of a root far above 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ZeroSumError
from .matcore import (
    GerschgorinDisc,
    NonnegMatrix,
    Side,
    SumVector,
    _checked_scale,
    _raw_sums,
    _vecmat,
    gerschgorin,
    rank_one_hadamard,
)
from .primitivity import is_irreducible, is_primitive

__all__ = [
    "Status",
    "SolverConfig",
    "ConvergenceHistory",
    "PerronResult",
    "algorithm_a",
    "algorithm_b",
    "choose_side",
    "range_error",
    "detect_stagnation",
    "estimate_iterations",
    "recover_X",
    "convergence_discs",
    "CrossCheckReport",
    "stagnation_cross_check",
]

class Status(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    STAGNATED = "stagnated"


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance, iteration cap and side selection for one solve.

    ``side=None`` picks the side whose initial sum range is smaller.  The
    run converges when max sum - min sum <= tolerance, or when the spread
    is down to the rounding floor, one unit in the last place of the
    maximum sum, which an absolute tolerance cannot reach on a large root.
    """

    tolerance: float = 1e-8
    max_iterations: int = 100_000
    side: Side | None = None

    def __post_init__(self):
        if not (self.tolerance > 0):
            raise DomainError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise DomainError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class ConvergenceHistory:
    """Minimum and maximum sums per iteration, entry 0 being the input's.

    ``sums`` holds the full per-iteration sum vectors, shape
    (iterations + 1, n), when the solve was asked to record them.
    """

    rmin: np.ndarray
    rmax: np.ndarray
    sums: np.ndarray | None = None

    def __len__(self):
        return len(self.rmin)


@dataclass(frozen=True)
class PerronResult:
    """Outcome of one balancing run.

    ``balanced`` is returned in the orientation of the input matrix (same
    diagonal and zero pattern); for column-side runs its column sums are the
    equalized ones, and :func:`convergence_discs` evaluates discs in the
    balanced orientation.  ``eigenvector`` (algorithm B only) is the
    dominant eigenvector of the input when row sums were balanced and of
    its transpose when column sums were balanced, normalized to unit sum.
    """

    root_lo: float
    root_hi: float
    root: float
    eigenvector: np.ndarray | None
    balanced: NonnegMatrix
    iterations: int
    side_used: Side
    status: Status
    history: ConvergenceHistory


def choose_side(A: NonnegMatrix) -> Side:
    """Side whose initial sum range is smaller; ties go to rows."""
    row = _raw_sums(A, Side.ROW)
    col = _raw_sums(A, Side.COLUMN)
    row_range = row.max() - row.min()
    col_range = col.max() - col.min()
    return Side.ROW if row_range <= col_range else Side.COLUMN


def range_error(s) -> float:
    """Spread max - min of a sum vector; zero when the sums are equalized."""
    values = s.values if isinstance(s, SumVector) else np.asarray(s, dtype=np.float64)
    return float(values.max() - values.min())


# steps the spread gets to shrink before the exact primitivity test is run
_STAGNATION_WINDOW = 20
# a spread that keeps more than this share of itself over the window has stalled
_STAGNATION_FACTOR = 0.999


def _stagnant(rmin, rmax, cfg: SolverConfig) -> bool:
    w = _STAGNATION_WINDOW
    if len(rmin) < w + 1:
        return False
    now = rmax[-1] - rmin[-1]
    then = rmax[-1 - w] - rmin[-1 - w]
    if now <= cfg.tolerance or then <= 0:
        return False
    return now / then > _STAGNATION_FACTOR


def detect_stagnation(h: ConvergenceHistory, cfg: SolverConfig) -> bool:
    """True when the sum range made essentially no progress over 20 steps.

    Histories shorter than the window report False, as does any history
    whose current range is already within tolerance.
    """
    return _stagnant(h.rmin, h.rmax, cfg)


def estimate_iterations(alpha: float, c: float) -> int:
    """Iterations needed to shrink the error by factor alpha at mean contraction c."""
    if not (0 < alpha < 1):
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if not (0 < c < 1):
        raise DomainError(f"c must be in (0, 1), got {c}")
    # slack absorbs rounding of the log quotient for exact-power inputs
    return math.ceil(math.log(alpha) / math.log(c) - 1e-9)


def recover_X(y) -> NonnegMatrix:
    """Rank-one scaling matrix with entries y_j / y_i and unit diagonal."""
    y = np.asarray(y, dtype=np.float64)
    y = _checked_scale(y, len(y))
    ones = NonnegMatrix(len(y), dense=np.ones((len(y), len(y))))
    return rank_one_hadamard(ones, np.reciprocal(y), y)


def convergence_discs(result: PerronResult) -> list[GerschgorinDisc]:
    """Discs of the balanced matrix in the orientation that was balanced.

    At convergence every disc's rightmost point sits at the computed root.
    """
    B = result.balanced if result.side_used is Side.ROW else result.balanced.transpose()
    return gerschgorin(B)


@np.errstate(all="ignore")  # the step guard reports non-finite values as STAGNATED
def _run(A: NonnegMatrix, cfg: SolverConfig, want_vector: bool, record_sums: bool) -> PerronResult:
    side = cfg.side if cfg.side is not None else choose_side(A)
    # _vecmat(K, y) is yᵀK: A y for rows, Aᵀ y for columns
    K = A.transpose() if side is Side.ROW else A

    y = np.ones(A.n)
    r = w = _vecmat(K, y)
    zero = np.flatnonzero(r == 0)
    if zero.size:
        raise ZeroSumError(int(zero[0]), side=side.value)

    rmin = [float(r.min())]
    rmax = [float(r.max())]
    trace = [r] if record_sums else None
    tiny = np.finfo(np.float64).tiny
    primitive = None  # exact test, run once when the heuristic first fires

    t = 0
    while True:
        spread = rmax[-1] - rmin[-1]
        if spread <= cfg.tolerance or spread <= math.ulp(rmax[-1]):
            status = Status.CONVERGED
            break
        if _stagnant(rmin, rmax, cfg):
            if primitive is None:
                primitive = is_primitive(A)
            if not primitive:
                status = Status.STAGNATED
                break
        if t >= cfg.max_iterations:
            status = Status.MAX_ITERATIONS
            break

        y_next = w / w.max()
        w = _vecmat(K, y_next)
        r_next = w / y_next
        # below the normal range y and w lose precision, and the quotients
        # lose monotonicity or turn inf or nan; keep the last accurate step
        if min(y_next.min(), w.min()) < tiny or not np.isfinite(r_next).all():
            status = Status.STAGNATED
            break
        y, r = y_next, r_next
        t += 1
        rmin.append(float(r.min()))
        rmax.append(float(r.max()))
        if record_sums:
            trace.append(r)

    if side is Side.ROW:
        balanced = rank_one_hadamard(A, np.reciprocal(y), y)
    else:
        balanced = rank_one_hadamard(A, y, np.reciprocal(y))
    history = ConvergenceHistory(
        rmin=np.array(rmin),
        rmax=np.array(rmax),
        sums=np.array(trace) if record_sums else None,
    )
    lo, hi = rmin[-1], rmax[-1]
    return PerronResult(
        root_lo=lo,
        root_hi=hi,
        root=0.5 * lo + 0.5 * hi,  # lo + hi may overflow
        eigenvector=(y / y.sum()) if want_vector else None,
        balanced=balanced,
        iterations=t,
        side_used=side,
        status=status,
        history=history,
    )


def algorithm_a(A: NonnegMatrix, cfg: SolverConfig | None = None, *, record_sums: bool = False) -> PerronResult:
    """Balance the sums; returns the root enclosure only.

    Each step is equivalent to multiplying entry (i, j) of the working
    matrix by r_j / r_i, where r is the current sum vector on the chosen
    side; see the module docstring for how the solver computes it.
    """
    return _run(A, cfg or SolverConfig(), want_vector=False, record_sums=record_sums)


def algorithm_b(A: NonnegMatrix, cfg: SolverConfig | None = None, *, record_sums: bool = False) -> PerronResult:
    """Balance the sums and also return the accumulated scaling vector y.

    Same iteration as :func:`algorithm_a`.  On convergence y spans the
    dominant eigenvector: M y = root * y within 10x tolerance, where M is
    the matrix in the balanced orientation.
    """
    return _run(A, cfg or SolverConfig(), want_vector=True, record_sums=record_sums)


@dataclass(frozen=True)
class CrossCheckReport:
    """Agreement between the solver's stagnation signal and the exact test."""

    primitive: bool
    irreducible: bool
    solver_status: Status
    agreement: bool


def stagnation_cross_check(A: NonnegMatrix, result: PerronResult) -> CrossCheckReport:
    """Compare a finished solve against the exact primitivity test.

    The solver's STAGNATED status is the claim "not primitive"; agreement
    means that claim matches the exact graph test.
    """
    primitive = is_primitive(A)
    stagnated = result.status is Status.STAGNATED
    return CrossCheckReport(
        primitive=primitive,
        irreducible=is_irreducible(A),
        solver_status=result.status,
        agreement=stagnated == (not primitive),
    )
