"""Iterative balancing of row or column sums to the dominant eigenvalue.

The paper's step replaces the working matrix B by the similarity
D_r^{-1} B D_r, where D_r is the diagonal of B's current row sums.  After t
steps the working matrix is D^{-1} A D with D = diag(y) and y = A^t 1, and
its row sums are the Collatz-Wielandt quotients (A y)_i / y_i.  So the
solver never forms the scaled matrices: it runs the power recurrence
y <- A y (normalized to max 1) and reads the sums off as r = (A y) / y.
For a primitive matrix min r rises, max r falls, and both converge to the
dominant eigenvalue.  The balanced matrix D^{-1} A D is built from the
final y on first access, and keeps the input's diagonal and zero pattern
exactly.  Column sums are balanced the same way on the transpose.

One loop runs over K = Aᵀ (rows) or K = A (columns) and returns only y
and the min and max sums of each step; a caller that wants the sum vectors
passes ``on_step``, which sees each one as it is computed and keeps what
it needs.  :func:`algorithm_b` picks the side, runs it and builds the
result around y, the dominant eigenvector (of the transpose for columns).
:func:`algorithm_a` returns no eigenvector; the stationary distribution of
:mod:`~perronkit.markov` runs the loop alone.

On matrices whose dominant eigenvalue is not strictly dominant in modulus
(imprimitive matrices), the sums oscillate instead of converging.  When the
spread stops shrinking the loop runs the exact test
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

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import DomainError, ZeroSumError
from .matcore import GerschgorinDisc, NonnegMatrix, Side, _vecmat, rank_one_hadamard, sums
from .primitivity import is_primitive

__all__ = [
    "Status",
    "SolverConfig",
    "ConvergenceHistory",
    "PerronResult",
    "algorithm_a",
    "algorithm_b",
    "convergence_discs",
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
        tol = self.tolerance
        real = isinstance(tol, numbers.Real) and not isinstance(tol, bool)
        if not (real and math.isfinite(tol) and tol > 0):
            raise DomainError(f"tolerance must be a finite real > 0, got {tol!r}")
        cap = self.max_iterations
        if not (isinstance(cap, numbers.Integral) and not isinstance(cap, bool) and cap >= 1):
            raise DomainError(f"max_iterations must be an integer >= 1, got {cap!r}")
        if self.side is not None and not isinstance(self.side, Side):
            raise DomainError(f"side must be a Side or None, got {self.side!r}")


@dataclass(frozen=True)
class ConvergenceHistory:
    """Minimum and maximum sums per iteration, entry 0 being the input's."""

    rmin: np.ndarray
    rmax: np.ndarray

    def __len__(self):
        return len(self.rmin)


@dataclass(frozen=True)
class PerronResult:
    """Outcome of one balancing run.

    ``balanced`` is built on first access from the input and the final y,
    both kept by the result, and cached: a_ij y_j / y_i when row sums were
    balanced, a_ij y_i / y_j when column sums were.  It keeps the input's
    orientation, diagonal and zero pattern, so for column-side runs its
    column sums are the equalized ones.  ``eigenvector`` (algorithm B only)
    is y normalized to unit sum: the dominant eigenvector of the input for
    rows and of its transpose for columns.
    """

    root_lo: float
    root_hi: float
    root: float
    eigenvector: np.ndarray | None
    iterations: int
    side_used: Side
    status: Status
    history: ConvergenceHistory
    _A: NonnegMatrix = field(repr=False, compare=False)
    _y: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def balanced(self) -> NonnegMatrix:
        y = self._y
        if self.side_used is Side.ROW:
            return rank_one_hadamard(self._A, np.reciprocal(y), y)
        return rank_one_hadamard(self._A, y, np.reciprocal(y))


def _smaller_range(row_sums, col_sums) -> Side:
    """Side whose initial sum spread max - min is smaller; ties go to rows."""
    if row_sums.max() - row_sums.min() <= col_sums.max() - col_sums.min():
        return Side.ROW
    return Side.COLUMN


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


def _stall_rule(primitive, cfg: SolverConfig):
    """``stop(rmin, rmax)`` for the power loops: the spread stalled and the
    thunk ``primitive()`` says the operator is not primitive.  The thunk
    runs at most once.
    """
    primitive = functools.cache(primitive)
    return lambda rmin, rmax: _stagnant(rmin, rmax, cfg) and not primitive()


def convergence_discs(result: PerronResult) -> list[GerschgorinDisc]:
    """Discs of the balanced matrix in the orientation that was balanced.

    Disc i has center a_ii, which the balancing similarity keeps, and
    radius the balanced sum i minus a_ii.  The sums are the run's last
    quotients (K y) / y, the same bits ``on_step`` saw last; no balanced
    matrix is built.  At convergence every disc's rightmost point sits at
    the computed root.
    """
    A, y = result._A, result._y
    K = A.transpose() if result.side_used is Side.ROW else A
    centers = A.diagonal()
    return [GerschgorinDisc(float(c), float(s - c)) for c, s in zip(centers, _vecmat(K, y) / y)]


# the ufunc reductions, without ndarray.min's Python wrapper
_min, _max = np.minimum.reduce, np.maximum.reduce


@np.errstate(all="ignore")  # the step guard reports non-finite values as STAGNATED
def _iterate(vecmat, n: int, primitive, side: Side, cfg: SolverConfig, on_step=None):
    """The one loop: y <- Kᵀ y from y = 1, with the sums r = (Kᵀ y) / y.

    ``vecmat(y)`` computes Kᵀ y for an operator K of order n; it need not
    be stored as a matrix.  ``primitive()`` answers whether K is primitive
    and is called at most once, when the spread stalls.  Returns (y,
    iterations, status, history).  ``side`` only labels a ZeroSumError.
    ``on_step(t, r)``, when given, is called with the input's sums (t = 0)
    and then with the sums of each accepted step, so once per history
    entry; r belongs to the loop and must not be modified.

    A step is one kernel call, two divisions (y = w / max w and
    r = (Kᵀ y) / y) and four reductions: min and max of r, min and max of
    w = Kᵀ y, the max only once the step is accepted.  The guard needs no
    pass of its own and is exact.  Rounding is monotone, so min y equals
    fl(min w / max w), computed from the extremes carried from the last
    step.  NaN propagates through the min and max reductions and r >= 0,
    so any NaN or inf among the quotients shows in max r.
    """
    y = np.ones(n)
    r = w = vecmat(y)
    zero = np.flatnonzero(r == 0)
    if zero.size:
        raise ZeroSumError(int(zero[0]), side=side.value)

    rmin = [float(_min(r))]
    rmax = [float(_max(r))]
    wmin, wmax = rmin[0], rmax[0]  # r = w on the first step
    if on_step is not None:
        on_step(0, r)
    tiny = np.finfo(np.float64).tiny
    stalled = _stall_rule(primitive, cfg)

    t = 0
    while True:
        spread = rmax[-1] - rmin[-1]
        if spread <= cfg.tolerance or spread <= math.ulp(rmax[-1]):
            status = Status.CONVERGED
            break
        if stalled(rmin, rmax):
            status = Status.STAGNATED
            break
        if t >= cfg.max_iterations:
            status = Status.MAX_ITERATIONS
            break

        y_next = w / wmax
        w_next = vecmat(y_next)
        r_next = w_next / y_next
        lo, hi = _min(r_next), _max(r_next)
        wmin_next = _min(w_next)
        # below the normal range y and w lose precision, and the quotients
        # lose monotonicity or turn inf or nan; keep the last accurate step
        if min(wmin / wmax, wmin_next) < tiny or not math.isfinite(hi):
            status = Status.STAGNATED
            break
        y, w, wmin, wmax = y_next, w_next, wmin_next, _max(w_next)
        t += 1
        rmin.append(float(lo))
        rmax.append(float(hi))
        if on_step is not None:
            on_step(t, r_next)

    return y, t, status, ConvergenceHistory(rmin=np.array(rmin), rmax=np.array(rmax))


def algorithm_b(A: NonnegMatrix, cfg: SolverConfig | None = None, *, on_step=None) -> PerronResult:
    """Balance the sums and also return the accumulated scaling vector y.

    Picks the side and runs the loop; the balanced matrix is built from the
    final y only when the result's ``balanced`` is read.  On convergence y
    spans the dominant eigenvector: M y = root * y within 10x tolerance,
    where M is the matrix in the balanced orientation.

    ``on_step(t, r)``, when given, receives the balanced sums r after t
    steps, for t = 0 up to the returned iteration count.  r belongs to the
    solver: read it or copy it, but do not modify it.
    """
    cfg = cfg or SolverConfig()
    # dense row sums copy Aᵀ: form it once, for them and a row-side K; its
    # column sums are A's row sums bit for bit
    transpose = functools.cache(A.transpose)
    side = cfg.side
    if side is None:
        rows = sums(transpose(), Side.COLUMN) if A.storage == "dense" else sums(A, Side.ROW)
        side = _smaller_range(rows, sums(A, Side.COLUMN))
    # _vecmat(K, y) is yᵀK: A y for rows, Aᵀ y for columns.  K and Kᵀ are
    # primitive together, so the exact test runs on K.
    K = transpose() if side is Side.ROW else A
    y, t, status, history = _iterate(
        functools.partial(_vecmat, K), K.n, functools.partial(is_primitive, K), side, cfg, on_step
    )
    lo, hi = float(history.rmin[-1]), float(history.rmax[-1])
    return PerronResult(
        root_lo=lo,
        root_hi=hi,
        root=0.5 * lo + 0.5 * hi,  # lo + hi may overflow
        eigenvector=y / y.sum(),
        iterations=t,
        side_used=side,
        status=status,
        history=history,
        _A=A,
        _y=y,
    )


def algorithm_a(A: NonnegMatrix, cfg: SolverConfig | None = None, *, on_step=None) -> PerronResult:
    """Balance the sums; returns the root enclosure only.

    Each step is equivalent to multiplying entry (i, j) of the working
    matrix by r_j / r_i, where r is the current sum vector on the chosen
    side; see the module docstring for how the solver computes it.
    ``on_step`` is as for :func:`algorithm_b`.
    """
    return replace(algorithm_b(A, cfg, on_step=on_step), eigenvector=None)
