"""Iterative balancing of row or column sums to the dominant eigenvalue.

The paper's step replaces the working matrix B by the similarity
D_r^{-1} B D_r, where D_r is the diagonal of B's current row sums.  After t
steps the working matrix is D^{-1} A D with D = diag(y) and y = A^t 1, and
its row sums are the Collatz-Wielandt quotients (A y)_i / y_i.  So the
solver never forms the scaled matrices: it runs the power recurrence
y <- A y, rescaled by a power of two so that max y lies in [1/2, 1), and
reads the sums off as r = (A y) / y.
For a primitive matrix min r rises, max r falls, and both converge to the
dominant eigenvalue.  The balanced matrix D^{-1} A D is built from the
final y on first access, and keeps the input's diagonal and zero pattern
exactly.  Column sums are balanced the same way with y <- Aᵀ y.

One loop runs over the chosen side's kernel, v -> A v for rows or
v -> Aᵀ v for columns, and returns only y and the min and max sums of
each step; a caller that wants the sum vectors passes ``on_step``, which
sees each one as it is computed and keeps what it needs.
:func:`algorithm_a` picks the side, runs it and builds the result around
y, normalized as the dominant eigenvector (of the transpose for columns).
The paper's Algorithm B is Algorithm A plus that scaling vector, so
:func:`algorithm_b` is the same function.  The stationary distribution of
:mod:`~perronkit.markov` runs the loop alone.

The loop runs its steps in blocks.  A power-of-two rescaling is exact and
commutes with every rounding while all values stay normal, so a block of
up to 128 steps applies the kernel to unscaled vectors, one row of an array
each, and reads all their sums with one division and two reductions.  The
block's minima and maxima then show where a value may have left the normal
range, unscaled or rescaled: the block is cut there, and keeps only the
steps before the cut.  The step guard, the stopping rule and the stall
rule are array operations over those steps: the block keeps the steps
before the first stop any of them finds, all at once.  So the sums and y
are bit for bit those of a loop that rescales at every step and tests
each step in turn.

On matrices whose dominant eigenvalue is not strictly dominant in modulus
(imprimitive matrices), the sums oscillate instead of converging.  When the
spread stops shrinking the loop runs the exact test
:func:`~perronkit.primitivity.is_primitive` once: an imprimitive matrix
stops as ``Status.STAGNATED``, while a primitive one that merely converges
slowly keeps iterating.  A run whose y or A y leaves the normal
floating-point range also stops as ``STAGNATED``, with the last accurate
step, on reducible and primitive input alike (ROADMAP item 17).

The one stopping rule is the paper's: the run has converged once the
balanced sums agree, that is once max r - min r is within the tolerance
or within one unit in the last place of max r, the rounding floor below
which no step can shrink the spread of a root far above 1.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, ZeroSumError
from .matcore import GerschgorinDisc, NonnegMatrix, Side, _entries, _kernel, rank_one_hadamard, sums
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


@dataclass(frozen=True, eq=False)
class ConvergenceHistory:
    """Minimum and maximum sums per iteration, entry 0 being the input's.

    ``rmin`` and ``rmax`` are float arrays of one length, the iterations
    plus one: the two rows of one array the solver's loop filled, cut to
    the entries it kept.  ``==`` is identity, as for every result record.
    """

    rmin: np.ndarray
    rmax: np.ndarray

    def __len__(self):
        return len(self.rmin)


@dataclass(frozen=True, eq=False)
class PerronResult:
    """Outcome of one balancing run.

    ``balanced`` is built on first access from the input and the final y,
    both kept by the result, and cached: a_ij y_j / y_i when row sums were
    balanced, a_ij y_i / y_j when column sums were.  It keeps the input's
    orientation, diagonal and zero pattern, so for column-side runs its
    column sums are the equalized ones.  ``eigenvector`` is y normalized to
    unit sum, computed on first access and cached likewise: the dominant
    eigenvector of the input for rows and of its transpose for columns.
    ``iterations`` and ``root``, the enclosure's midpoint, are derived, so
    they cannot disagree with the history and the enclosure.
    ``==`` is identity: results hold arrays, which do not compare to a bool.
    """

    root_lo: float
    root_hi: float
    side_used: Side
    status: Status
    history: ConvergenceHistory
    _A: NonnegMatrix = field(repr=False)
    _y: np.ndarray = field(repr=False)

    @property
    def root(self) -> float:
        return 0.5 * self.root_lo + 0.5 * self.root_hi  # lo + hi may overflow

    @property
    def iterations(self) -> int:
        return len(self.history) - 1

    @functools.cached_property
    def eigenvector(self) -> np.ndarray:
        return self._y / self._y.sum()

    @functools.cached_property
    def balanced(self) -> NonnegMatrix:
        y = self._y
        if self.side_used is Side.ROW:
            return rank_one_hadamard(self._A, np.reciprocal(y), y)
        return rank_one_hadamard(self._A, y, np.reciprocal(y))


# steps the spread gets to shrink before the exact primitivity test is run
_STAGNATION_WINDOW = 20
# a spread that keeps more than this share of itself over the window has stalled
_STAGNATION_FACTOR = 0.999


def _stalled(now, then, tolerance):
    """The stall rule per entry: the spread ``now`` is above the tolerance and
    keeps more than _STAGNATION_FACTOR of ``then``, the positive spread
    _STAGNATION_WINDOW entries earlier.  The rule's one definition, for
    :func:`_iterate` and :func:`~perronkit.baseline.power_method` alike.
    """
    return (now > tolerance) & (then > 0) & (now / then > _STAGNATION_FACTOR)


def convergence_discs(result: PerronResult) -> list[GerschgorinDisc]:
    """Discs of the balanced matrix in the orientation that was balanced.

    Disc i has center a_ii, which the balancing similarity keeps, and
    radius the balanced sum i minus a_ii.  The sums are the run's last
    quotients (A y) / y for rows or (Aᵀ y) / y for columns, the same bits
    ``on_step`` saw last; no balanced matrix is built.  At convergence
    every disc's rightmost point sits at the computed root.
    """
    A, y = result._A, result._y
    quotients = _kernel(A, result.side_used)(y) / y
    return [GerschgorinDisc(float(c), float(s - c)) for c, s in zip(A.diagonal(), quotients)]


# the ufunc reductions, without ndarray.min's Python wrapper
_min, _max = np.minimum.reduce, np.maximum.reduce

# a block runs at most this many steps, on at most this many multiply-adds
_BLOCK_STEPS = 128
_BLOCK_WORK = 2**17
# history entries the loop makes room for at first; it doubles the room when full
_HISTORY_START = 256
# least() min y at or above this keeps kernel terms normal, with room for rounding
_TERM_FLOOR = 2.0**-1018


def _ulp(x):
    """math.ulp of each nonnegative entry of x.  np.spacing alone is inf at
    the largest double; every double from 2^1023 up has the ulp of 2^1023.
    """
    return np.spacing(np.minimum(x, 2.0**1023))


def _converged(spread, hi, tolerance):
    """The stopping rule per entry: the spread of sums with maximum ``hi`` is
    within the tolerance or one ulp of ``hi``; an inf or nan spread never is.
    """
    return spread <= np.maximum(_ulp(hi), tolerance)


def _first(flags) -> int:
    """Index of the first true entry of flags, or len(flags) if there is none."""
    i = int(flags.argmax())
    return i if flags[i] else len(flags)


@dataclass(frozen=True)
class _Operator:
    """An operator K, as :func:`_iterate` reads it.

    ``apply(y, out=None)`` computes Kᵀ y, into ``out`` when one is given;
    K need not be stored as a matrix, and the loop calls it at every step
    but the first, whose image its caller hands it.  ``work`` is the
    multiply-adds of one ``apply`` call, and ``least()`` the least
    positive factor it multiplies an entry of y by; the loop calls it once, at its first block of more than one
    step, which needs 2**17 // work >= 2: never for a dense matrix above
    n = 256, or a damped dense chain above n = 255.
    ``primitive()`` answers whether K is primitive; the loop calls it at
    most once, when the spread stalls.  ``side`` only labels a
    ZeroSumError.
    """

    apply: Callable[..., np.ndarray]
    work: int
    least: Callable[[], float]
    primitive: Callable[[], bool]
    side: Side


def _operator(A: NonnegMatrix, side: Side = Side.COLUMN, loop: bool = False) -> _Operator:
    """A's kernel on ``side``: v -> vᵀA for columns, v -> A v for rows.

    ``loop``, true for a run allowed more than one step, picks
    :func:`~perronkit.matcore._kernel`'s loop kernel, on CSR a slot layout
    built here; a one-step run's one-shot kernel builds none.  A and Aᵀ
    are primitive together, so either side's exact test runs on A.
    ``least()`` gathers a dense A's nonzeros by np.nonzero: 1.6 MB at n = 256.
    """
    work = A.n * A.n if A.storage == "dense" else A.nnz  # the kernel's multiply-adds
    return _Operator(
        _kernel(A, side, loop), work,
        lambda: float(_entries(A)[2].min()), functools.partial(is_primitive, A), side,
    )


@np.errstate(all="ignore")  # the step guard reports non-finite values as STAGNATED
def _iterate(op: _Operator, w: np.ndarray, cfg: SolverConfig, on_step=None):
    """The one loop on ``op``: y <- Kᵀ y from y = 1, with the sums r = (Kᵀ y) / y.

    ``w`` is the first image Kᵀ 1, the input's sums, which the caller
    holds already; its length is the order of K.

    Returns (y, iterations, status, history).  The history's arrays are
    the kept part of one (2, capacity) array that the loop writes each
    block's kept minima and maxima into, doubling its capacity when full,
    up to one entry more than the iteration cap.
    ``on_step(t, r)``, when given, is called with the input's sums (t = 0)
    and then with the sums of each accepted step, so once per history
    entry; r belongs to the loop and must not be modified, and a later
    block overwrites it once the call returns, so a hook that keeps r
    keeps a copy.

    Each step rescales y by an exact power of two, w 2^-e with e the
    exponent of max w, so max y lies in [1/2, 1).  While every value stays
    normal that scaling commutes with every rounding, so the loop runs
    steps in blocks of k without rescaling.  The first 2k + 1 rows B of
    one array, allocated once per run for its longest block, hold y in
    row 0, its images Kᵀ y, Kᵀ Kᵀ y, ... in rows 1..k, which the kernel
    writes in place, and in rows k + 1..2k the k quotient rows
    B[j + 1] / B[j], formed by one division; two axis-1 reductions over
    all 2k + 1 rows then read every min and max.  ``apply`` runs every
    step but the first, whose image is ``w``.  The next block overwrites
    the array, so the kept y is copied out; the kept Kᵀ y is read only by that block's
    first write, the rescaled copy in row 0.

    Row j stands for the rescaled loop's y times 2^s_j, s_j the exponent of
    max B[j], up to the cut: the first step j >= 1 where least() times
    min B[j], unscaled or rescaled by 2^-s_j, is below 2^-1018, so a kernel
    term may be subnormal, or where max B[j + 1] is not finite.  Each sum
    is at least its least term, and a rescaled sum, from y <= 1, at most
    the input's; step 0 starts from the rescaled y and is the loop's own.
    The rows from the cut on are dropped unseen.  The step guard, the
    stopping rule and the stall rule then each give the first step before
    the cut where they stop, and the block keeps the steps up to the
    earliest stop, with the history, y and ``on_step`` taken from them at
    once.  The sums, history and final y are bit for bit those of a loop
    that rescales at every step and tests each step in turn.

    A block runs k = min(128, m + g, steps left, 2**17 // work) steps, at
    least one, m being the steps the last block kept (none before the
    first), and g one when the last block was not cut, else zero.  So a
    cut wastes at most one row, and a run cut at every block's first step
    alternates blocks of one and two steps instead of computing two rows
    for each it keeps.  A block's reductions and stop decisions cost about
    the same at any k, so a long uncut run pays them once per 128 steps.

    The step guard stops the run as STAGNATED, keeping the last accurate
    step, when y or Kᵀ y has an entry below the normal range or a quotient
    is not finite.  Every row j is tested alike: rescaling is exact, so
    min y and min Kᵀ y are min B[j] 2^-s and min B[j + 1] 2^-s, with s the
    exponent of max B[j], which is 0 for row 0 as it is rescaled already.
    NaN propagates through the reductions and r >= 0, so any NaN or inf
    among the quotients shows in max r and makes the spread non-finite.
    Row j's spread stalls against the one 20 entries before it, so the
    last 20 history spreads are joined to the block's; this test is skipped
    when no row before the first stop has an entry 20 back, and once
    ``primitive()`` has answered yes.  A row that both converges and
    stalls converges, and a row that converges or stalls is kept even when
    the next row fails the guard.
    """
    vecmat, y = op.apply, np.ones(len(w))  # y until a step is kept
    zero = np.flatnonzero(w == 0)
    if zero.size:
        raise ZeroSumError(int(zero[0]), side=op.side.value)

    tolerance, cap, window = cfg.tolerance, cfg.max_iterations, _STAGNATION_WINDOW
    # the history: row 0 the min and row 1 the max sum of each entry
    history = np.empty((2, min(cap + 1, _HISTORY_START)))
    lo0, wmax = float(_min(w)), float(_max(w))  # r = w on the first step
    history[:, 0] = lo0, wmax
    if on_step is not None:
        on_step(0, w)
    tiny = float(np.finfo(np.float64).tiny)
    budget = max(1, _BLOCK_WORK // op.work)
    # every block's rows are a prefix of one array, sized for the longest block
    blocks = np.empty((2 * min(_BLOCK_STEPS, cap, budget) + 1, len(y)))
    rows = list(blocks)
    least_term = None  # least(), once a block of k > 1 first runs
    verdict = None  # primitive(), once a stall is the first stop of a block
    y_exp = 0  # the last accepted y is y 2^-y_exp, rescaled on return

    t = m = 0
    grow = 1  # zero after a block that was cut
    status = Status.CONVERGED if _converged(wmax - lo0, wmax, tolerance) else None
    while status is None and t < cap:
        k = min(_BLOCK_STEPS, m + grow, cap - t, budget)
        # rows 0..k: y and its k images under Kᵀ; rows k+1..2k: their quotients
        B = blocks[: 2 * k + 1]
        np.ldexp(w, -math.frexp(wmax)[1], out=rows[0])
        for i in range(k):
            vecmat(rows[i], out=rows[i + 1])
        np.divide(B[1 : k + 1], B[:k], out=B[k + 1 :])
        mins, maxs = _min(B, 1), _max(B, 1)
        s = np.frexp(maxs[:k])[1]

        # the cut: a kernel term may leave the normal range, or a sum overflowed
        c = k
        if k > 1:
            least_term = op.least() if least_term is None else least_term
            low = least_term * np.ldexp(mins[1:k], -np.maximum(s[1:k], 0)) < _TERM_FLOOR
            c = 1 + _first(low | ~np.isfinite(maxs[2 : k + 1]))
        grow = int(c == k)
        lo, hi = mins[k + 1 : k + 1 + c], maxs[k + 1 : k + 1 + c]
        spread = hi - lo

        # below the normal range y and w lose precision, and the quotients
        # lose monotonicity or turn inf or nan; keep the last accurate step
        fails = ~((np.ldexp(np.minimum(mins[:c], mins[1 : c + 1]), -s[:c]) >= tiny) & np.isfinite(spread))
        # the first row that fails the guard, which drops it, or converges
        stop = _first(fails | _converged(spread, hi, tolerance))
        m, status = c, None
        if stop < c:
            m, status = (stop, Status.STAGNATED) if fails[stop] else (stop + 1, Status.CONVERGED)
        if verdict is None and t + stop >= window:  # a row before the stop has an entry window back
            # the last history spreads, then the block's; the rule's entry p
            # is row p + window - (the number of history spreads)
            last = history[:, max(0, t + 1 - window) : t + 1]
            spreads = np.concatenate((last[1] - last[0], spread))
            q = _first(_stalled(spreads[window:], spreads[:-window], tolerance)) + c + window - len(spreads)
            if q < stop:
                verdict = op.primitive()
                if not verdict:
                    m, status = q + 1, Status.STAGNATED

        if m:
            if t + 1 + m > history.shape[1]:  # doubling, from 256, makes room for 128 more
                grown = np.empty((2, min(2 * history.shape[1], cap + 1)))
                grown[:, : t + 1] = history[:, : t + 1]
                history = grown
            history[0, t + 1 : t + 1 + m] = lo[:m]
            history[1, t + 1 : t + 1 + m] = hi[:m]
            # the next block rewrites the array: y is kept as a copy, and w
            # only until that block's first write, which reads it into row 0
            y, y_exp = B[m - 1].copy(), int(s[m - 1])
            w, wmax = B[m], float(maxs[m])
            if on_step is not None:
                for j in range(m):
                    on_step(t + 1 + j, rows[k + 1 + j])
            t += m

    if status is None:
        status = Status.MAX_ITERATIONS
    if y_exp:  # a block's first row is rescaled already
        y = np.ldexp(y, -y_exp)
    return y, t, status, ConvergenceHistory(rmin=history[0, : t + 1], rmax=history[1, : t + 1])


def algorithm_a(A: NonnegMatrix, cfg: SolverConfig | None = None, *, on_step=None) -> PerronResult:
    """Balance the sums; returns the root enclosure and the eigenvector.

    Takes the sums of the configured side, or of both sides when
    ``cfg.side`` is None, and keeps the side whose sums have the smaller
    range max - min, ties going to rows; those sums are the loop's first
    image, so no kernel runs twice on the all-ones vector.  Each step is
    equivalent to multiplying entry (i, j) of the working matrix by
    r_j / r_i, where r is the current sum vector on the chosen side; see
    the module docstring for how the solver computes it.  The balanced matrix is built from the
    final y only when the result's ``balanced`` is read.  On convergence y
    spans the dominant eigenvector: M y = root * y within 10x tolerance,
    where M is the matrix in the balanced orientation.

    ``on_step(t, r)``, when given, receives the balanced sums r after t
    steps, for t = 0 up to the returned iteration count.  r belongs to the
    solver: read it or copy it, but do not modify it.  The solver
    overwrites r once the call returns, so keep a copy, not r itself.
    """
    cfg = cfg or SolverConfig()
    first = {s: sums(A, s) for s in ([cfg.side] if cfg.side else Side)}
    side = min(first, key=lambda s: np.ptp(first[s]))  # ties go to Side.ROW, the first
    y, _, status, history = _iterate(_operator(A, side, cfg.max_iterations > 1), first[side], cfg, on_step)
    return PerronResult(
        root_lo=float(history.rmin[-1]),
        root_hi=float(history.rmax[-1]),
        side_used=side,
        status=status,
        history=history,
        _A=A,
        _y=y,
    )

algorithm_b = algorithm_a
