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

Slow input ends in a squaring phase.  With D = diag(y), the balanced
matrix B = D^{-1} A D has B^(2^k) 1 = D^{-1} A^(2^k) y, so k squarings of
B do the work of 2^k steps, and products of nonnegative matrices round
with a small relative error in each entry (Higham, Accuracy and Stability
of Numerical Algorithms, 2nd ed., section 3.5).  Once the spread's
contraction over the last 20 steps projects more than 2^15 steps to go,
and those steps would cost more than the squarings that stand for them,
a primitive matrix builds B from y, stores it dense, and squares it in
BLAS products of blocks that each run on one thread, rescaled by a power
of two before each product; each round sets y <- y ∘ z, with z the sums
of B^(2^k) on the balanced side.  The quotients (A y) / y of A's own
kernel certify a round: it is kept, as a block of one step and one
iteration, only while y stays positive and normal and its interval is
narrower than the last one and inside it, up to four ulp of rounding at
each end.  The first round that is not sends the run back to plain steps
for good.
``tridiagonal(200, 1, 3, 2)`` takes 292 iterations this way, 275 steps
and 17 rounds, instead of 76 599 steps.

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
from .matcore import (
    GerschgorinDisc, NonnegMatrix, Side, _dense_sums, _entries, _kernel, _square, rank_one_hadamard, sums,
)
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
        return _balanced(self._A, self.side_used, self._y)


def _balanced(A: NonnegMatrix, side: Side, y) -> NonnegMatrix:
    """The paper's balanced matrix for y: D⁻¹ A D for rows and D A D⁻¹ for
    columns, D = diag(y), with A's orientation, diagonal and zero pattern."""
    if side is Side.ROW:
        return rank_one_hadamard(A, np.reciprocal(y), y)
    return rank_one_hadamard(A, y, np.reciprocal(y))


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


def _room(history, entries, cap):
    """history, or a copy with twice its capacity, up to cap + 1 entries,
    when it holds fewer than ``entries``; doubling, from 256, makes room
    for a block of 128 more."""
    if entries <= history.shape[1]:
        return history
    grown = np.empty((2, min(2 * history.shape[1], cap + 1)))
    grown[:, : history.shape[1]] = history
    return grown


def _nonzero(w, side: Side):
    """The sums w on ``side``; raises ZeroSumError at the first zero."""
    zero = np.flatnonzero(w == 0)
    if zero.size:
        raise ZeroSumError(int(zero[0]), side=side.value)
    return w


def _first(flags) -> int:
    """Index of the first true entry of flags, or len(flags) if there is none."""
    i = int(flags.argmax())
    return i if flags[i] else len(flags)


# squaring starts only when more than this many steps are projected to remain
_SQUARE_STEPS = 2**15
# a step is priced at this many multiply-adds of a squaring on either
# storage; the price stays fixed, so that the same runs square at the same
# step, until the rule is re-priced (ROADMAP item 24)
_STEP_COST = 2**14
# a squaring round's quotients may leave the last interval by this many ulp
# at each end: they are rounded, and the power loop's own maximum sum rises
# by one ulp at times (tridiagonal(200, 1, 3, 2) from step 55 on)
_NEST_ULPS = 4


@np.errstate(divide="ignore", invalid="ignore")  # a flat window's rate is 0, and its P too
def _squares(now, then, hi, left, tolerance, cube):
    """The squaring rule per entry, on the spread ``now`` and the one
    _STAGNATION_WINDOW entries back, ``then``, with ``hi`` the max sum and
    ``left`` the steps to the cap.  The spread's contraction over the window
    projects P steps to a spread within the tolerance or one ulp of ``hi``,
    capped at ``left``; a window that does not contract projects none, and
    is left to the stall rule.  The rule holds where P > _SQUARE_STEPS and
    P steps, at _STEP_COST each, cost more than the ⌈log₂ P⌉ squarings that
    stand for them, at ``cube`` = n³ each.  It reads neither the storage
    nor the kernel's work, so dense and CSR storage square alike.
    """
    rate = np.log(now / then)  # negative while the spread contracts
    steps = _STAGNATION_WINDOW * np.log(np.maximum(_ulp(hi), tolerance) / now) / rate
    p = np.where(rate < 0, np.minimum(steps, left), 0)
    return (p > _SQUARE_STEPS) & (p * _STEP_COST > np.ceil(np.log2(p)) * cube)


def _rounds(op, y, lo, hi, out):
    """The squaring phase from y, whose quotients span [lo, hi].

    Builds the balanced matrix B = ``op.balanced(y)`` once, and one more
    (n, n) buffer; round j rescales the last square by a power of two, so
    that its largest entry lies in [1/2, 1), and squares it into the other
    buffer: B^(2^j) up to scale.  z is its row sums for rows, its column
    sums for columns, and y ∘ z is (Kᵀ)^(2^j) y up to scale: rescaled like
    y, it is the round's vector v, and K's own kernel gives Kᵀ v.  A round
    whose v and Kᵀ v are positive and normal, and whose quotients
    (Kᵀ v) / v span an interval narrower than the last round's and inside
    it, up to _NEST_ULPS at each end, is certified: it writes v and Kᵀ v
    into ``out``, the loop's block rows 0 and 1, and yields 1, its block's
    steps.  The first round that is not, or a B that cannot be built, ends
    the phase with nothing written.  y is copied: the loop rewrites its own.
    """
    try:
        M = op.balanced(y)
    except DomainError:  # an entry or a sum of B overflows
        return
    y, N, tiny = y.copy(), np.empty_like(M), float(np.finfo(np.float64).tiny)
    while True:
        np.ldexp(M, -math.frexp(float(M.max()))[1], out=M)
        M, N = _square(M, N), M
        v = y * _dense_sums(M, op.side)
        np.ldexp(v, -math.frexp(float(_max(v)))[1], out=v)
        w = op.apply(v)
        r = w / v
        r_lo, r_hi = float(_min(r)), float(_max(r))
        inside = lo - _NEST_ULPS * math.ulp(lo) <= r_lo and r_hi <= hi + _NEST_ULPS * math.ulp(hi)
        if not (_min(v) >= tiny and _min(w) >= tiny and inside and r_hi - r_lo < hi - lo):
            return
        out[0], out[1] = v, w
        yield 1
        lo, hi = r_lo, r_hi


@dataclass(frozen=True)
class _Operator:
    """An operator K, as :func:`_iterate` reads it.

    ``apply(y, out=None)`` computes Kᵀ y, into ``out`` when one is given;
    K need not be stored as a matrix, and the loop calls it at every step
    but the first, whose image its caller hands it.  ``work`` is the
    multiply-adds of one ``apply`` call, and ``least()`` the least
    positive factor it multiplies an entry of y by; the loop calls it
    once, at its first block of more than one step, which needs
    2**17 // work >= 2: never for a dense matrix above n = 256, or a
    damped dense chain above n = 255.
    ``primitive()`` answers whether K is primitive; the loop calls it at
    most once, when the spread first stalls or squaring would start.  ``side``
    labels a ZeroSumError and picks the sums of a squared matrix.
    ``balanced(y)``, K's dense form, is the paper's balanced matrix of K
    for y as a fresh (n, n) array, whose sums on ``side`` are the
    quotients (Kᵀ y) / y; the loop calls it at most once, when it starts
    squaring.  None, for an operator that is not a stored matrix, means
    the loop never squares.
    """

    apply: Callable[..., np.ndarray]
    work: int
    least: Callable[[], float]
    primitive: Callable[[], bool]
    side: Side
    balanced: Callable[[np.ndarray], np.ndarray] | None = None


def _operator(A: NonnegMatrix, side: Side = Side.COLUMN, loop: bool = False) -> _Operator:
    """A's kernel on ``side``: v -> vᵀA for columns, v -> A v for rows.

    ``loop``, true for a run allowed more than one step, picks
    :func:`~perronkit.matcore._kernel`'s loop kernel, on CSR a slot layout
    built here; a one-step run's one-shot kernel builds none.  A and Aᵀ
    are primitive together, so either side's exact test runs on A.
    ``least()`` gathers a dense A's nonzeros by np.nonzero: 1.6 MB at n = 256.
    ``balanced(y)`` is :attr:`PerronResult.balanced`'s matrix for y, stored dense.
    """
    work = A.n * A.n if A.storage == "dense" else A.nnz  # the kernel's multiply-adds
    return _Operator(
        _kernel(A, side, loop), work,
        lambda: float(_entries(A)[2].min()), functools.partial(is_primitive, A), side,
        lambda y: _balanced(A, side, y).to_dense(),
    )


@np.errstate(all="ignore")  # the step guard reports non-finite values as STAGNATED
def _iterate(op: _Operator, w: np.ndarray, cfg: SolverConfig, on_step=None):
    """The one loop on ``op``: y <- Kᵀ y from y = 1, with the sums r = (Kᵀ y) / y.

    ``w`` is the first image Kᵀ 1, the input's sums, which the caller
    holds already; its length is the order of K.

    Returns (y, iterations, status, history).  The history's arrays are
    the kept part of one (2, capacity) array that the loop writes the
    kept minima and maxima of each block into, doubling its capacity when
    full, up to one entry more than the iteration cap.
    ``on_step(t, r)``, when given, is called with the input's sums (t = 0)
    and then with the sums of each accepted step or squaring round, so
    once per history entry; r belongs to the loop and must not be modified, and a later
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
    the array, so the kept y, rescaled, is written into a buffer of its
    own; the kept Kᵀ y is read only by that block's first write, the
    rescaled copy in row 0.

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
    last 20 history spreads are joined to the block's.  The event rule
    runs on those spreads when a row before the first stop has an entry 20
    back: its events are the rows where the spread stalls, until
    ``primitive()`` has answered yes, or where :func:`_squares` holds,
    while K has a dense form and has not squared.  At the first event
    before the stop ``primitive()`` answers, once a run, and the answer
    picks the rule that counts: a K that is not primitive stops STAGNATED
    at its first stall, and a primitive K squares from its first squaring
    row.  A row that both converges and stalls converges, and a row that
    converges or stalls is kept even when the next row fails the guard.

    The squaring phase, :func:`_rounds`, starts once a run from the y kept
    up to its row.  Each round it certifies is written into rows 0 and 1
    and kept as a block of one step, by the same division, guard, stopping
    rule and keep, so it is one iteration with one history entry and one
    ``on_step`` call.  Rows are written only for a certified round, so
    after a refused one, or a B that cannot be built, the loop goes on in
    blocks from the last kept y and w.  The squaring rule reads only the
    history and the order, so dense and CSR storage of one matrix square
    at the same step, and under the default cap no matrix of order above
    458 squares: 10**5 steps cost 17 n³ multiply-adds there.
    """
    vecmat, y = op.apply, np.ones(len(w))  # each kept block rewrites y in place
    _nonzero(w, op.side)

    tolerance, cap, window = cfg.tolerance, cfg.max_iterations, _STAGNATION_WINDOW
    squares = op.balanced is not None  # until the phase has run or K is not primitive
    cube = float(len(w)) ** 3
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
    verdict = None  # primitive(), once the event rule first fires

    t = m = 0
    grow = 1  # zero after a block that was cut
    rounds = iter(())  # the squaring phase, once it has started
    status = Status.CONVERGED if _converged(wmax - lo0, wmax, tolerance) else None
    while status is None and t < cap:
        # a certified squaring round is a block of one step, already in rows 0 and 1
        k = next(rounds, 0)
        if not k:
            k = min(_BLOCK_STEPS, m + grow, cap - t, budget)
            np.ldexp(w, -math.frexp(wmax)[1], out=rows[0])
            for i in range(k):
                vecmat(rows[i], out=rows[i + 1])
        # rows 0..k: y and its k images under Kᵀ; rows k+1..2k: their quotients
        B = blocks[: 2 * k + 1]
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
        event = c  # the row the event rule stops at, if it is before the stop
        if (verdict is not True or squares) and t + stop >= window:  # a row before the stop has an entry window back
            # the last history spreads, then the block's; the rules' entry p
            # is row p + first, first = c - (the number of entries)
            last = history[:, max(0, t + 1 - window) : t + 1]
            spreads = np.concatenate((last[1] - last[0], spread))
            now, then = spreads[window:], spreads[:-window]
            first = c - len(now)
            stall = first + _first(_stalled(now, then, tolerance)) if verdict is not True else c
            left = float(cap - t - 1) - np.arange(first, c)  # a float: a cap may pass int64
            square = first + _first(_squares(now, then, hi[first:], left, tolerance, cube)) if squares else c
            if min(stall, square) < stop:  # the answer picks the rule that counts
                verdict = op.primitive() if verdict is None else verdict
                squares = squares and verdict
                event = square if verdict else stall
                if event < stop:
                    m, status = event + 1, None if verdict else Status.STAGNATED

        if m:
            history = _room(history, t + 1 + m, cap)
            history[0, t + 1 : t + 1 + m] = lo[:m]
            history[1, t + 1 : t + 1 + m] = hi[:m]
            # the next block rewrites the array: y is kept, rescaled, in its own
            # buffer, and w only until that block's first write, into row 0
            np.ldexp(B[m - 1], -s[m - 1], out=y)
            w, wmax = B[m], float(maxs[m])
            if on_step is not None:
                for j in range(m):
                    on_step(t + 1 + j, rows[k + 1 + j])
            t += m
        if squares and event < stop:  # one squaring phase a run, from the y just kept
            squares, rounds = False, _rounds(op, y, history[0, t], history[1, t], blocks[:2])

    if status is None:
        status = Status.MAX_ITERATIONS
    return y, t, status, ConvergenceHistory(rmin=history[0, : t + 1], rmax=history[1, : t + 1])


def algorithm_a(A: NonnegMatrix, cfg: SolverConfig | None = None, *, on_step=None) -> PerronResult:
    """Balance the sums; returns the root enclosure and the eigenvector.

    Takes the sums of the configured side, or of both sides when
    ``cfg.side`` is None, and keeps the side whose sums have the smaller
    range max - min, ties going to rows; those sums are the loop's first
    image, so no kernel runs twice on the all-ones vector.  A zero among
    the sums it takes raises ZeroSumError, rows first: with ``cfg.side``
    None a zero row or column is refused whichever side would win.  Each step is
    equivalent to multiplying entry (i, j) of the working matrix by
    r_j / r_i, where r is the current sum vector on the chosen side; see
    the module docstring for how the solver computes it.  The balanced matrix is built from the
    final y only when the result's ``balanced`` is read.  On convergence y
    spans the dominant eigenvector: M y = root * y within 10x tolerance,
    where M is the matrix in the balanced orientation.

    ``on_step(t, r)``, when given, receives the balanced sums r after t
    iterations, for t = 0 up to the returned iteration count; an iteration
    is a step, or a round of the squaring phase of slow runs.  r belongs to the
    solver: read it or copy it, but do not modify it.  The solver
    overwrites r once the call returns, so keep a copy, not r itself.
    """
    cfg = cfg or SolverConfig()
    first = {s: _nonzero(sums(A, s), s) for s in ([cfg.side] if cfg.side else Side)}
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
