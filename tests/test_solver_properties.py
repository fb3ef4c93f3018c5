"""Randomised properties of the balancing solver over hostile inputs."""

import functools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PERIODIC3_ROWS
from oracles import reference_iterate, reference_loop, transposed, tridiagonal_root
from perronkit import (
    PerronError,
    Side,
    SolverConfig,
    Status,
    ZeroSumError,
    algorithm_a,
    algorithm_b,
    from_coordinates,
    from_dense,
    rank_one_hadamard,
    sums,
    tridiagonal,
)
from perronkit.matcore import _kernel
from perronkit.primitivity import is_primitive
from perronkit.solver import _iterate, _operator, _Operator


@st.composite
def hostile_matrices(draw):
    """Order 1..6, any zero pattern (reducible ones included), entries in {0} ∪ 10^[-30, 30]."""
    n = draw(st.integers(1, 6))
    exponents = draw(st.lists(st.one_of(st.none(), st.floats(-30.0, 30.0)), min_size=n * n, max_size=n * n))
    entries = [0.0 if e is None else 10.0**e for e in exponents]
    return from_dense(np.array(entries).reshape(n, n))


# A y underflows into the subnormal range while y itself stays normal (column side)
SUBNORMAL_AY = from_dense([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1e-15]])
# y_0 falls to about 1e-307, so a_01 / y_0 overflows although a_01 y_1 / y_0 = 100
# (the automatic side picks rows)
TINY_Y = from_dense([[0.0, 100.0, 0.0, 0.0], [0.0, 100.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1e11], [0.0, 0.0, 1.0, 1e4]])
# on the row side the quotients of the cycle 0 <-> 1 alternate between 1e290 and
# the largest double; at step 3 (A y)_0 / y_0 rounds past it to inf while y
# and A y stay normal, so only the finiteness half of the step guard stops it
QUOTIENT_OVERFLOW = from_dense([[0.0, 1e290, 0.0], [np.finfo(np.float64).max, 0.0, 0.0], [0.0, 1e304, 1e307]])
# on the row side y_0 / y_3 falls to about 1e-303, so b_30 = 1e-21 y_0 / y_3 is
# about 1e-324, below half the least subnormal, and rounds to zero
BALANCED_UNDERFLOW = from_dense([[0.0, 0.0, 10**1.5, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0], [1e-21, 0.0, 0.0, 1e21]])

# on the column side the quotients of step 1, (1e-9, 0), agree within the
# tolerance while (Aᵀ y)_1 underflows to zero: the step guard, tested first, wins
GUARD_BEFORE_CONVERGENCE = from_dense([[1e-9, 0.0], [1.0, 1e-290]])


def _with_corner(A, value):
    """CSR copy of A with a_00 set to value."""
    arr = A.to_dense()
    arr[0, 0] = value
    rows, cols = np.nonzero(arr)
    return from_coordinates(A.n, rows, cols, arr[rows, cols])


# on its columns the least entry, 1e-300, puts kernel terms near the bottom
# of the normal range, so the cut drops a row in many blocks (a 300-step
# run computes 351 steps)
ALL_REFUSED = _with_corner(tridiagonal(200, 1, 3, 2), 1e-300)
# tridiag(50, 1, 3, 2) scaled: on its columns an unscaled row overflows at
# step 3 (1e100) or 1 (1e250) of a block, so the cut fires at every block
# from the fourth (1e100) or the second (1e250) on
HUGE_TRIDIAG = [tridiagonal(50, f, 3 * f, 2 * f) for f in (1e100, 1e250)]
# on its columns y_2 / y_0 shrinks by 2^-70 a step while max y grows by
# 2^50; at t = 14, in the block 11..15, the term a_21 y_2 is below the
# normal range rescaled but normal unscaled, where the rescaled loop rounds
# (Aᵀ y)_1 to another double: only the cut's rescaled side drops that row
RESCALED_SUBNORMAL_TERM = from_dense([[2.0**50, 0.0, 0.0], [0.0, 2.0**-25, 0.0], [0.0, 2.0**-40 * (1 + 2.0**-52), 2.0**-20]])


@settings(max_examples=200, deadline=None)
@given(
    A=hostile_matrices(),
    solve=st.sampled_from([algorithm_a, algorithm_b]),
    side=st.sampled_from([None, Side.ROW, Side.COLUMN]),
)
@example(A=SUBNORMAL_AY, solve=algorithm_a, side=Side.COLUMN)
@example(A=TINY_Y, solve=algorithm_a, side=None)
def test_results_are_finite_and_enclosure_is_monotone(A, solve, side):
    cfg = SolverConfig(side=side, max_iterations=500)
    try:
        res = solve(A, cfg)
    except PerronError:
        return
    assert np.all(np.isfinite([res.root_lo, res.root_hi, res.root]))
    assert np.all(np.isfinite(res.history.rmin)) and np.all(np.isfinite(res.history.rmax))
    assert np.all(np.isfinite(res.balanced.to_dense()))
    assert np.all(np.isfinite(res.eigenvector))
    rmin, rmax = res.history.rmin, res.history.rmax
    assert np.all(rmin[1:] >= rmin[:-1] * (1 - 1e-12))
    assert np.all(rmax[1:] <= rmax[:-1] * (1 + 1e-12))
    if res.status is Status.CONVERGED:
        assert res.root_hi - res.root_lo <= max(cfg.tolerance, math.ulp(res.root_hi))


@settings(max_examples=200, deadline=None)
@given(A=hostile_matrices(), side=st.sampled_from([Side.ROW, Side.COLUMN]))
@example(A=SUBNORMAL_AY, side=Side.COLUMN)
@example(A=TINY_Y, side=Side.ROW)
@example(A=QUOTIENT_OVERFLOW, side=Side.ROW)
@example(A=from_dense(PERIODIC3_ROWS), side=Side.ROW)  # stalls at t = 21, the last step of the block 16..21
@example(A=GUARD_BEFORE_CONVERGENCE, side=Side.COLUMN)
def test_loop_matches_reference_loop(A, side):
    # the solver runs blocks of up to 64 steps, keeps those before the cut,
    # carries the maximum of w from step to step and decides each block's
    # guard, stop and stall with array operations over its rows; the
    # reference recomputes each every step and tests the steps in turn; the
    # solver runs A's row kernel, the reference the column kernel of Aᵀ
    cfg = SolverConfig(max_iterations=500)
    K = transposed(A) if side is Side.ROW else A
    asked = CountedThunk(functools.partial(is_primitive, K))
    expected = reference_iterate(K, cfg, asked)
    if expected is None:
        with pytest.raises(ZeroSumError):
            blocked_iterate(A, cfg, side)
        return
    assert_same_run(blocked_iterate(A, cfg, side), expected, asked.calls)


def test_stall_past_the_stop_in_one_block_is_not_asked():
    # an order-2 operator that doubles y_0 / y_1 exactly at every step, so
    # that ratio, 2^t, names the step at any power-of-two scale of y; its
    # sums at step t are (2 q_t, q_t), spread q_t.  The spread falls 5 % a
    # step, drops within the tolerance at t = 40 and returns at t = 41 to
    # its value at t = 21: a stall, one row past the stop in the block 37..45
    q = [0.95**t for t in range(40)] + [0.1, 0.95**21] + [1.0] * 30

    def vecmat(v, out=None):
        q_t = q[math.frexp(v[0] / v[1])[1] - 1]
        out = np.empty(2) if out is None else out
        out[:] = v[0] * (2 * q_t), v[1] * q_t
        return out

    cfg = SolverConfig(tolerance=0.12)
    asked = CountedThunk(lambda: False)
    y_ref, t_ref, status_ref, *_ = reference_loop(vecmat, 2, asked, cfg)
    assert (t_ref, status_ref, asked.calls) == (40, Status.CONVERGED, 0)
    y, t, status, _ = _iterate(_Operator(vecmat, 2, lambda: min(q), asked, Side.COLUMN), vecmat(np.ones(2)), cfg)
    assert (t, status, asked.calls) == (40, Status.CONVERGED, 0)
    assert y.tobytes() == y_ref.tobytes()


class CountedThunk:
    """A thunk that counts its calls."""

    def __init__(self, thunk):
        self.thunk, self.calls = thunk, 0

    def __call__(self):
        self.calls += 1
        return self.thunk()


def blocked_iterate(A, cfg, side=Side.COLUMN):
    """The loop on A's ``side`` with the operator and sums algorithm_b passes.

    Returns the loop's (y, iterations, status, history), the (t, r.tobytes())
    of its ``on_step`` calls and the number of ``primitive()`` calls.
    """
    steps = []
    op = _operator(A, side)
    asked = CountedThunk(op.primitive)
    run = _iterate(replace(op, primitive=asked), sums(A, side), cfg, lambda t, r: steps.append((t, r.tobytes())))
    return (*run, steps, asked.calls)


def assert_same_run(got, expected, primitive_calls):
    """The same run, ``on_step`` calls included, and primitive() asked as
    often as by the reference loop, which asks only when it stalls."""
    y, t, status, history, steps, asked = got
    y_ref, t_ref, status_ref, rmin_ref, rmax_ref, steps_ref = expected
    assert (t, status) == (t_ref, status_ref)
    assert y.tobytes() == y_ref.tobytes()
    assert history.rmin.tobytes() == rmin_ref.tobytes()
    assert history.rmax.tobytes() == rmax_ref.tobytes()
    assert steps == steps_ref
    assert asked == primitive_calls <= 1


@st.composite
def tridiagonal_bands(draw):
    """Order 5..120, each band 10^s times factors in [1, 4), s in [-3, 3] or [-300, 300].

    Bands near 1 run blocks of 64 steps; bands far from 1, or far apart,
    make the cut shorten blocks down to single steps, and may take y out of
    the normal range.  The diagonal may be zero (period 2).
    """
    n = draw(st.integers(5, 120))
    entries = []
    for offset in (-1, 0, 1):
        if offset == 0 and draw(st.booleans()):
            continue
        scale = 10.0 ** draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-300.0, 300.0)))
        factors = draw(st.lists(st.floats(1.0, 4.0, exclude_max=True), min_size=n - abs(offset), max_size=n - abs(offset)))
        i = np.arange(max(0, -offset), n - max(0, offset))
        entries.append((i, i + offset, scale * np.array(factors)))
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*entries))
    return from_coordinates(n, rows, cols, vals)


@settings(max_examples=30, deadline=None)
@given(A=tridiagonal_bands(), cap=st.integers(1, 4000))
@example(A=ALL_REFUSED, cap=300)
@example(A=ALL_REFUSED, cap=1)
@example(A=HUGE_TRIDIAG[0], cap=300)
@example(A=HUGE_TRIDIAG[1], cap=300)
@example(A=RESCALED_SUBNORMAL_TERM, cap=100)
def test_blocked_loop_matches_reference_on_long_runs(A, cap):
    cfg = SolverConfig(max_iterations=cap)
    asked = CountedThunk(functools.partial(is_primitive, A))
    expected = reference_iterate(A, cfg, asked)
    assert_same_run(blocked_iterate(A, cfg), expected, asked.calls)
    assert_same_run(blocked_iterate(from_dense(A.to_dense()), cfg), expected, asked.calls)


@settings(max_examples=200, deadline=None)
@given(
    A=hostile_matrices(),
    solve=st.sampled_from([algorithm_a, algorithm_b]),
    side=st.sampled_from([Side.ROW, Side.COLUMN]),
)
@example(A=TINY_Y, solve=algorithm_a, side=Side.ROW)
@example(A=BALANCED_UNDERFLOW, solve=algorithm_a, side=Side.ROW)
def test_lazy_balanced_is_the_rank_one_product_of_the_final_y(A, solve, side):
    # y from the loop alone, so the check does not read the result's own y
    cfg = SolverConfig(side=side, max_iterations=500)
    try:
        y = blocked_iterate(A, cfg, side)[0]
    except ZeroSumError:
        return
    x = np.reciprocal(y)
    expected = rank_one_hadamard(A, x, y) if side is Side.ROW else rank_one_hadamard(A, y, x)

    res = solve(A, cfg)
    balanced = res.balanced
    assert balanced is res.balanced  # built once, then cached
    assert balanced.storage == "dense"
    assert balanced.to_dense().tobytes() == expected.to_dense().tobytes()
    arr, bal = A.to_dense(), balanced.to_dense()
    assert np.diagonal(bal).tobytes() == np.diagonal(arr).tobytes()
    # no zero of A becomes nonzero; a nonzero a_ij becomes zero only where the
    # exact a_ij x_i y_j of its float factors lies below the least subnormal
    assert not np.any(bal[arr == 0])
    left, right = (x, y) if side is Side.ROW else (y, x)
    for i, j in zip(*np.nonzero((bal == 0) & (arr != 0))):
        assert Fraction(arr[i, j]) * Fraction(left[i]) * Fraction(right[j]) < Fraction(2) ** -1074

    i, j = np.nonzero(arr)
    csr = solve(from_coordinates(A.n, i, j, arr[i, j]), cfg).balanced
    assert csr.storage == "csr"
    assert csr.to_dense().tobytes() == bal.tobytes()


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(120, 300),
    c=st.floats(0.8, 1.2),
    a=st.floats(2.5, 3.5),
    b=st.floats(1.6, 2.4),
)
def test_slow_tridiagonals_square_to_their_closed_form_root(n, c, a, b):
    # the benchmark's box: power steps alone would take 27 000 to over
    # 100 000; the closed form and the quotients are rounded, so the root
    # and each entry's move are checked to 4 ulp
    root, ulps = tridiagonal_root(n, c, a, b), 4
    T = tridiagonal(n, c, a, b)
    runs = []
    for A in (T, from_dense(T.to_dense())):
        res = algorithm_a(A)
        assert res.status is Status.CONVERGED and res.iterations < 2_000
        assert res.root_lo - ulps * math.ulp(root) <= root <= res.root_hi + ulps * math.ulp(root)
        rmin, rmax = res.history.rmin, res.history.rmax
        assert np.all(rmin[1:] >= rmin[:-1] - ulps * np.spacing(rmin[:-1]))
        assert np.all(rmax[1:] <= rmax[:-1] + ulps * np.spacing(rmax[:-1]))
        q = _kernel(A, res.side_used)(res._y) / res._y
        assert (rmin[-1], rmax[-1]) == (q.min(), q.max())
        balanced = res.balanced.to_dense()
        assert np.array_equal(balanced != 0, T.to_dense() != 0)
        runs.append((rmin.tobytes(), rmax.tobytes(), res.eigenvector.tobytes(), balanced.tobytes()))
    assert runs[0] == runs[1]
