"""Randomised properties of the balancing solver over hostile inputs."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_iterate
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
)
from perronkit.matcore import _vecmat
from perronkit.primitivity import is_primitive
from perronkit.solver import _iterate


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
    if res.eigenvector is not None:
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
def test_loop_matches_reference_loop(A, side):
    # the solver's step carries the extremes of w from step to step and
    # reads every guard off four reductions; the reference recomputes each
    cfg = SolverConfig(max_iterations=500)
    K = A.transpose() if side is Side.ROW else A
    expected = reference_iterate(K, cfg)
    loop = functools.partial(
        _iterate, functools.partial(_vecmat, K), K.n, functools.partial(is_primitive, K), side, cfg
    )
    if expected is None:
        with pytest.raises(ZeroSumError):
            loop()
        return
    y, t, status, history = loop()
    y_ref, t_ref, status_ref, rmin_ref, rmax_ref = expected
    assert (t, status) == (t_ref, status_ref)
    assert y.tobytes() == y_ref.tobytes()
    assert history.rmin.tobytes() == rmin_ref.tobytes()
    assert history.rmax.tobytes() == rmax_ref.tobytes()


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
    K = A.transpose() if side is Side.ROW else A
    try:
        y = _iterate(functools.partial(_vecmat, K), K.n, functools.partial(is_primitive, K), side, cfg)[0]
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
