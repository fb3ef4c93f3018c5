"""Randomised properties of the balancing solver over hostile inputs."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perronkit import PerronError, Side, SolverConfig, Status, algorithm_a, algorithm_b, from_dense


@st.composite
def hostile_matrices(draw):
    """Order 1..6, any zero pattern (reducible ones included), entries in {0} ∪ 10^[-30, 30]."""
    n = draw(st.integers(1, 6))
    exponents = draw(st.lists(st.one_of(st.none(), st.floats(-30.0, 30.0)), min_size=n * n, max_size=n * n))
    entries = [0.0 if e is None else 10.0**e for e in exponents]
    return from_dense(np.array(entries).reshape(n, n))


@settings(max_examples=200, deadline=None)
@given(
    A=hostile_matrices(),
    solve=st.sampled_from([algorithm_a, algorithm_b]),
    side=st.sampled_from([None, Side.ROW, Side.COLUMN]),
)
# A y underflows into the subnormal range while y itself stays normal
@example(A=from_dense([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1e-15]]), solve=algorithm_a, side=Side.COLUMN)
# y_0 falls to about 1e-307, so a_01 / y_0 overflows although a_01 y_1 / y_0 = 100
@example(
    A=from_dense([[0.0, 100.0, 0.0, 0.0], [0.0, 100.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1e11], [0.0, 0.0, 1.0, 1e4]]),
    solve=algorithm_a,
    side=None,
)
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
