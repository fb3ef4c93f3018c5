"""Randomised properties of implicit damping over random sparse chains."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import damped_dense, damped_vecmat, reference_loop, stationary_linear_solve
from perronkit import (
    Side,
    SolverConfig,
    Status,
    StochasticMatrix,
    damp,
    from_coordinates,
    from_dense,
    make_stochastic,
    stationary,
    sums,
)
from perronkit import markov, solver

EPS = np.finfo(np.float64).eps


@st.composite
def sparse_chains(draw):
    """Order 1..8, CSR, each row a nonempty random set of columns with weights in [0.01, 1]."""
    n = draw(st.integers(1, 8))
    rows, cols = [], []
    for i in range(n):
        js = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        rows += [i] * len(js)
        cols += js
    vals = draw(st.lists(st.floats(0.01, 1.0), min_size=len(rows), max_size=len(rows)))
    return make_stochastic(from_coordinates(n, rows, cols, vals))


# the damped matrix's run stops one step after the implicit one here (26 and 27)
ONE_STEP_APART = make_stochastic(from_coordinates(
    4,
    [0, 0, 1, 1, 1, 1, 2, 3, 3, 3],
    [2, 3, 0, 1, 2, 3, 1, 0, 1, 3],
    [0.4483817791739648, 0.846936406136009, 0.6281134492220483, 0.42569602032938453,
     0.10275355105556154, 0.5977537946019176, 0.6578181043108186, 0.057658111684042515,
     0.44352594331098383, 0.1678717679688129],
))


@settings(max_examples=150, deadline=None)
@given(P=sparse_chains(), alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(P=ONE_STEP_APART, alpha=0.6566934563136971)
def test_implicit_damping_matches_the_dense_damped_chain(P, alpha):
    cfg = SolverConfig(tolerance=1e-12, max_iterations=3000)
    damped = damp(P, alpha)
    dist = stationary(damped, cfg)

    # dense and CSR storage of P run the same operator on the same numbers
    dense_P = StochasticMatrix(from_dense(P.matrix.to_dense()))
    other = stationary(damp(dense_P, alpha), cfg)
    assert dist.u.tobytes() == other.u.tobytes()
    assert (dist.iterations, dist.status) == (other.iterations, other.status)

    # the loop on the n×n damped matrix differs only in the order of its adds:
    # each loop rounds by about n*eps a step, amplified by at most 1/(1 - alpha).
    # That rounding can move the stop by one step.
    K = from_dense(damped_dense(damped))
    y, t, status, _ = solver._iterate(solver._operator(K), sums(K, Side.COLUMN), cfg)
    u = y / y.sum()
    assert status is dist.status and abs(t - dist.iterations) <= 1
    if t == dist.iterations:
        assert np.abs(dist.u - u).max() <= 2 * P.n * EPS / (1 - alpha) * u.max()

    if dist.status is Status.CONVERGED:
        ref = stationary_linear_solve(damped_dense(damped))
        bound = (cfg.tolerance + P.n * EPS) / (1 - alpha)
        assert np.abs(dist.u - ref).max() <= bound
        if t != dist.iterations:
            assert np.abs(u - ref).max() <= bound


@settings(max_examples=100, deadline=None)
@given(
    P=sparse_chains(),
    alpha=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(-300.0, -1e-9).map(lambda e: 10.0**e),
    ),
    cap=st.integers(1, 4000),
)
@example(P=ONE_STEP_APART, alpha=1e-300, cap=4000)
@example(P=ONE_STEP_APART, alpha=0.999, cap=4000)
def test_blocked_damped_loop_matches_the_reference_loop(P, alpha, cap):
    # a tolerance below the rounding floor runs slowly mixing chains long
    cfg = SolverConfig(tolerance=1e-300, max_iterations=cap)
    for matrix in (P.matrix, from_dense(P.matrix.to_dense())):
        damped = damp(StochasticMatrix(matrix), alpha)
        op = markov._operator(damped, cfg.max_iterations > 1)
        y_ref, t_ref, status_ref, rmin_ref, rmax_ref, steps_ref = reference_loop(
            damped_vecmat(damped), P.n, lambda: True, cfg
        )
        steps = []
        w = op.apply(np.ones(P.n))
        y, t, status, history = solver._iterate(op, w, cfg, lambda t, r: steps.append((t, r.tobytes())))
        assert (t, status) == (t_ref, status_ref)
        assert steps == steps_ref
        assert y.tobytes() == y_ref.tobytes()
        assert history.rmin.tobytes() == rmin_ref.tobytes()
        assert history.rmax.tobytes() == rmax_ref.tobytes()
