"""Randomised agreement of the dense kernel, either side, with the plain axis-0 reduction."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import transposed, vecmat_unblocked
from perronkit import Side, from_coordinates, from_dense
from perronkit.matcore import _kernel


@pytest.mark.parametrize("side", list(Side), ids=lambda side: side.value)
@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 194),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_vecmat_is_the_unblocked_reduction_bit_for_bit(side, n, density, seed):
    """Entries and vector components span e^±30, so every add rounds.  The
    row side is v -> A v, the column side of Aᵀ."""
    rng = np.random.default_rng(seed)
    D = np.where(rng.random((n, n)) < density, np.exp(rng.uniform(-30.0, 30.0, (n, n))), 0.0)
    v = np.exp(rng.uniform(-30.0, 30.0, n))
    i, j = np.nonzero(D)
    dense, csr = from_dense(D), from_coordinates(n, i, j, D[i, j])
    got = _kernel(dense, side)(v)
    assert got.tobytes() == vecmat_unblocked(D if side is Side.COLUMN else np.ascontiguousarray(D.T), v).tobytes()
    assert got.tobytes() == _kernel(csr, side)(v).tobytes()
    if side is Side.ROW:
        for A in (dense, csr):
            assert _kernel(A, Side.ROW)(v).tobytes() == _kernel(transposed(A))(v).tobytes()


def test_dense_vecmat_fuses_no_multiply_add():
    """(1 + 2⁻³⁰)(1 − 2⁻³⁰) rounds to 1, so the column sums to 0 exactly; a
    fused multiply-add would keep the product exact and return -2⁻⁶⁰."""
    eps = 2.0**-30
    D = np.array([[1.0, 0.0], [1.0 + eps, 0.0]])
    v = np.array([-1.0, 1.0 - eps])
    got = _kernel(from_dense(D))(v)
    assert got.tobytes() == np.zeros(2).tobytes()
    assert got.tobytes() == vecmat_unblocked(D, v).tobytes()
    i, j = np.nonzero(D)
    assert got.tobytes() == _kernel(from_coordinates(2, i, j, D[i, j]))(v).tobytes()
