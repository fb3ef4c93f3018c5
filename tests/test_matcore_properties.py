"""Randomised agreement of the dense vᵀA kernel with the plain axis-0 reduction."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import vecmat_unblocked
from perronkit import from_coordinates, from_dense
from perronkit.matcore import _vecmat


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 194),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_dense_vecmat_is_the_unblocked_reduction_bit_for_bit(n, density, seed):
    """Entries and vector components span e^±30, so every add rounds."""
    rng = np.random.default_rng(seed)
    D = np.where(rng.random((n, n)) < density, np.exp(rng.uniform(-30.0, 30.0, (n, n))), 0.0)
    v = np.exp(rng.uniform(-30.0, 30.0, n))
    got = _vecmat(from_dense(D), v)
    assert got.tobytes() == vecmat_unblocked(D, v).tobytes()
    i, j = np.nonzero(D)
    assert got.tobytes() == _vecmat(from_coordinates(n, i, j, D[i, j]), v).tobytes()


def test_dense_vecmat_fuses_no_multiply_add():
    """(1 + 2⁻³⁰)(1 − 2⁻³⁰) rounds to 1, so the column sums to 0 exactly; a
    fused multiply-add would keep the product exact and return -2⁻⁶⁰."""
    eps = 2.0**-30
    D = np.array([[1.0, 0.0], [1.0 + eps, 0.0]])
    v = np.array([-1.0, 1.0 - eps])
    got = _vecmat(from_dense(D), v)
    assert got.tobytes() == np.zeros(2).tobytes()
    assert got.tobytes() == vecmat_unblocked(D, v).tobytes()
    i, j = np.nonzero(D)
    assert got.tobytes() == _vecmat(from_coordinates(2, i, j, D[i, j]), v).tobytes()
