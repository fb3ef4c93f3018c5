"""Randomised agreement of the dense vᵀA kernel with the unblocked reduction."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import vecmat_unblocked
from perronkit import from_coordinates, from_dense
from perronkit.matcore import _VECMAT_ROWS, _vecmat


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 3 * _VECMAT_ROWS + 2),
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
