"""Randomised agreement of the exact structure tests with independent oracles."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import irreducible_by_closure, period_by_powers, primitive_by_stepwise_powers, transposed
from perronkit import from_coordinates, from_dense, is_irreducible, is_primitive, period, wielandt_bound


@st.composite
def patterns(draw):
    """Zero/one pattern of order 1..7 at a random density."""
    n = draw(st.integers(1, 7))
    density = draw(st.floats(0.05, 0.95))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    return (np.array(cells).reshape(n, n) < density).astype(float)


@settings(max_examples=300, deadline=None)
@given(arr=patterns(), storage=st.sampled_from(["dense", "csr"]))
def test_structure_tests_match_oracles(arr, storage):
    n = len(arr)
    rows, cols = np.nonzero(arr)
    dense, csr = from_dense(arr), from_coordinates(n, rows, cols, arr[rows, cols])
    A = dense if storage == "dense" else csr
    assert is_primitive(A) == primitive_by_stepwise_powers(arr, wielandt_bound(n))
    assert is_irreducible(A) == irreducible_by_closure(arr)
    assert is_primitive(A) == is_primitive(transposed(A))
    assert period(dense) == period(csr) == period_by_powers(arr)
