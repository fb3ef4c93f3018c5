"""Randomised Matrix Market round trips over the extremes of the double range."""

import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import write_matrix_market_per_value
from perronkit import from_coordinates, from_dense, read_matrix_market, write_matrix_market

DBL_MAX = float(np.finfo(np.float64).max)
TINY = float(np.finfo(np.float64).tiny)  # smallest normal double
EXTREMES = [0.0, 5e-324, np.nextafter(TINY, 0.0), TINY, 1.0, np.nextafter(1.0, 2.0), 1e300]


@st.composite
def matrices(draw):
    """Order 1..6, entries in the extremes above or any double in [0, 1e300],
    subnormals included; at most one DBL_MAX, alone in its row and column so
    no sum overflows.  Dense or CSR storage."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, 1e300), st.floats(0.0, 1e-300))
    arr = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        arr[i, :] = arr[:, j] = 0.0
        arr[i, j] = DBL_MAX
    if draw(st.booleans()):
        return from_dense(arr)
    rows, cols = np.nonzero(arr)
    return from_coordinates(n, rows, cols, arr[rows, cols])


@settings(max_examples=300, deadline=None)
@given(A=matrices())
def test_write_then_read_is_bit_identical(tmp_path_factory, A):
    text = io.StringIO()
    write_matrix_market(A, text)
    expected = io.StringIO()
    write_matrix_market_per_value(A, expected)
    assert text.getvalue() == expected.getvalue()

    path = tmp_path_factory.mktemp("mm") / "a.mtx"
    write_matrix_market(A, path)
    assert path.read_bytes() == expected.getvalue().encode("ascii")
    back = read_matrix_market(path)
    assert back.storage == A.storage
    assert back.to_dense().tobytes() == A.to_dense().tobytes()
    if A.storage == "csr":
        for got, want in ((back._rows, A._rows), (back._indices, A._indices), (back._data, A._data)):
            assert got.tobytes() == want.tobytes()
