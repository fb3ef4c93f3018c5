import numpy as np
import pytest

from perronkit import from_dense

# Primitive 3x3 sample: dominant eigenvalue 5.739952, row sums (3, 5.5, 7),
# column sums (3.5, 6, 6), so automatic side selection picks columns.
SAMPLE3_ROWS = [[2.0, 1.0, 0.0], [0.5, 3.0, 2.0], [1.0, 2.0, 4.0]]

# Irreducible but imprimitive 3x3 (period 2): eigenvalues 3, -3, 0.  All
# column sums equal 3, while row-sum balancing oscillates forever.
PERIODIC3_ROWS = [[0.0, 1.0, 0.0], [3.0, 0.0, 3.0], [0.0, 2.0, 0.0]]

# 2x2 with closed-form dominant eigenvalue exactly 4; one balancing step
# equalizes both row sums.
ROOT4_2X2_ROWS = [[3.0, np.sqrt(3.0)], [np.sqrt(3.0), 1.0]]


@pytest.fixture
def sample3():
    return from_dense(SAMPLE3_ROWS)


@pytest.fixture
def periodic3():
    return from_dense(PERIODIC3_ROWS)


@pytest.fixture
def root4_2x2():
    return from_dense(ROOT4_2X2_ROWS)
