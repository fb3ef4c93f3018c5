"""Dominant eigenvalue and eigenvector of primitive nonnegative matrices.

The solver balances row (or column) sums by diagonal similarity.  It runs
the equivalent power recurrence y <- A y and reads the balanced sums off as
the quotients (A y) / y; for primitive matrices they squeeze onto the
dominant eigenvalue and y onto the dominant eigenvector.  The balanced
matrix is built from the final y when it is first read.  Companion modules
supply sum-based eigenvalue enclosures, a power-iteration oracle, exact
primitivity tests by graph search, and stationary distributions of
row-stochastic matrices.
"""

__version__ = "0.1.0"

from .baseline import PowerResult, power_method
from .bounds import BoundsReport, bounds_report, frobenius_bounds, minc_bounds
from .errors import (
    BreakdownError,
    DomainError,
    DuplicateEntryError,
    MatrixParseError,
    NegativeEntryError,
    NonFiniteEntryError,
    NonPositiveScaleError,
    NotSquareError,
    NotStochasticError,
    PerronError,
    RootNotOneError,
    ZeroSumError,
)
from .io import parse_matrix, read_csv, read_matrix_market, write_matrix_market
from .markov import StationaryDistribution, StochasticMatrix, make_stochastic, stationary
from .matcore import (
    GerschgorinDisc,
    NonnegMatrix,
    Side,
    from_coordinates,
    from_dense,
    random_primitive,
    rank_one_hadamard,
    sums,
    tridiagonal,
)
from .primitivity import is_irreducible, is_primitive, period, wielandt_bound
from .solver import (
    ConvergenceHistory,
    PerronResult,
    SolverConfig,
    Status,
    algorithm_a,
    algorithm_b,
    convergence_discs,
)
