"""Enclosures of the dominant eigenvalue from row/column sums.

The plain sum bounds (min and max of the row or column totals) bracket the
dominant eigenvalue of any nonnegative matrix.  One similarity step with the
diagonal of those totals sharpens the bracket.  That step is the solver's
first, so a one-step run's history holds both: entry 0, then its last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .matcore import NonnegMatrix, Side, sums
from .solver import SolverConfig, algorithm_a

__all__ = [
    "BoundsReport",
    "frobenius_bounds",
    "minc_bounds",
    "bounds_report",
]


@dataclass(frozen=True)
class BoundsReport:
    """Plain and sharpened sum intervals for both sides; each is (lo, hi)."""

    frobenius_row: tuple[float, float]
    frobenius_col: tuple[float, float]
    minc_row: tuple[float, float]
    minc_col: tuple[float, float]


def frobenius_bounds(A: NonnegMatrix, side: Side) -> tuple[float, float]:
    """(min, max) of the chosen sums; brackets the dominant eigenvalue."""
    s = sums(A, side)
    return float(s.min()), float(s.max())


def minc_bounds(A: NonnegMatrix, side: Side) -> tuple[float, float]:
    """Sharpened interval after one similarity step with the chosen sums.

    The min and max of the solver's sums after its first step on that side;
    never looser than :func:`frobenius_bounds` on the same side, up to
    rounding.  Where the solver takes no step (the sums already agree, or
    the step would leave the floating-point range) the interval is the
    plain one.  Raises ZeroSumError for a zero sum on the chosen side.
    """
    res = algorithm_a(A, SolverConfig(tolerance=math.ulp(0.0), max_iterations=1, side=side))
    return res.root_lo, res.root_hi


def bounds_report(A: NonnegMatrix) -> BoundsReport:
    """All four intervals, read off one :func:`minc_bounds` solve per side."""
    row, col = (algorithm_a(A, SolverConfig(tolerance=math.ulp(0.0), max_iterations=1, side=s)).history
                for s in (Side.ROW, Side.COLUMN))
    return BoundsReport(
        frobenius_row=(float(row.rmin[0]), float(row.rmax[0])),
        frobenius_col=(float(col.rmin[0]), float(col.rmax[0])),
        minc_row=(float(row.rmin[-1]), float(row.rmax[-1])),
        minc_col=(float(col.rmin[-1]), float(col.rmax[-1])),
    )

