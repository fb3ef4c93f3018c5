"""Exception types raised across the package."""


class PerronError(Exception):
    """Base class for every error this package raises on purpose."""


class NotSquareError(PerronError):
    """Input matrix is not square (or rows have unequal lengths)."""


class NegativeEntryError(PerronError):
    """A matrix entry is negative."""

    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"entry ({i}, {j}) is negative: {value!r}")


class NonFiniteEntryError(PerronError):
    """A matrix entry is NaN or infinite."""

    def __init__(self, i: int, j: int, value: float):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"entry ({i}, {j}) is not finite: {value!r}")


class NonPositiveScaleError(PerronError):
    """A scaling vector component is zero, negative, or not finite."""

    def __init__(self, i: int, value: float):
        self.i, self.value = i, value
        super().__init__(f"scale component {i} must be positive and finite, got {value!r}")


class ZeroSumError(PerronError):
    """A row or column sums to zero; such a matrix cannot be primitive."""

    def __init__(self, index: int, side: str = "row"):
        self.index, self.side = index, side
        super().__init__(f"{side} {index} sums to zero; matrix cannot be primitive")


class MatrixParseError(PerronError):
    """A matrix file could not be parsed."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class DomainError(PerronError):
    """A numeric argument is outside the domain an operation is defined on."""


class BreakdownError(PerronError):
    """Power iteration produced the zero vector and cannot continue."""


class NotApplicableError(PerronError):
    """The closed-form 2x2 solution does not apply to this matrix."""


class NotStochasticError(PerronError):
    """Row sums deviate from 1 beyond the accepted tolerance."""

    def __init__(self, i: int, rowsum: float):
        self.i, self.rowsum = i, rowsum
        super().__init__(f"row {i} sums to {rowsum!r}, not 1; renormalize first")


class RootNotOneError(PerronError):
    """The computed dominant eigenvalue of a stochastic matrix is not 1."""

    def __init__(self, root: float):
        self.root = root
        super().__init__(f"dominant eigenvalue {root!r} differs from 1; input is not row-stochastic")
