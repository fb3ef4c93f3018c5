"""Matrix file exchange: Matrix Market (array and coordinate) and dense CSV.

Array files load into dense storage, coordinate files into CSR.  Writers emit
values at 17 significant digits so a write/read round trip is lossless.
"""

from __future__ import annotations

import numpy as np

from .errors import MatrixParseError, NegativeEntryError
from .matcore import NonnegMatrix, from_coordinates, from_dense

__all__ = [
    "parse_matrix",
    "read_matrix_market",
    "read_csv",
    "write_matrix_market",
]

_MM_BANNER = "%%matrixmarket"


def parse_matrix(path, fmt: str = "auto") -> NonnegMatrix:
    """Load a matrix file; fmt is "auto", "mm" (Matrix Market), or "csv".

    Auto detection sniffs the %%MatrixMarket banner on the first line.
    """
    if fmt not in ("auto", "mm", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "auto":
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            first = fh.readline()
        fmt = "mm" if first.lower().startswith(_MM_BANNER) else "csv"
    return read_matrix_market(path) if fmt == "mm" else read_csv(path)


def _bad(lineno: int, message: str) -> MatrixParseError:
    return MatrixParseError(lineno, message)


def read_matrix_market(path) -> NonnegMatrix:
    """Read a Matrix Market file; only `real general` array/coordinate variants."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.readlines()
    if not lines:
        raise _bad(1, "empty file")
    header = lines[0].lower().split()
    if len(header) != 5 or header[0] != _MM_BANNER or header[1] != "matrix":
        raise _bad(1, f"not a Matrix Market header: {lines[0].strip()!r}")
    layout, field, symmetry = header[2], header[3], header[4]
    if layout not in ("array", "coordinate"):
        raise _bad(1, f"unsupported layout {layout!r}")
    if field != "real" or symmetry != "general":
        raise _bad(1, f"only 'real general' matrices are supported, got {field!r} {symmetry!r}")

    # first non-comment, non-blank line after the banner is the size line
    pos = 1
    while pos < len(lines) and (lines[pos].startswith("%") or not lines[pos].strip()):
        pos += 1
    if pos >= len(lines):
        raise _bad(len(lines), "missing size line")
    size_lineno = pos + 1
    size = lines[pos].split()
    pos += 1

    def body():
        for k in range(pos, len(lines)):
            text = lines[k].strip()
            if text and not text.startswith("%"):
                yield k + 1, text

    if layout == "array":
        if len(size) != 2:
            raise _bad(size_lineno, f"array size line must be 'rows cols', got {lines[size_lineno - 1].strip()!r}")
        try:
            nrow, ncol = int(size[0]), int(size[1])
        except ValueError:
            raise _bad(size_lineno, "size line entries are not integers") from None
        if nrow < 1 or ncol < 1:
            raise _bad(size_lineno, f"matrix size must be positive, got {nrow}x{ncol}")
        entries = list(body())
        if len(entries) != nrow * ncol:
            raise _bad(len(lines), f"expected {nrow * ncol} values, found {len(entries)}")
        arr = np.empty((nrow, ncol))
        for k, (lineno, text) in enumerate(entries):
            parts = text.split()
            try:
                (raw,) = parts
                v = float(raw)
            except ValueError:
                raise _bad(lineno, f"expected one value per line, got {text!r}") from None
            arr[k % nrow, k // nrow] = v  # array layout is column-major
        return from_dense(arr)

    if len(size) != 3:
        raise _bad(size_lineno, f"coordinate size line must be 'rows cols nnz', got {lines[size_lineno - 1].strip()!r}")
    try:
        nrow, ncol, nnz = (int(s) for s in size)
    except ValueError:
        raise _bad(size_lineno, "size line entries are not integers") from None
    rows, cols, vals = [], [], []
    seen: dict[tuple[int, int], int] = {}
    count = 0
    for lineno, text in body():
        parts = text.split()
        if len(parts) != 3:
            raise _bad(lineno, f"coordinate entry must be 'i j value', got {text!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise _bad(lineno, f"malformed coordinate entry: {text!r}") from None
        if not (1 <= i <= nrow and 1 <= j <= ncol):
            raise _bad(lineno, f"index ({i}, {j}) outside {nrow}x{ncol}")
        if (i, j) in seen:
            raise _bad(lineno, f"duplicate entry ({i}, {j}), first seen on line {seen[i, j]}")
        seen[i, j] = lineno
        if v < 0:
            raise NegativeEntryError(i - 1, j - 1, v)
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        count += 1
    if count != nnz:
        raise _bad(len(lines), f"size line promises {nnz} entries, found {count}")
    if nrow != ncol:
        raise _bad(size_lineno, f"matrix is {nrow}x{ncol}, not square")
    return from_coordinates(nrow, rows, cols, vals)


def read_csv(path) -> NonnegMatrix:
    """Read a dense matrix from comma-separated values, one row per line."""
    table = []
    width = None
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = [c.strip() for c in line.split(",")]
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise _bad(lineno, f"not a number in {line.strip()!r}") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise _bad(lineno, f"row has {len(row)} values, expected {width}")
            table.append(row)
    if not table:
        raise _bad(1, "empty file")
    return from_dense(table)


def write_matrix_market(A: NonnegMatrix, path_or_file) -> None:
    """Write A in Matrix Market format: array for dense storage, coordinate for CSR."""
    if hasattr(path_or_file, "write"):
        _write_mm(A, path_or_file)
    else:
        with open(path_or_file, "w", encoding="ascii", newline="\n") as fh:
            _write_mm(A, fh)


def _write_mm(A: NonnegMatrix, fh) -> None:
    if A.storage == "dense":
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{A.n} {A.n}\n")
        dense = A.to_dense()
        for j in range(A.n):
            for i in range(A.n):
                fh.write(f"{dense[i, j]:.17g}\n")
    else:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.n} {A.n} {A.nnz}\n")
        rows = A._row_indices()
        for i, j, v in zip(rows, A._indices, A._data):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")
