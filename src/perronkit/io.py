"""Matrix file exchange: Matrix Market (array and coordinate) and dense CSV.

Array files load into dense storage, coordinate files into CSR.  Writers emit
values at 17 significant digits so a write/read round trip is lossless;
the Matrix Market writer formats a fixed number of entries at a time, so its
memory does not grow with the order or the number of nonzeros.  It writes
an array body from column blocks: a held matrix gives its own array as one
block, and ``gen random`` gives blocks drawn into one scratch array as the
file is written, so that it never holds the n×n matrix.  ``gen random``
also splits its columns into one part per usable CPU: each part after the
first goes as raw doubles to a standard-library helper process
(``_lines.py``), whose lines are copied after the first part's.  One
formatter, :func:`_lines.lines`, writes every array value in either
process, so the bytes do not depend on the split.
Every file the package writes, the CLI's CSV traces too, opens through
:func:`_output`, which removes a regular file that a failed write leaves.
A Matrix Market body is parsed in one ``np.loadtxt`` call, into an array
of its final size when the file can hold the entries its size line
promises.  A body it refuses (a faulty line, but also a comment line) is
read again line by line.
A dense file is read into one n×n array, which becomes the matrix: an
array body, which lists A column by column, is transposed in place a row
at a time, and CSV rows fill an array that grows in place.  A coordinate
body's records become the CSR arrays with no second copy of the body,
and they are sorted only when they are not in row-major order already.
matcore alone checks their indices; one outside the matrix sends the body
to the line-by-line read, which names its line.
"""

from __future__ import annotations

import contextlib
import os
import stat
import sys
import tempfile
import warnings

import numpy as np

from . import _lines
from ._lines import CHUNK as _CHUNK
from .errors import DuplicateEntryError, MatrixParseError, NotSquareError
from .matcore import NonnegMatrix, _adopt_dense, _coordinates, _dense_view, _entries

__all__ = [
    "parse_matrix",
    "read_matrix_market",
    "read_csv",
    "write_matrix_market",
]

_MM_BANNER = "%%matrixmarket"
# One body line of each layout: its numpy record, Python's parser of each field,
# and the messages for a wrong number of fields and for a field that fails.
_LINE = {
    "array": (np.dtype([("v", np.float64)]), (float,),
              "expected one value per line, got {!r}", "expected one value per line, got {!r}"),
    "coordinate": (np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)]), (int, int, float),
                   "coordinate entry must be 'i j value', got {!r}", "malformed coordinate entry: {!r}"),
}


def parse_matrix(path) -> NonnegMatrix:
    """Load a Matrix Market file, or else a CSV file.

    A file is read as Matrix Market when the first word of its first line
    is the %%MatrixMarket banner, the rule the reader itself applies.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        first = fh.readline()
    banner = first.lower().split()[:1] == [_MM_BANNER]
    return read_matrix_market(path) if banner else read_csv(path)


def read_matrix_market(path) -> NonnegMatrix:
    """Read a Matrix Market file; only `real general` array/coordinate variants."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        first = fh.readline()
        if not first:
            raise MatrixParseError(1, "empty file")
        header = first.lower().split()
        if len(header) != 5 or header[0] != _MM_BANNER or header[1] != "matrix":
            raise MatrixParseError(1, f"not a Matrix Market header: {first.strip()!r}")
        layout, field, symmetry = header[2], header[3], header[4]
        if layout not in ("array", "coordinate"):
            raise MatrixParseError(1, f"unsupported layout {layout!r}")
        if field != "real" or symmetry != "general":
            raise MatrixParseError(
                1, f"only 'real general' matrices are supported, got {field!r} {symmetry!r}")

        # first non-comment, non-blank line after the banner is the size line
        size_lineno, line = 2, fh.readline()
        while line and (line.startswith("%") or not line.strip()):
            size_lineno, line = size_lineno + 1, fh.readline()
        if not line:
            raise MatrixParseError(size_lineno - 1, "missing size line")
        size = line.split()
        if len(size) != (2 if layout == "array" else 3):
            shape = "'rows cols'" if layout == "array" else "'rows cols nnz'"
            raise MatrixParseError(size_lineno, f"{layout} size line must be {shape}, got {line.strip()!r}")
        try:
            n, ncol, *nnz = (int(s) for s in size)
        except ValueError:
            raise MatrixParseError(size_lineno, "size line entries are not integers") from None
        if n < 1 or ncol < 1:
            raise MatrixParseError(size_lineno, f"matrix size must be positive, got {n}x{ncol}")
        if n != ncol:
            raise MatrixParseError(size_lineno, f"matrix is {n}x{ncol}, not square")
        count = nnz[0] if nnz else n * n
        if count < 0:
            raise MatrixParseError(size_lineno, f"entry count must be >= 0, got {count}")
        # loadtxt reserves max_rows records at once, so it gets a max_rows only when the
        # rest of the file can hold count lines of two bytes a field; then it reads one
        # record past count, and a body with more entries or a '%' line is rescanned
        fields = len(_LINE[layout][1])
        room = os.fstat(fh.fileno()).st_size - fh.tell()  # st_size is 0 for a pipe
        max_rows = count + 1 if room >= 2 * fields * count - 1 else None
        # a warning also means a rescan: an empty body, or older numpy truncating an index 1.5 to 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)  # a blank line
            try:
                body = np.loadtxt(fh, _LINE[layout][0], comments=None, ndmin=1, max_rows=max_rows)
            except (ValueError, Warning):
                body = None

    if body is None or len(body) != count:
        body = _rescan(path, size_lineno, layout, n, count)[0]
    if layout == "array":
        arr = body.view(np.float64).reshape(n, n)  # Aᵀ: the array layout is column-major
        _transpose_in_place(arr)
        return _adopt_dense(arr)
    try:
        return _coordinates(n, *_split(body), owned=True)
    except MemoryError:
        raise MatrixParseError(size_lineno, f"a {n}x{n} matrix does not fit in memory") from None
    except NotSquareError:  # an index outside the matrix, which the rescan names by its line
        _rescan(path, size_lineno, layout, n, count)
        raise
    except DuplicateEntryError as exc:
        lines = _rescan(path, size_lineno, layout, n, count)[1]
        msg = f"duplicate entry ({exc.i + 1}, {exc.j + 1}), first seen on line {lines[exc.first]}"
        raise MatrixParseError(lines[exc.second], msg) from None


def _split(body):
    """The coordinate records body, which the caller gives up, as three
    contiguous arrays: the 0-based rows and columns and the values.

    The rows and values are copied out; the columns are moved to the front
    of body's own buffer, which then shrinks to them.  So at most body and
    two of the arrays are held at once, 40 bytes an entry.
    """
    m = len(body)
    rows, values = body["i"] - 1, body["v"].copy()
    words = body.view(np.int64)  # i, j, v of each record in turn
    a = 0
    while a < m:  # j of records a..b-1 moves to words a..b-1, all below where it is read
        b = min(m, 3 * a + 1)
        words[a:b] = words[3 * a + 1 : 3 * b + 1 : 3]
        a = b
    del words
    body.resize((m + 2) // 3, refcheck=False)  # a realloc: no view of body is left
    cols = body.view(np.int64)[:m]
    cols -= 1
    return rows, cols, values


def _rescan(path, size_lineno, layout, n, count):
    """Read the body after the size line again, line by line.

    Raise on the first faulty line; else return the records and their line
    numbers.  Blank lines and lines starting with '%' are skipped, and
    float() and int() also read spellings np.loadtxt refuses, such as 1_0.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = [line.strip() for line in fh]
    body = enumerate(lines[size_lineno:], size_lineno + 1)
    entries = [(k, text) for k, text in body if text and not text.startswith("%")]
    if layout == "array" and len(entries) != count:
        raise MatrixParseError(len(lines), f"expected {count} values, found {len(entries)}")
    dtype, parsers, arity, malformed = _LINE[layout]
    records = []
    for lineno, text in entries:
        parts = text.split()
        if len(parts) != len(parsers):
            raise MatrixParseError(lineno, arity.format(text))
        try:
            record = tuple(parse(part) for parse, part in zip(parsers, parts))
        except ValueError:
            raise MatrixParseError(lineno, malformed.format(text)) from None
        if layout == "coordinate" and not (1 <= record[0] <= n and 1 <= record[1] <= n):
            raise MatrixParseError(lineno, f"index ({record[0]}, {record[1]}) outside {n}x{n}")
        records.append(record)
    if len(records) != count:
        raise MatrixParseError(len(lines), f"size line promises {count} entries, found {len(records)}")
    return np.array(records, dtype=dtype), [k for k, _ in entries]


def _transpose_in_place(a) -> None:
    """Transpose the square array a in place, a row at a time: the part of
    row i right of the diagonal trades places with the part of column i
    below it, through a copy of the row's part."""
    for i in range(len(a) - 1):
        right = a[i, i + 1 :].copy()
        a[i, i + 1 :] = a[i + 1 :, i]
        a[i + 1 :, i] = right


def read_csv(path) -> NonnegMatrix:
    """Read a dense matrix from comma-separated values, one row per line.

    Rows go into one float array that becomes the matrix.  It starts at
    min(64, w) rows, w the first row's width, and doubles in place up to w
    rows, past w only for a table taller than it is wide.
    """
    table, k = None, 0
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            cells = [c.strip() for c in line.split(",")]
            try:
                row = [float(c) for c in cells]
            except ValueError:
                raise MatrixParseError(lineno, f"not a number in {line.strip()!r}") from None
            if table is None:
                width = len(row)
                table = np.empty((min(64, width), width))
            elif len(row) != width:
                raise MatrixParseError(lineno, f"row has {len(row)} values, expected {width}")
            if k == len(table):  # a realloc, with no second array
                table.resize((min(2 * k, width) if k < width else 2 * k, width), refcheck=False)
            table[k] = row
            k += 1
    if table is None:
        raise MatrixParseError(1, "empty file")
    table.resize((k, width), refcheck=False)
    return _adopt_dense(table)


def write_matrix_market(A: NonnegMatrix, path_or_file) -> None:
    """Write A in Matrix Market format: array for dense storage, coordinate for CSR.

    A write that fails removes the regular file it opened at a path; a
    stream, and a device such as /dev/null, are left alone.
    """
    if A.storage == "dense":
        D = _dense_view(A)
        _write_array(A.n, lambda j0, j1: [D[:, j0:j1]], path_or_file)
        return
    rows, cols, values = _entries(A)
    with _output(path_or_file) as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real general\n{A.n} {A.n} {A.nnz}\n")
        for s in range(0, A.nnz, _CHUNK):
            chunk = values[s : s + _CHUNK].tolist()
            fields = [None] * (3 * len(chunk))  # i, j, value of each entry in turn
            fields[0::3] = (rows[s : s + _CHUNK] + 1).tolist()
            fields[1::3] = (cols[s : s + _CHUNK] + 1).tolist()
            fields[2::3] = chunk
            fh.write(("%d %d %.17g\n" * len(chunk)) % tuple(fields))


@contextlib.contextmanager
def _output(path_or_file):
    """path_or_file if it is a stream or None, else the file at that path,
    opened for ASCII lines.  If the block raises, that file is removed when
    it is a regular file, so a failed write leaves none; a device such as
    /dev/null is never removed."""
    if path_or_file is None or hasattr(path_or_file, "write"):
        yield path_or_file
        return
    fh = open(path_or_file, "w", encoding="ascii", newline="\n")
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh:
            yield fh
    except BaseException:
        if regular:
            with contextlib.suppress(OSError):  # the write's own error is the one to report
                os.remove(path_or_file)
        raise


# bytes of a helper's lines copied to the output per write
_COPY = 1 << 16
# the helper that formats a part of an array body: this interpreter, isolated
# and without site, running _lines.py on its own (sys.executable may be empty)
_HELPER = [sys.executable, "-I", "-S", os.path.join(os.path.dirname(__file__), "_lines.py")]


def _write_array(n: int, blocks, path_or_file, cuts=()) -> None:
    """Write the n×n matrix in the array layout; ``blocks(j0, j1)`` yields
    the (n, w) column blocks of its columns j0 .. j1 - 1, left to right.

    ``cuts`` splits the columns into parts: 0 .. cuts[0] - 1, then up to
    each later cut, then up to n.  Each part after the first is drawn
    first, column by column, as raw doubles into an anonymous temporary
    file, and a helper process (:data:`_HELPER`) formats it into a second
    one while this process formats the first part; the helpers' lines
    then follow, _COPY bytes a write.  Every value, here or in a helper,
    goes through :func:`_lines.lines`, so the bytes do not depend on the
    cuts.  If a helper cannot be set up, every part is formatted here; a
    helper that fails raises OSError.  No helper outlives the call.  Each
    block is formatted or written out as it arrives, so a caller that
    draws its blocks into one scratch array never holds the matrix.
    """
    bounds = (0, *cuts, n) if _HELPER[0] else (0, n)
    with _output(path_or_file) as fh, contextlib.ExitStack() as helpers:
        fh.write(f"%%MatrixMarket matrix array real general\n{n} {n}\n")
        try:
            started = [_start(blocks(j0, j1), j0, j1, helpers) for j0, j1 in zip(bounds[1:], bounds[2:])]
        except OSError:  # no temporary file, or no helper process: every part here
            helpers.close()
            bounds, started = (0, n), []
        _format(blocks(0, bounds[1]), fh)
        for proc, out, message in started:
            if code := proc.wait():
                raise OSError(f"{message} exited with status {code}")
            out.seek(0)
            while chunk := out.read(_COPY):
                fh.write(chunk.decode("ascii"))


def _format(blocks, fh) -> None:
    """Write the lines of the column blocks to fh, column by column."""
    for block in blocks:
        flat = block.T.flat  # the array layout is column-major
        for s in range(0, block.size, _CHUNK):
            fh.write(_lines.lines(flat[s : s + _CHUNK].tolist()))


def _start(blocks, j0, j1, helpers):
    """Start a helper on columns j0 .. j1 - 1, whose blocks are given;
    return it, the file it writes its lines to, and its name for errors.
    helpers closes both and kills and waits for the helper."""
    import subprocess  # only gen random starts a process; other commands skip the import

    with tempfile.TemporaryFile() as raw:
        for block in blocks:
            for column in block.T:
                raw.write(column.tobytes())
        raw.seek(0)
        out = helpers.enter_context(tempfile.TemporaryFile())
        proc = helpers.enter_context(
            subprocess.Popen(_HELPER, stdin=raw, stdout=out, stderr=subprocess.DEVNULL))
    helpers.callback(proc.kill)  # runs before Popen's exit waits: a helper never outlives the writer
    return proc, out, f"the helper formatting columns {j0 + 1} to {j1}"
