"""Matrix Market reader and writer for dense matrices, plus a CSV writer.

The reader accepts the ``array`` and ``coordinate`` formats with
``general`` or ``symmetric`` symmetry, real or integer fields (Boisvert,
Pozo & Remington, "The Matrix Market Exchange Formats", NIST 1996).  It
reads the file once, parses the header and the size line in Python and
hands the rest to one ``np.loadtxt`` call, whose C parser rounds correctly
and skips blank lines and ``%`` comments: one float64 column for array
files, (int64, int64, float64) records for coordinate files.  Coordinate
entries are placed with one scatter that keeps the last write to each
position in file order, a symmetric entry's mirror written right after
it; indices outside 1..rows and 1..cols are rejected.

The writer emits ``array real general``.  Values are written with 17
significant digits so write/read round-trips are exact; each chunk of
``_CHUNK`` values is formatted by one ``%`` operation.
"""

from pathlib import Path
import io
import re

import numpy as np

from .linalg import as_matrix

_HEADER_PREFIX = "%%MatrixMarket"

# values formatted per string operation by the writer
_CHUNK = 65536

# one line of an array file, and of a coordinate file
_VALUE = np.dtype(np.float64)
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])

# a line that is neither blank nor a comment
_DATA_LINE = re.compile(r"^[^\S\n]*[^%\s].*$", re.MULTILINE)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_matrix_market(path, a):
    """Write a dense matrix in Matrix Market array format (column-major)."""
    a = as_matrix(a, "matrix")
    rows, cols = a.shape
    flat = a.T.ravel()
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{_HEADER_PREFIX} matrix array real general\n{rows} {cols}\n")
        for start in range(0, flat.size, _CHUNK):
            chunk = flat[start:start + _CHUNK].tolist()
            f.write(("%.17g\n" * len(chunk)) % tuple(chunk))


def _load_body(text, pos, path, dtype, expected, noun):
    """The data lines from offset ``pos`` on as ``dtype`` values, one per
    line; raises unless there are exactly ``expected`` of them, with
    finite values."""
    if _DATA_LINE.search(text, pos) is None:
        # np.loadtxt warns on input without data
        data = np.empty(0, dtype=dtype)
    else:
        try:
            # for plain values, ndmin=2 tells one line of several values
            # from several lines of one
            data = np.loadtxt(io.StringIO(text[pos:]), dtype=dtype, comments="%",
                              ndmin=1 if dtype.names else 2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if data.ndim == 2:
            if data.shape[1] != 1:
                raise ValueError(f"{path}: expected one value per line, "
                                 f"found {data.shape[1]}")
            data = data[:, 0]
    if data.size != expected:
        raise ValueError(f"{path}: expected {expected} {noun}, found {data.size}")
    if not np.isfinite(data["v"] if dtype.names else data).all():
        raise ValueError(f"{path}: matrix contains non-finite entries")
    return data


def _check_index(idx, bound, path, name):
    bad = (idx < 1) | (idx > bound)
    if bad.any():
        raise ValueError(f"{path}: {name} index {int(idx[bad.argmax()])} "
                         f"outside 1..{bound}")


def _scatter_last(out, lin, vals):
    """Write vals[t] at flat position lin[t] of the contiguous ``out``; where
    a position repeats, the last write in order wins."""
    # np.unique on the reversed positions keeps each one's first occurrence
    # there, i.e. its last write here
    _, first = np.unique(lin[::-1], return_index=True)
    last = lin.size - 1 - first
    out.ravel()[lin[last]] = vals[last]


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file into a dense float64 matrix."""
    text = Path(path).read_text(encoding="utf-8")
    header_end = text.find("\n")
    if header_end < 0:
        header_end = len(text)
    header_line = text[:header_end]
    if not header_line.startswith(_HEADER_PREFIX):
        raise ValueError(f"{path}: missing MatrixMarket header")
    header = header_line.split()
    if len(header) != 5 or header[1].lower() != "matrix":
        raise ValueError(f"{path}: malformed header {header_line!r}")
    layout, field, symmetry = (w.lower() for w in header[2:5])
    if layout not in ("array", "coordinate"):
        raise ValueError(f"{path}: unsupported layout {layout!r}")
    if field not in ("real", "integer"):
        raise ValueError(f"{path}: unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")

    size_line = _DATA_LINE.search(text, header_end)
    if size_line is None:
        raise ValueError(f"{path}: no size line")
    size, pos = size_line.group().split(), size_line.end()
    n_fields = 2 if layout == "array" else 3
    if len(size) != n_fields:
        raise ValueError(f"{path}: {layout} size line must have {n_fields} fields")
    try:
        rows, cols, *nnz = (int(s) for s in size)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed size line {' '.join(size)!r}") from exc
    if rows < 0 or cols < 0 or (nnz and nnz[0] < 0):
        raise ValueError(f"{path}: negative size in {' '.join(size)!r}")
    if symmetry == "symmetric" and rows != cols:
        raise ValueError(f"{path}: symmetric matrix must be square, got {rows}x{cols}")

    if layout == "array":
        expected = rows * (rows + 1) // 2 if symmetry == "symmetric" else rows * cols
        vals = _load_body(text, pos, path, _VALUE, expected, "values")
        if symmetry == "general":
            out = vals.reshape((cols, rows)).T.copy()
        else:
            out = np.empty((rows, cols), dtype=np.float64)
            start = 0
            for j in range(cols):
                block = vals[start:start + rows - j]
                out[j:, j] = block
                out[j, j:] = block
                start += rows - j
    else:
        try:
            out = np.zeros((rows, cols))
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"{path}: declared size {rows}x{cols} is too large "
                             f"for a dense array") from exc
        entries = _load_body(text, pos, path, _ENTRY, nnz[0], "entries")
        i, j, vals = entries["i"], entries["j"], entries["v"]
        _check_index(i, rows, path, "row")
        _check_index(j, cols, path, "column")
        i, j = i - 1, j - 1
        if symmetry == "symmetric":
            # each entry's write, then its mirror's, in file order
            i, j = np.stack([i, j], axis=1).ravel(), np.stack([j, i], axis=1).ravel()
            vals = np.repeat(vals, 2)
        _scatter_last(out, i * cols + j, vals)
    return out


def write_csv(path, header, rows):
    """Write CSV with '\\n' line endings; floats get 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(_fmt(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
