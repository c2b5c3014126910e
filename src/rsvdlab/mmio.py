"""Matrix Market reader and writer for dense matrices, plus a CSV writer.

The reader accepts the ``array`` and ``coordinate`` formats with
``general`` or ``symmetric`` symmetry, real or integer fields; the writer
emits ``array real general``.  Values are written with 17 significant
digits so write/read round-trips are exact.
"""

from pathlib import Path

import numpy as np

from .linalg import as_matrix

_HEADER_PREFIX = "%%MatrixMarket"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_matrix_market(path, a):
    """Write a dense matrix in Matrix Market array format (column-major)."""
    a = as_matrix(a, "matrix")
    rows, cols = a.shape
    lines = [f"{_HEADER_PREFIX} matrix array real general", f"{rows} {cols}"]
    for j in range(cols):
        for i in range(rows):
            lines.append(_fmt(a[i, j]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file into a dense float64 matrix."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise ValueError(f"{path}: missing MatrixMarket header")
    header = lines[0].split()
    if len(header) != 5 or header[1].lower() != "matrix":
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    layout, field, symmetry = (w.lower() for w in header[2:5])
    if layout not in ("array", "coordinate"):
        raise ValueError(f"{path}: unsupported layout {layout!r}")
    if field not in ("real", "integer"):
        raise ValueError(f"{path}: unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")

    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise ValueError(f"{path}: no size line")
    size = body[0].split()
    data = body[1:]

    if layout == "array":
        if len(size) != 2:
            raise ValueError(f"{path}: array size line must have 2 fields")
        rows, cols = int(size[0]), int(size[1])
        if symmetry == "symmetric":
            expected = rows * (rows + 1) // 2
        else:
            expected = rows * cols
        if len(data) != expected:
            raise ValueError(f"{path}: expected {expected} values, found {len(data)}")
        vals = np.array([float(v) for v in data], dtype=np.float64)
        out = np.empty((rows, cols), dtype=np.float64)
        if symmetry == "general":
            out = vals.reshape((cols, rows)).T.copy()
        else:
            pos = 0
            for j in range(cols):
                block = vals[pos:pos + rows - j]
                out[j:, j] = block
                out[j, j:] = block
                pos += rows - j
    else:
        if len(size) != 3:
            raise ValueError(f"{path}: coordinate size line must have 3 fields")
        rows, cols, nnz = int(size[0]), int(size[1]), int(size[2])
        if len(data) != nnz:
            raise ValueError(f"{path}: expected {nnz} entries, found {len(data)}")
        out = np.zeros((rows, cols), dtype=np.float64)
        for ln in data:
            parts = ln.split()
            if len(parts) != 3:
                raise ValueError(f"{path}: malformed coordinate line {ln!r}")
            i, j, v = int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])
            out[i, j] = v
            if symmetry == "symmetric" and i != j:
                out[j, i] = v
    if not np.isfinite(out).all():
        raise ValueError(f"{path}: matrix contains non-finite entries")
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
