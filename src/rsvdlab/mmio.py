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
significant digits so write/read round-trips are exact, in exactly the bytes
``'%.17g\\n'`` gives; each chunk of ``_CHUNK`` values is formatted with numpy
and written before the next.  The formatter takes fixed-precision digits as a
scaled integer (Adams, "Ryu revisited: printf floating point conversion",
PLDI 2019): with e = floor(log10|x|), |x|·10^(16-e) is formed in long double
and rounded to a 17-digit integer N.  N is used only where it is certified:
the scaled value lies in [10^16, 10^17) and sits farther from a rounding tie
than a margin, a bound on its error derived from the long double unit
roundoff and the power-of-ten table's exact error.  Every other value (near
ties, zeros, non-finite values, misestimated exponents, and every value
where long double is not an IEEE format wider than double) goes through
``'%.17g'`` itself, in one batched ``%`` per chunk.
"""

from pathlib import Path
import functools
import io
import math
import re

import numpy as np

from .linalg import as_matrix

_HEADER_PREFIX = "%%MatrixMarket"

# values formatted and written at a time by the writer
_CHUNK = 65536

# one line of an array file, and of a coordinate file
_VALUE = np.dtype(np.float64)
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])

# a line that is neither blank nor a comment
_DATA_LINE = re.compile(r"^[^\S\n]*[^%\s].*$", re.MULTILINE)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# decimal exponents of finite doubles, 5e-324 to 1.8e308
_E_MIN, _E_MAX = -324, 308


@functools.cache
def _pow10_table():
    """10^(16 - e) in long double at index _E_MAX - e, for e in
    _E_MIN.._E_MAX, and the margin: a bound on |computed - exact| for a
    scaled value below 10^17, from the unit roundoff of one long double
    product and the table's largest relative error, measured exactly.  Built
    on first use, so that a process that never writes does not hold it."""
    ld = np.longdouble
    table = np.array([ld(f"1e{16 - e}") for e in range(_E_MAX, _E_MIN - 1, -1)])
    info = np.finfo(ld)
    # x87 extended or IEEE binary128: where long double is double the table
    # overflows, and double-double has no fixed unit roundoff
    if info.nmant not in (63, 112):
        return table, math.inf
    # the largest relative error of an entry, worst / base, exactly
    worst, base = 0, 1
    for t, e in zip(table, range(_E_MAX, _E_MIN - 1, -1)):
        num, den = t.as_integer_ratio()
        p = 10 ** abs(16 - e)
        got, want = (num, den * p) if e <= 16 else (num * p, den)
        if abs(got - want) * base > worst * want:
            worst, base = abs(got - want), want
    # 1/q is the unit roundoff, eps/2; with err = worst/base the bound is
    # 10^17 (err + 1/q + err/q) / ((1 - err)(1 - 1/q)), and int / int rounds
    # correctly
    q = 2 * info.eps.as_integer_ratio()[1]
    bound = 10 ** 17 * (worst * q + base + worst) / ((base - worst) * (q - 1))
    return table, math.nextafter(bound, math.inf)


# bytes per value before the zeros are dropped: sign, "0.000", 17 digits
# with a point among them, "e+ddd" and the newline
_SLOT = 30
_SIGN, _LEAD, _DIGITS, _EXP, _NL = 0, 1, 6, 24, 29


def _scaled(a):
    """For non-negative float64 ``a``: e, an estimate of floor(log10 a); the
    integer N nearest the computed a·10^(16-e); and where N is certified to
    be ``a`` rounded to 17 significant digits with exponent e."""
    pow10, margin = _pow10_table()
    with np.errstate(all="ignore"):
        e = np.log10(a)
        np.floor(e, out=e)
        np.fmax(e, _E_MIN, out=e)
        np.fmin(e, _E_MAX, out=e)
        e = e.astype(np.int16)
        y = a.astype(np.longdouble)
        y *= pow10.take(_E_MAX - e)
        big = y.astype(np.int64)
        frac = (y - big).astype(np.float64)
    # the exact product rounds the same way as the computed one
    ok = np.abs(frac - 0.5) > margin
    # a ≥ 10^e: below it, e overstates the exponent and 17 digits need one more place
    ok &= (big > 10 ** 16) | ((big == 10 ** 16) & (frac > margin))
    big += frac > 0.5
    # N below 10^17: at it, the rounding carried into the next exponent
    ok &= big < 10 ** 17
    return e, big, ok


def _format_17g(x):
    """The bytes of ``''.join('%.17g\\n' % v for v in x)`` for a 1-d float64
    array, as a uint8 array."""
    n = x.size
    e, big, ok = _scaled(np.abs(x))

    # the 17 digits, 8 from the high part and 9 from the low
    digits = np.empty((17, n), dtype=np.uint8)
    high = big // 10 ** 9
    for part, places in ((big - high * 10 ** 9, range(16, 7, -1)),
                         (high, range(7, -1, -1))):
        part = part.astype(np.uint32)
        for i in places:
            rest = part // 10
            digits[i] = part - rest * 10
            part = rest
    # significant digits left once trailing zeros are stripped
    sig = np.full(n, 17, dtype=np.int8)
    zeros = np.ones(n, dtype=bool)
    for i in range(16, 0, -1):
        zeros &= digits[i] == 0
        sig -= zeros
    digits += ord("0")

    # %g: scientific for an exponent below -4 or from the precision, 17, on
    sci = (e < -4) | (e >= 17)
    small = (e < 0) & ~sci
    e8 = np.where(sci, 0, e).astype(np.int8)
    # digits before the point within the digit columns (18: none there),
    # the digits kept, and the digit columns kept
    point = np.where(sci, 1, np.where(small, 18, e8 + 1)).astype(np.int8)
    kept = np.maximum(sig, np.where(sci | small, 0, point).astype(np.int8))
    width = kept + (kept > point)

    # a zero byte is dropped at the end
    out = np.zeros((n, _SLOT), dtype=np.uint8)
    out[:, _SIGN] = np.signbit(x) * np.uint8(ord("-"))
    out[:, _LEAD] = small * np.uint8(ord("0"))
    out[:, _LEAD + 1] = small * np.uint8(ord("."))
    for t in range(1, 4):
        out[:, _LEAD + 1 + t] = (e8 <= -1 - t) * np.uint8(ord("0"))
    for c in range(18):
        col = (point == c) * np.uint8(ord("."))
        if c < 17:
            col += digits[c] * (point > c)
        if c > 0:
            col += digits[c - 1] * (point < c)
        col *= width > c
        out[:, _DIGITS + c] = col
    if sci.any():
        mag = np.abs(e).astype(np.uint16)
        hundreds, tens = mag // 100, mag // 10
        ones = mag - tens * 10
        tens -= hundreds * 10
        out[:, _EXP] = sci * np.uint8(ord("e"))
        out[:, _EXP + 1] = sci * np.where(e < 0, np.uint8(ord("-")), np.uint8(ord("+")))
        out[:, _EXP + 2] = (hundreds + ord("0")) * (sci & (hundreds > 0))
        out[:, _EXP + 3] = (tens + ord("0")) * sci
        out[:, _EXP + 4] = (ones + ord("0")) * sci
    out[:, _NL] = ord("\n")

    slow = np.flatnonzero(~ok)
    if slow.size:
        # left-aligned in the slot, the padding dropped with the zeros
        text = (f"%-{_NL}.17g" * slow.size) % tuple(x[slow].tolist())
        fill = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(slow.size, _NL)
        out[slow, :_NL] = fill * (fill != ord(" "))
    flat = out.ravel()
    return np.compress(flat != 0, flat)


def write_matrix_market(path, a):
    """Write a dense matrix in Matrix Market array format (column-major)."""
    a = as_matrix(a, "matrix")
    rows, cols = a.shape
    flat = a.T.ravel()
    with open(path, "wb") as f:
        f.write(f"{_HEADER_PREFIX} matrix array real general\n{rows} {cols}\n".encode())
        for start in range(0, flat.size, _CHUNK):
            f.write(_format_17g(flat[start:start + _CHUNK]))


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
            # the lower triangle by columns is the upper triangle by rows
            out = np.empty((rows, cols), dtype=np.float64)
            iu = np.triu_indices(rows)
            out[iu] = out.T[iu] = vals
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
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
