import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import HealthCheck, given, settings, strategies as st

from rsvdlab import mmio
from rsvdlab.mmio import (_CHUNK, _format_17g, _scaled, read_matrix_market, write_csv,
                         write_matrix_market)
from rsvdlab.rng import RngStream, gaussian_matrix

from _oracles import line_loop_read_matrix_market, line_loop_write_matrix_market


def test_array_roundtrip(tmp_path):
    a = gaussian_matrix(5, 3, RngStream(1, 0))
    path = tmp_path / "a.mm"
    write_matrix_market(path, a)
    b = read_matrix_market(path)
    assert np.array_equal(a, b)


def test_array_format_readable_by_scipy(tmp_path):
    a = gaussian_matrix(4, 4, RngStream(2, 0))
    path = tmp_path / "a.mm"
    write_matrix_market(path, a)
    b = scipy.io.mmread(path)
    assert np.allclose(np.asarray(b), a, atol=0.0)


def test_coordinate_roundtrip_general(tmp_path):
    a = np.zeros((4, 3))
    a[0, 1] = 2.5
    a[3, 0] = -1.25
    path = tmp_path / "c.mm"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "% written by hand\n"
                    "4 3 2\n"
                    "1 2 2.5\n"
                    "4 1 -1.25\n")
    assert np.array_equal(read_matrix_market(path), a)


def test_coordinate_roundtrip_symmetric(tmp_path):
    a = np.array([[1.0, 2.0, 0.0], [2.0, 0.0, -3.0], [0.0, -3.0, 4.0]])
    path = tmp_path / "s.mtx"
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(a), symmetry="symmetric")
    assert "coordinate real symmetric" in path.read_text().splitlines()[0]
    assert np.array_equal(read_matrix_market(path), a)


def test_read_scipy_written_file(tmp_path):
    a = gaussian_matrix(6, 2, RngStream(3, 0))
    path = tmp_path / "scipy.mtx"
    scipy.io.mmwrite(path, a)
    assert np.allclose(read_matrix_market(path), a, atol=1e-12)


def test_malformed_files_rejected(tmp_path):
    path = tmp_path / "bad.mm"
    path.write_text("not a matrix market file\n1 1\n0\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)
    path.write_text("%%MatrixMarket matrix array complex general\n1 1\n0\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)


def test_csv_writer_format(tmp_path):
    path = tmp_path / "out.csv"
    value = 0.1234567890123456789
    write_csv(path, ("name", "value"), [("row", value)])
    data = path.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data
    header, row = data.decode().strip().split("\n")
    assert header == "name,value"
    assert float(row.split(",")[1]) == value


# --- the vectorized reader and writer against the line-loop ones they replace

FILLERS = ("", "   ", "\t", "% comment", "  % indented comment", "%")


def _same_matrix(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype == np.float64
            and a.flags.c_contiguous and b.flags.c_contiguous
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def _float_text(draw):
    x = draw(st.floats(allow_nan=False, allow_infinity=False)
             | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                1.7976931348623157e308, 1e-300, -1e300]))
    fmt = draw(st.sampled_from([repr, lambda v: format(v, ".17g"),
                                lambda v: format(v, ".3e"), lambda v: format(v, "E"),
                                lambda v: format(v, "+.25g")]))
    text = fmt(x)
    # a short form of a value near the largest double can round up past it
    return text if np.isfinite(float(text)) else repr(x)


def _int_text(draw):
    return draw(st.sampled_from(["{}", "{:+}", "{:03}"])).format(
        draw(st.integers(-10**20, 10**20)))


def _index_text(draw, bound):
    return draw(st.sampled_from(["{}", "+{}", "0{}"])).format(draw(st.integers(1, bound)))


@st.composite
def mm_files(draw):
    """Text of a valid Matrix Market file with blank and comment lines,
    spacing variants and, for coordinate files, duplicate positions and
    upper-triangle entries in symmetric files."""
    layout = draw(st.sampled_from(["array", "coordinate"]))
    field = draw(st.sampled_from(["real", "integer"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    rows = draw(st.integers(0 if layout == "coordinate" else 1, 7))
    cols = rows if symmetry == "symmetric" else draw(st.integers(1, 7))
    value = _float_text if field == "real" else _int_text
    if layout == "array":
        count = rows * (rows + 1) // 2 if symmetry == "symmetric" else rows * cols
        data = [value(draw) for _ in range(count)]
        size = f"{rows} {cols}"
    else:
        count = draw(st.integers(0, 3 * rows * cols)) if rows else 0
        # indices drawn from a small range, so positions repeat
        data = [" ".join([_index_text(draw, rows), _index_text(draw, cols), value(draw)])
                for _ in range(count)]
        size = f"{rows} {cols} {count}"
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    lines = [f"%%MatrixMarket matrix {layout} {field} {symmetry}"]
    lines += draw(st.lists(st.sampled_from(FILLERS), max_size=3))
    lines.append(size)
    for line in data:
        lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        lines.append(lead + line.replace(" ", sep) + trail)
    lines += draw(st.lists(st.sampled_from(FILLERS), max_size=2))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mm_files())
def test_reader_equals_line_loop_oracle(tmp_path, text):
    path = tmp_path / "m.mtx"
    path.write_text(text, encoding="utf-8")
    assert _same_matrix(read_matrix_market(path), line_loop_read_matrix_market(path))


def test_reader_equals_line_loop_oracle_on_wide_exponents(tmp_path):
    gen = np.random.default_rng(11)
    n = 200_000
    vals = gen.standard_normal(n) * 10.0 ** gen.uniform(-300, 300, n)
    vals[:4] = [-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308]
    strings = [format(float(v), fmt) for v, fmt in zip(vals, np.resize([".17g", "", ".6e"], n))]
    path = tmp_path / "wide.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n400 500\n"
                    + "\n".join(strings) + "\n", encoding="utf-8")
    assert _same_matrix(read_matrix_market(path), line_loop_read_matrix_market(path))


def test_coordinate_scatter_keeps_last_write_in_file_order(tmp_path):
    # (2, 1) then its upper-triangle twin (1, 2): the mirror of each write
    # lands right after it, so the later line decides both positions
    path = tmp_path / "dup.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "3 3 5\n2 1 7.0\n1 2 -1.5\n3 3 4.0\n3 3 -0.0\n1 3 2.0\n")
    expected = np.array([[0.0, -1.5, 2.0], [-1.5, 0.0, 0.0], [2.0, 0.0, -0.0]])
    a = read_matrix_market(path)
    assert _same_matrix(a, expected)
    assert _same_matrix(a, line_loop_read_matrix_market(path))


@settings(max_examples=150, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 6)), data=st.data())
def test_writer_bytes_equal_value_loop_oracle(tmp_path_factory, shape, data):
    a = np.array(data.draw(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64)
        | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
        min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))).reshape(shape)
    folder = tmp_path_factory.mktemp("w")
    write_matrix_market(folder / "new.mm", a)
    line_loop_write_matrix_market(folder / "old.mm", a)
    assert (folder / "new.mm").read_bytes() == (folder / "old.mm").read_bytes()


def test_writer_bytes_equal_oracle_across_chunks(tmp_path):
    # two whole chunks and a partial third; non-square, so column-major
    # order is checked too
    gen = np.random.default_rng(12)
    a = gen.standard_normal((400, 401)) * 10.0 ** gen.uniform(-300, 300, (400, 401))
    a[0, 0], a[-1, -1], a[5, 7] = -0.0, 5e-324, -1.7976931348623157e308
    assert a.size > 2 * _CHUNK
    write_matrix_market(tmp_path / "new.mm", a)
    line_loop_write_matrix_market(tmp_path / "old.mm", a)
    assert (tmp_path / "new.mm").read_bytes() == (tmp_path / "old.mm").read_bytes()
    assert _same_matrix(read_matrix_market(tmp_path / "new.mm"), a)


# --- the vectorized '%.17g' formatter against Python's own

def _percent_17g(values):
    return "".join("%.17g\n" % v for v in np.asarray(values).tolist()).encode("ascii")


def _assert_formats_like_percent(values):
    values = np.asarray(values, dtype=np.float64)
    assert _format_17g(values).tobytes() == _percent_17g(values)


_finite_bit_patterns = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.uint64(b).view(np.float64))).filter(np.isfinite)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_finite_bit_patterns, min_size=1, max_size=50))
def test_formatter_equals_percent_on_raw_bit_patterns(values):
    _assert_formats_like_percent(values)


def _powers_of_ten_and_neighbours():
    p = 10.0 ** np.arange(-300, 301)
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def _completion_values():
    gen = np.random.default_rng(13)
    basis = np.linalg.qr(gen.standard_normal((300, 3)))[0]
    truth = (basis * (300 * np.linspace(1.0, 0.6, 3))) @ basis.T
    return (truth + 0.1 * gen.standard_normal((300, 300))).ravel()


def _random_bit_patterns():
    bits = np.random.default_rng(14).integers(0, 2 ** 64, 100_000, dtype=np.uint64,
                                              endpoint=False)
    values = bits.view(np.float64)
    return values[np.isfinite(values)]


def _integers():
    powers = 2.0 ** np.arange(63)
    drawn = np.random.default_rng(15).integers(0, 2 ** 62, 20_000).astype(np.float64)
    return np.concatenate([np.arange(1000.0), powers, powers - 1, powers + 1,
                           10.0 ** np.arange(23) + 1, drawn])


@pytest.mark.parametrize("make", [
    _powers_of_ten_and_neighbours, _completion_values, _random_bit_patterns, _integers,
    lambda: np.random.default_rng(16).standard_normal(50_000)
    * 10.0 ** np.random.default_rng(17).integers(-30, 30, 50_000),
], ids=["powers-of-ten", "completion", "bit-patterns", "integers", "wide-normal"])
def test_formatter_equals_percent_on_value_sets(make):
    values = make()
    _assert_formats_like_percent(np.concatenate([values, -values]))


def test_formatter_edge_values():
    _assert_formats_like_percent([
        0.0, -0.0, 100000000000000.125, 5e-324, -5e-324, 2.2250738585072014e-308,
        np.nextafter(2.2250738585072014e-308, 0.0), 1.7976931348623157e308,
        -1.7976931348623157e308, 1e-4, np.nextafter(1e-4, 0.0), 1e16, 1e17,
        np.nextafter(1e17, 0.0), 0.1, 0.5, 1.0 / 3.0, np.inf, -np.inf, np.nan])
    _assert_formats_like_percent([])


@pytest.mark.parametrize("double_table", [False, True])
def test_formatter_fallback_alone_gives_the_same_bytes(monkeypatch, double_table):
    # a margin of 0.5 certifies nothing, so every value takes the '%' path;
    # where long double is double the table overflows and the margin is inf
    table = mmio._pow10_table()[0]
    if double_table:
        with np.errstate(over="ignore"):
            table = table.astype(np.float64).astype(np.longdouble)
    monkeypatch.setattr(mmio, "_pow10_table",
                        lambda: (table, np.inf if double_table else 0.5))
    values = np.concatenate([_completion_values()[:20_000], _powers_of_ten_and_neighbours(),
                             _random_bit_patterns()[:20_000], [0.0, -0.0]])
    assert not _scaled(np.abs(values))[2].any()
    _assert_formats_like_percent(values)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_misestimated_exponents_fall_back(monkeypatch, shift):
    # log10 off by one either way puts the scaled value outside [10^16, 10^17)
    log10 = np.log10
    monkeypatch.setattr(mmio.np, "log10", lambda a: log10(a) + shift)
    values = _completion_values()[:20_000]
    assert not _scaled(np.abs(values))[2].any()
    _assert_formats_like_percent(values)


def test_gaussian_matrix_mostly_takes_the_fast_path():
    # about 2% of values sit within the margin of a rounding tie; a slide
    # of most values to the slow '%' path fails here
    a = np.random.default_rng(18).standard_normal((1000, 1000))
    ok = _scaled(np.abs(a.ravel()))[2]
    assert ok.mean() > 0.95


# --- malformed files raise ValueError, never another exception type

def _read_or_value_error(path):
    try:
        return read_matrix_market(path)
    except ValueError:
        return None


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mm_files(), data=st.data())
def test_fuzzed_files_raise_only_value_error(tmp_path, text, data):
    cut = data.draw(st.integers(0, len(text)))
    chars = list(text)
    for _ in range(data.draw(st.integers(0, 3))):
        if chars:
            chars[data.draw(st.integers(0, len(chars) - 1))] = data.draw(
                st.sampled_from(list(" \t\n\r\x0c\x00%.-+e019xé")))
    path = tmp_path / "m.mtx"
    for mangled in (text[:cut], "".join(chars)):
        path.write_text(mangled, encoding="utf-8")
        _read_or_value_error(path)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mm_files(), data=st.data(),
       fault=st.sampled_from(["drop_line", "extra_field", "missing_field",
                              "nan", "inf", "bad_index", "size_fields"]))
def test_malformed_files_raise_value_error(tmp_path, text, data, fault):
    lines = text.rstrip("\n").split("\n")
    layout = lines[0].split()[2]
    size_at, *numbers = [k for k, ln in enumerate(lines)
                         if k > 0 and ln.strip() and not ln.lstrip().startswith("%")]
    if fault == "size_fields":
        lines[size_at] += " 1"
    else:
        if not numbers:
            return
        # the last data line: its position is not written again later
        k = numbers[-1]
        fields = lines[k].split()
        if fault == "drop_line":
            del lines[data.draw(st.sampled_from(numbers))]
        elif fault == "extra_field":
            lines[k] += " 1"
        elif fault == "missing_field":
            lines[k] = " ".join(fields[:-1]) if len(fields) > 1 else ""
            if not lines[k]:
                del lines[k]
        elif fault in ("nan", "inf"):
            lines[k] = " ".join(fields[:-1] + [data.draw(st.sampled_from(
                ["nan", "NaN", "-nan"] if fault == "nan" else ["inf", "-inf", "Infinity"]))])
        elif layout == "coordinate":
            rows, cols = (int(v) for v in lines[size_at].split()[:2])
            col = data.draw(st.integers(0, 1))
            fields[col] = str(data.draw(st.sampled_from(
                [0, -1, (rows, cols)[col] + 1, 10**12])))
            lines[k] = " ".join(fields)
        else:
            return
    path = tmp_path / "m.mtx"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_matrix_market(path)


@pytest.mark.parametrize("entry,message", [
    ("0 1 5.0", "row index 0 outside 1..3"),
    ("1 0 5.0", "column index 0 outside 1..2"),
    ("4 1 5.0", "row index 4 outside 1..3"),
    ("1 3 5.0", "column index 3 outside 1..2"),
    ("-2 1 5.0", "row index -2 outside 1..3"),
    ("1.0 1 5.0", "could not convert"),
    ("99999999999999999999 1 5.0", "could not convert"),
])
def test_coordinate_index_out_of_range_names_path_and_index(tmp_path, entry, message):
    path = tmp_path / "idx.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n3 2 1\n{entry}\n")
    with pytest.raises(ValueError, match=message) as info:
        read_matrix_market(path)
    assert str(path) in str(info.value)


def test_symmetric_must_be_square(tmp_path):
    path = tmp_path / "rect.mtx"
    for body in ("array real symmetric\n3 2\n1\n2\n3\n4\n5\n6\n",
                 "coordinate real symmetric\n2 3 1\n1 3 1.0\n"):
        path.write_text("%%MatrixMarket matrix " + body)
        with pytest.raises(ValueError, match="must be square"):
            read_matrix_market(path)


def test_empty_bodies(tmp_path):
    path = tmp_path / "e.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n% c\n2 3 0\n% c\n\n")
    assert _same_matrix(read_matrix_market(path), np.zeros((2, 3)))
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 3 1\n% c\n")
    with pytest.raises(ValueError, match="expected 1 entries, found 0"):
        read_matrix_market(path)
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n")
    with pytest.raises(ValueError, match="expected 2 values, found 0"):
        read_matrix_market(path)


def test_array_line_with_two_values_rejected(tmp_path):
    path = tmp_path / "two.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0 2.0\n")
    with pytest.raises(ValueError, match="one value per line"):
        read_matrix_market(path)


def test_non_finite_value_rejected_even_when_overwritten(tmp_path):
    path = tmp_path / "nan.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 nan\n1 1 2.0\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_matrix_market(path)


def test_oversized_declaration_is_value_error(tmp_path):
    # 10^18 float64 entries (8 EB) cannot be allocated whatever the overcommit
    # setting, so numpy's MemoryError is what the reader has to translate
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "1000000000 1000000000 1\n1 1 5.0\n")
    with pytest.raises(ValueError, match="declared size 1000000000x1000000000") as info:
        read_matrix_market(path)
    assert str(path) in str(info.value)
