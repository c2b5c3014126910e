import numpy as np
import pytest
import scipy.io
import scipy.sparse

from rsvdlab.mmio import read_matrix_market, write_csv, write_matrix_market
from rsvdlab.rng import RngStream, gaussian_matrix


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
    text = path.read_text()
    assert text.endswith("\n") and "\r" not in text
    header, row = text.strip().split("\n")
    assert header == "name,value"
    assert float(row.split(",")[1]) == value
