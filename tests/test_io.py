import math
import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchgs import (ExperimentReport, REPORT_COLUMNS, SparseMatrix,
                      generate_laplacian_2d, generate_random_sparse,
                      read_matrix_market, read_report, synthetic_matrix,
                      write_report)
from sketchgs.io import _BLOCK_BYTES, MatrixMarketError


def test_read_matrix_market_general(tmp_path):
    p = tmp_path / "a.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n"
                 "% a comment\n"
                 "3 3 4\n"
                 "1 1 2.5\n"
                 "2 3 -1\n"
                 "3 1 4e-2\n"
                 "1 1 0.5\n")  # duplicate of (1,1), summed
    A = read_matrix_market(p)
    D = A.to_scipy().toarray()
    assert D[0, 0] == 3.0
    assert D[1, 2] == -1.0
    assert D[2, 0] == 0.04


def test_read_matrix_market_symmetric(tmp_path):
    p = tmp_path / "s.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                 "2 2 3\n"
                 "1 1 2\n"
                 "2 1 -1\n"
                 "2 2 2\n")
    A = read_matrix_market(p)
    D = A.to_scipy().toarray()
    assert np.array_equal(D, np.array([[2.0, -1.0], [-1.0, 2.0]]))


def test_read_matrix_market_integer_field(tmp_path):
    p = tmp_path / "i.mtx"
    p.write_text("%%MatrixMarket matrix coordinate integer general\n"
                 "2 2 1\n1 2 7\n")
    assert read_matrix_market(p).to_scipy().toarray()[0, 1] == 7.0


@pytest.mark.parametrize("header,body", [
    ("%%MatrixMarket matrix array real general", "2 2\n1\n2\n3\n4\n"),
    ("%%MatrixMarket matrix coordinate complex general", "2 2 1\n1 1 1 0\n"),
    ("%%MatrixMarket matrix coordinate pattern general", "2 2 1\n1 1\n"),
    ("%%MatrixMarket matrix coordinate real skew-symmetric", "2 2 1\n2 1 1\n"),
    ("%%MatrixMarket matrix coordinate real hermitian", "2 2 1\n1 1 1\n"),
    ("not a header at all", "2 2 1\n1 1 1\n"),
])
def test_read_matrix_market_rejects(tmp_path, header, body):
    p = tmp_path / "bad.mtx"
    p.write_text(header + "\n" + body)
    with pytest.raises(MatrixMarketError):
        read_matrix_market(p)


def test_read_matrix_market_bounds(tmp_path):
    p = tmp_path / "oob.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n"
                 "2 2 1\n3 1 1.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(p)
    q = tmp_path / "rect.mtx"
    q.write_text("%%MatrixMarket matrix coordinate real general\n"
                 "2 3 1\n1 1 1.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(q)


_SPARSE_ENTRIES = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    st.floats(allow_nan=False, allow_infinity=False),
                    max_size=n * n)))


@settings(max_examples=100)
@given(_SPARSE_ENTRIES)
@example((3, {(0, 0): 5e-324, (0, 2): -0.0, (1, 1): 1.7976931348623157e308,
              (2, 0): -2.2250738585072014e-308, (2, 2): 0.1}))
@example((2, {}))
def test_matrix_market_roundtrip(tmp_path_factory, case):
    # any finite binary64 value, subnormals, signed zeros and the largest
    # exponents included, comes back bit for bit in the same CSR layout
    n, entries = case
    rows, cols = [i for i, _ in entries], [j for _, j in entries]
    A = SparseMatrix(scipy.sparse.coo_matrix(
        (list(entries.values()), (rows, cols)), shape=(n, n)))
    p = tmp_path_factory.mktemp("mm") / "rt.mtx"
    # symmetry="general": detecting symmetry would fold (i, j) and (j, i)
    # into one entry, losing -0.0 against 0.0
    scipy.io.mmwrite(p, A.to_scipy().tocoo(), symmetry="general")
    a, b = A.to_scipy(), read_matrix_market(p).to_scipy()
    assert b.shape == a.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


def test_synthetic_matrix_values():
    W = synthetic_matrix(100, 50)
    assert W.shape == (100, 50)
    # corner entries from the closed form on the inclusive unit grids
    assert W[0, 0] == 0.0  # sin(0) / (cos(0) + 1.1)
    assert W[99, 49] == pytest.approx(math.sin(20.0) / 2.1, rel=1e-15)
    assert W[99, 49] == pytest.approx(0.43473583367982266, rel=1e-15)
    i, j = 31, 17
    x, mu = 31 / 99.0, 17 / 49.0
    assert W[i, j] == pytest.approx(
        math.sin(10 * (mu + x)) / (math.cos(100 * (mu - x)) + 1.1), rel=1e-15)
    with pytest.raises(ValueError):
        synthetic_matrix(1, 50)


def test_sparse_matrix_rejects_complex_input():
    # numpy would keep the real parts of the matrix or of the vector, with a
    # ComplexWarning only
    with pytest.raises(TypeError, match="complex input"):
        SparseMatrix(scipy.sparse.csr_matrix(np.eye(3) * (1 + 1j)))
    A = generate_laplacian_2d(3)
    with pytest.raises(TypeError, match="complex input"):
        A.matvec(np.ones(A.n) * 1j)


def _synthetic_by_columns(n, m):
    # reference: the closed form evaluated one column at a time
    x = np.arange(n, dtype=np.float64) / (n - 1)
    W = np.empty((n, m))
    for j in range(m):
        mu = j / (m - 1)
        W[:, j] = np.sin(10.0 * (mu + x)) / (np.cos(100.0 * (mu - x)) + 1.1)
    return W


_BLOCK_ROWS = _BLOCK_BYTES // (8 * 300)  # rows of the work block at m = 300
_WIDE = _BLOCK_BYTES // 8 + 1  # a work block of one row
_BLOCK_COLS = _BLOCK_BYTES // (8 * 2000)  # columns of the work block at n = 2000
_TALL = _BLOCK_BYTES // 8 + 1  # a work block of one column


@pytest.mark.parametrize("n,m", [
    (2, 2), (100, 50), (_BLOCK_ROWS - 1, 300), (_BLOCK_ROWS, 300),
    (_BLOCK_ROWS + 1, 300), (3 * _BLOCK_ROWS + 17, 300), (3, _WIDE),
    (2000, _BLOCK_COLS - 1), (2000, _BLOCK_COLS), (2000, _BLOCK_COLS + 1),
    (2000, 3 * _BLOCK_COLS + 17), (_TALL, 3)])
def test_synthetic_matrix_bits_equal_column_loop(n, m):
    # built column-major in column blocks, every entry keeps the bits of the
    # column loop, across block edges, a partial last block and one-column
    # blocks
    W = synthetic_matrix(n, m)
    assert W.dtype == np.float64 and W.flags.f_contiguous
    assert np.array_equal(W.view(np.uint64),
                          _synthetic_by_columns(n, m).view(np.uint64))


@pytest.mark.parametrize("n,m", [(2048, 2048), (3, 200_000), (200_000, 3)])
def test_synthetic_matrix_memory_beyond_w(n, m):
    # beyond W itself: one work block (about 1 MiB, at least one column), the
    # two grids with their temporaries, and the iteration buffers (bufsize
    # elements per operand) numpy's ufuncs take for a broadcast operation
    tracemalloc.start()
    try:
        W = synthetic_matrix(n, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    budget = (max(_BLOCK_BYTES, 8 * n) + 2 * 8 * (n + m)
              + 2 * 8 * np.getbufsize())
    assert peak - W.nbytes <= budget


def test_synthetic_matrix_trailing_singularity():
    # trailing columns are numerically dependent at binary32 resolution
    W = synthetic_matrix(2000, 300)
    sv = np.linalg.svd(W, compute_uv=False)
    assert sv[-1] / sv[0] < 1e-10


def test_laplacian_2d_structure():
    A = generate_laplacian_2d(3)
    D = A.to_scipy().toarray()
    assert A.n == 9
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 4.0)
    # interior point has 4 neighbors
    assert np.sum(D[4] != 0.0) == 5
    # oracle: kron form of the stencil
    for grid in (2, 3, 7):
        csr = generate_laplacian_2d(grid).to_scipy()
        T = 2 * np.eye(grid) - np.eye(grid, k=1) - np.eye(grid, k=-1)
        K = np.kron(np.eye(grid), T) + np.kron(T, np.eye(grid))
        assert np.array_equal(csr.toarray(), K)
        # no stored zeros: one entry per stencil point
        assert csr.has_canonical_format
        assert csr.nnz == 5 * grid**2 - 4 * grid
        assert csr.indices.dtype == csr.indptr.dtype == np.int32
    with pytest.raises(ValueError, match="at least 2"):
        generate_laplacian_2d(1)


def test_random_sparse_diagonally_dominant():
    A = generate_random_sparse(80, 5, seed=4)
    D = A.to_scipy().toarray()
    for i in range(80):
        off = np.sum(np.abs(D[i])) - abs(D[i, i])
        assert abs(D[i, i]) >= off + 0.999  # diag_shift margin
    B = generate_random_sparse(80, 5, seed=4)
    assert np.array_equal(D, B.to_scipy().toarray())  # seeded
    C = generate_random_sparse(80, 5, seed=5)
    assert not np.array_equal(D, C.to_scipy().toarray())
    # at most n - 1 off-diagonal entries fit in a row
    assert generate_random_sparse(6, 5, seed=4).csr.nnz == 36
    with pytest.raises(ValueError, match="invalid size or fill"):
        generate_random_sparse(6, 6, seed=4)


def test_report_roundtrip(tmp_path):
    rep = ExperimentReport(metadata={"variant": "rgs", "n": 100})
    rep.add_row(1, cond_Q=1.0, omega=0.25)
    rep.add_row(2, cond_Q=1.5, residual_norm=1e-3)
    p = tmp_path / "r.csv"
    write_report(rep, p)
    text = p.read_text()
    assert text.startswith("# n = 100\n# variant = rgs\n")
    assert text.splitlines()[2] == ",".join(REPORT_COLUMNS)
    back = read_report(p)
    assert back.metadata == {"variant": "rgs", "n": "100"}
    assert np.array_equal(back.column("cond_Q"), [1.0, 1.5])
    assert np.isnan(back.column("omega")[1])
    assert back.column("residual_norm")[1] == 1e-3


def test_report_validation():
    rep = ExperimentReport()
    rep.add_row(1, cond_Q=2.0)
    with pytest.raises(ValueError):
        rep.add_row(1, cond_Q=3.0)  # not increasing
    with pytest.raises(ValueError):
        rep.add_row(2, not_a_column=1.0)


def test_report_17_digit_roundtrip(tmp_path):
    v = 0.1 + 0.2  # not representable, needs all 17 digits
    rep = ExperimentReport()
    rep.add_row(1, cond_Q=v)
    p = tmp_path / "d.csv"
    write_report(rep, p)
    assert read_report(p).column("cond_Q")[0] == v


def test_read_report_without_header_raises_value_error(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("# variant = rgs\n")
    with pytest.raises(ValueError, match="no header row") as info:
        read_report(p)
    # a report is not a Matrix Market file; its error must not claim to be
    assert not isinstance(info.value, MatrixMarketError)


@pytest.mark.parametrize("body, message", [
    # a row missing the header's last cell, and one with a cell too many
    ("iteration,cond_Q,cond_S\n1,2.0\n", "line 3: 2 cells under a header of 3"),
    ("iteration,cond_Q,cond_S\n1,2.0,3.0\n2,3.0,4.0,5.0\n",
     "line 4: 4 cells under a header of 3"),
    # a header without an iteration column, and a row with an empty one
    ("cond_Q,cond_S\n2.0,3.0\n", "line 2: header has no iteration column"),
    ("iteration,cond_Q\n,2.0\n", "line 3: no iteration"),
], ids=["short-row", "long-row", "no-iteration-column", "empty-iteration"])
def test_read_report_rejects_malformed_rows(tmp_path, body, message):
    # write_report never writes any of these; zip would pair the cells
    # silently, dropping or losing values, or end in a KeyError
    p = tmp_path / "bad.csv"
    p.write_text("# variant = rgs\n" + body)
    with pytest.raises(ValueError, match=f"^report {message}$"):
        read_report(p)
