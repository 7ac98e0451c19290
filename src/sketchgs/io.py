"""Sparse matrices, Matrix Market files, synthetic problems and CSV reports."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

__all__ = [
    "SparseMatrix", "read_matrix_market", "synthetic_matrix",
    "generate_laplacian_2d", "generate_random_sparse",
    "ExperimentReport", "REPORT_COLUMNS", "write_report", "read_report",
]


@dataclass
class SparseMatrix:
    """Square matrix held as a binary64 copy of the given scipy CSR matrix,
    canonical (sorted column indices, duplicates summed) as `ilu0` assumes.
    """

    csr: scipy.sparse.csr_matrix

    def __post_init__(self):
        self.csr = scipy.sparse.csr_matrix(self.csr, dtype=np.float64, copy=True)
        if self.csr.shape[0] != self.csr.shape[1]:
            raise ValueError("matrix must be square")
        self.csr.sum_duplicates()  # sorts the indices first

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    def to_scipy(self) -> scipy.sparse.csr_matrix:
        return self.csr

    def matvec(self, x) -> np.ndarray:
        return self.csr @ np.asarray(x, dtype=np.float64)


class MatrixMarketError(ValueError):
    pass


def read_matrix_market(path) -> SparseMatrix:
    """Read a square real coordinate Matrix Market file into a CSR matrix.

    `general` and `symmetric` storage (expanded to the full pattern) with a
    real or integer field are read by `scipy.io.mmread`; any other header,
    a malformed file or an out-of-range index raises `MatrixMarketError`.
    Duplicate entries are summed.
    """
    import scipy.io  # on first use: `import sketchgs` does not load it
    try:
        nrows, ncols, _, fmt, fld, symm = scipy.io.mminfo(path)
        if (fmt != "coordinate" or fld not in ("real", "integer", "double")
                or symm not in ("general", "symmetric")):
            raise ValueError(f"unsupported type {fmt} {fld} {symm} (coordinate "
                             "real or integer, general or symmetric only)")
        if nrows != ncols:
            raise ValueError(f"matrix is {nrows}x{ncols}, expected square")
        return SparseMatrix(csr=scipy.io.mmread(path))
    except ValueError as exc:  # scipy's parse errors and the checks above
        raise MatrixMarketError(f"{path}: {exc}") from exc


_BLOCK_BYTES = 1 << 20  # work block of synthetic_matrix


def synthetic_matrix(n: int, m: int) -> np.ndarray:
    """Parametric-function snapshot matrix with entries

        W[i, j] = sin(10 (mu_j + x_i)) / (cos(100 (mu_j - x_i)) + 1.1),

    on inclusive grids x_i = i/(n-1), mu_j = j/(m-1) (zero-based i, j).
    Columns become increasingly linearly dependent, so the trailing part of
    the matrix is numerically singular at binary32 resolution.

    Binary64 and C-ordered, built in place one row block at a time with one
    work block of about 1 MiB (at least one row), so set-up allocates no
    n-length temporary per column. Every entry equals, bit for bit, the
    closed form evaluated one column at a time with the same operations.
    """
    if n < 2 or m < 2:
        raise ValueError("need n >= 2 and m >= 2")
    x = np.arange(n, dtype=np.float64)[:, None] / (n - 1)
    mu = np.arange(m, dtype=np.float64) / (m - 1)
    W = np.empty((n, m))
    rows = min(n, max(1, _BLOCK_BYTES // W[0].nbytes))
    work = np.empty((rows, m))
    for r0 in range(0, n, rows):
        w, xb = W[r0:r0 + rows], x[r0:r0 + rows]
        t = work[:len(w)]
        np.sin(np.multiply(10.0, np.add(mu, xb, out=w), out=w), out=w)
        np.cos(np.multiply(100.0, np.subtract(mu, xb, out=t), out=t), out=t)
        np.divide(w, np.add(t, 1.1, out=t), out=w)
    return W


def generate_laplacian_2d(grid: int) -> SparseMatrix:
    """5-point stencil Laplacian on a grid x grid mesh (n = grid^2 unknowns),
    built as kron(I, T) + kron(T, I) from the 1-D second-difference T."""
    if grid < 2:
        raise ValueError("grid must be at least 2")
    T = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(grid, grid))
    I = scipy.sparse.identity(grid)
    # csr: kron's default block format stores the zeros of a small dense T
    return SparseMatrix(csr=scipy.sparse.kron(I, T, format="csr")
                        + scipy.sparse.kron(T, I, format="csr"))


def generate_random_sparse(n: int, nnz_per_row: int, seed: int,
                           diag_shift: float = 1.0) -> SparseMatrix:
    """Seeded random sparse nonsymmetric matrix, made diagonally dominant.

    Each row gets `nnz_per_row` off-diagonal entries uniform in [-1, 1] at
    uniformly drawn columns, then the diagonal is set to (row absolute sum
    + diag_shift) so the matrix is strictly diagonally dominant and ILU(0)
    cannot hit a zero pivot.
    """
    if n < 1 or nnz_per_row < 0 or nnz_per_row > n - 1:
        raise ValueError("invalid size or fill")
    rng = np.random.Generator(np.random.Philox(key=(int(seed) << 64) | 0x5BA5))
    rows, cols, vals = [], [], []
    offdiag_abs = np.zeros(n)
    for i in range(n):
        choices = rng.choice(n - 1, size=nnz_per_row, replace=False)
        choices = np.where(choices >= i, choices + 1, choices)  # skip diagonal
        v = rng.uniform(-1.0, 1.0, size=nnz_per_row)
        rows.extend([i] * nnz_per_row)
        cols.extend(choices.tolist())
        vals.extend(v.tolist())
        offdiag_abs[i] = np.abs(v).sum()
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(offdiag_abs[i] + diag_shift)
    return SparseMatrix(scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)))


# Fixed CSV column order; absent quantities are left empty.
REPORT_COLUMNS = ("iteration", "cond_Q", "cond_S", "cond_W",
                  "loss_of_orthogonality", "factorization_error",
                  "omega", "omega_bar", "residual_norm")


@dataclass
class ExperimentReport:
    """Per-iteration experiment traces plus the metadata to re-run them: a
    runner's report records every setting its rows depend on."""

    metadata: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)  # dicts keyed by REPORT_COLUMNS

    def add_row(self, iteration: int, **values) -> None:
        unknown = set(values) - set(REPORT_COLUMNS)
        if unknown:
            raise ValueError(f"unknown report columns: {sorted(unknown)}")
        if self.rows and iteration <= self.rows[-1]["iteration"]:
            raise ValueError("iteration indices must be strictly increasing")
        row = {"iteration": int(iteration)}
        row.update(values)
        self.rows.append(row)

    def column(self, name: str) -> np.ndarray:
        return np.array([r.get(name, np.nan) for r in self.rows], dtype=np.float64)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def write_report(report: ExperimentReport, path) -> None:
    """Emit the report as UTF-8 CSV: `#`-prefixed metadata lines, a header
    row, one line per iteration, LF endings, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(report.metadata):
            fh.write(f"# {key} = {report.metadata[key]}\n")
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for row in report.rows:
            fh.write(",".join(_fmt(row.get(c)) for c in REPORT_COLUMNS) + "\n")


def read_report(path) -> ExperimentReport:
    """Inverse of `write_report` (metadata values come back as strings);
    a header or row that `write_report` never writes is a ValueError."""
    report = ExperimentReport()
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for no, line in enumerate(lines, 1):
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            report.metadata[key.strip()] = val.strip()
        elif line:
            body.append((no, line.split(",")))
    if not body:
        raise ValueError("report has no header row")
    (no, header), rows = body[0], body[1:]
    if "iteration" not in header:
        raise ValueError(f"report line {no}: header has no iteration column")
    for no, cells in rows:
        if len(cells) != len(header):
            raise ValueError(f"report line {no}: {len(cells)} cells under a "
                             f"header of {len(header)}")
        values = {name: int(cell) if name == "iteration" else float(cell)
                  for name, cell in zip(header, cells) if cell != ""}
        if "iteration" not in values:
            raise ValueError(f"report line {no}: no iteration")
        report.add_row(values.pop("iteration"), **values)
    return report
