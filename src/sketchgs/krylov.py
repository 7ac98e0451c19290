"""Krylov methods on sparse matrices: Arnoldi with any of the Gram-Schmidt
variants and a GMRES built on it, with optional ILU(0) right preconditioning.

The sparse matrix-vector product and the Givens least-squares recurrence
always run in binary64; only the basis orthogonalization follows the
configured precision policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .gram_schmidt import (BreakdownError, ClassicalGsState, GsVariant,
                           HOUSEHOLDER_QR, LsqSolver, QrFactors, RgsState)
from .precision import MIXED32_64, PrecisionPolicy
from .sketch import SketchOperator

__all__ = [
    "SparseMatrix", "Ilu0Preconditioner", "ilu0", "arnoldi", "gmres",
    "ArnoldiDecomposition", "GmresResult", "best_attainable_residual",
]


@dataclass
class SparseMatrix:
    """Square matrix held as one scipy CSR matrix with binary64 values and
    duplicate entries summed.

    `symmetric_expansion_applied` records that the off-diagonal mirror of a
    symmetric input was materialized at construction.
    """

    csr: scipy.sparse.csr_matrix
    symmetric_expansion_applied: bool = False

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @classmethod
    def from_coo(cls, n: int, rows, cols, vals, symmetric: bool = False) -> "SparseMatrix":
        """Build from coordinate triplets; duplicate entries are summed.

        With symmetric=True only one triangle is given and the mirror entries
        are generated (diagonal entries are not duplicated).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("coordinate arrays have mismatched lengths")
        if rows.size and (rows.min() < 0 or rows.max() >= n
                          or cols.min() < 0 or cols.max() >= n):
            raise ValueError("coordinate index out of range")
        if symmetric:
            off = rows != cols
            rows = np.concatenate([rows, cols[off]])
            cols = np.concatenate([cols, rows[:off.size][off]])
            vals = np.concatenate([vals, vals[off]])
        m = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        m.sum_duplicates()
        return cls(csr=m, symmetric_expansion_applied=symmetric)

    @classmethod
    def from_scipy(cls, m) -> "SparseMatrix":
        m = scipy.sparse.csr_matrix(m, dtype=np.float64, copy=True)
        if m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        m.sum_duplicates()
        return cls(csr=m)

    def to_scipy(self) -> scipy.sparse.csr_matrix:
        return self.csr

    def matvec(self, x) -> np.ndarray:
        return self.csr @ np.asarray(x, dtype=np.float64)


@dataclass
class Ilu0Preconditioner:
    """Zero-fill incomplete LU factors sharing the sparsity pattern of A.

    `solve(v)` applies M^{-1} v = U^{-1} (L^{-1} v), L unit lower triangular.
    """

    L: scipy.sparse.csr_matrix
    U: scipy.sparse.csr_matrix

    def solve(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        y = scipy.sparse.linalg.spsolve_triangular(self.L, v, lower=True,
                                                   unit_diagonal=True)
        return scipy.sparse.linalg.spsolve_triangular(self.U, y, lower=False)


def ilu0(A: SparseMatrix, pivot_tol: float = 1e-30) -> Ilu0Preconditioner:
    """ILU(0): incomplete LU with fill restricted to the pattern of A.

    Row-oriented IKJ elimination on a copy of the CSR values; updates touch
    only positions already present in the pattern. Raises on a vanishing
    pivot.
    """
    n = A.n
    indptr = A.csr.indptr
    indices = A.csr.indices
    data = A.csr.data.copy()
    # Column -> position maps per row, and the diagonal position per row.
    diag_pos = np.full(n, -1, dtype=np.int64)
    colmaps = []
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        cm = {int(indices[p]): p for p in range(lo, hi)}
        colmaps.append(cm)
        if i in cm:
            diag_pos[i] = cm[i]
    if np.any(diag_pos < 0):
        missing = int(np.argmin(diag_pos))
        raise ValueError(f"structural zero diagonal at row {missing}")
    for i in range(1, n):
        lo, hi = indptr[i], indptr[i + 1]
        row_cols = indices[lo:hi]
        for p in range(lo, hi):
            k = int(indices[p])
            if k >= i:
                break
            pivot = data[diag_pos[k]]
            if abs(pivot) < pivot_tol:
                raise ZeroDivisionError(f"ILU(0) pivot too small at row {k}")
            lik = data[p] / pivot
            data[p] = lik
            cmk = colmaps[k]
            for q in range(p + 1, hi):
                j = int(indices[q])
                pos = cmk.get(j)
                if pos is not None:
                    data[q] -= lik * data[pos]
        if abs(data[diag_pos[i]]) < pivot_tol:
            raise ZeroDivisionError(f"ILU(0) pivot too small at row {i}")
    full = scipy.sparse.csr_matrix((data, indices.copy(), indptr.copy()),
                                   shape=(n, n))
    L = scipy.sparse.tril(full, k=-1, format="csr")
    L = (L + scipy.sparse.eye(n, format="csr")).tocsr()
    U = scipy.sparse.triu(full, k=0, format="csr")
    return Ilu0Preconditioner(L=L, U=U)


def _make_gs_state(n: int, variant: GsVariant, policy: PrecisionPolicy,
                   theta: SketchOperator | None, solver: LsqSolver,
                   phi: SketchOperator | None, ncols: int):
    if variant is GsVariant.RGS:
        if theta is None:
            raise ValueError("the randomized variant needs a sketch operator")
        return RgsState(theta, policy, solver, phi=phi, capacity=ncols)
    return ClassicalGsState(n, variant, policy, capacity=ncols)


@dataclass
class ArnoldiDecomposition:
    """Basis Q (n x (m+1)), Hessenberg H ((m+1) x m) with A Q_m ~ Q_{m+1} H,
    and the R factor of the orthogonalized Krylov matrix [b, AQ_m]."""

    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray
    beta: float  # r_11, the (sketched) norm given to b
    breakdown: bool = False


def arnoldi(A: SparseMatrix, b, m: int, variant: GsVariant = GsVariant.RGS,
            theta: SketchOperator | None = None,
            policy: PrecisionPolicy = MIXED32_64,
            solver: LsqSolver = HOUSEHOLDER_QR,
            phi: SketchOperator | None = None) -> ArnoldiDecomposition:
    """m-step Arnoldi: orthogonalize [b, A q_1, ..., A q_m] column by column.

    Returns fewer columns on a lucky breakdown (exhausted Krylov subspace).
    """
    b = np.asarray(b, dtype=np.float64)
    state = _make_gs_state(A.n, variant, policy, theta, solver, phi, m + 1)
    breakdown = False
    state.push(b)
    for i in range(m):
        w = A.matvec(state.Q[:, i].astype(np.float64))
        try:
            state.push(w)
        except BreakdownError:
            breakdown = True
            break
    R = state.R.copy()
    H = R[:, 1:].copy()
    return ArnoldiDecomposition(Q=state.Q.copy(), H=H, R=R,
                                beta=float(R[0, 0]), breakdown=breakdown)


@dataclass
class GmresResult:
    x: np.ndarray
    residual_history: np.ndarray  # estimated residual norms, entry per iteration
    final_residual: float         # true ||b - A x|| / ||b||
    iterations: int
    converged: bool               # final_residual <= tol; breakdown alone is not
    breakdown: bool
    factors: QrFactors | None = None


def _operator_norm_estimate(matvec, n: int, iters: int = 20) -> float:
    """Magnitude of the dominant eigenvalue by power iteration with a fixed
    start vector; used only to normalize the operator to unit scale."""
    v = np.cos(np.arange(n, dtype=np.float64) + 1.0)
    v /= np.linalg.norm(v)
    sigma = 1.0
    for _ in range(iters):
        w = matvec(v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        sigma = nw
        v = w / nw
    return float(sigma)


def gmres(A: SparseMatrix, b, m: int, variant: GsVariant = GsVariant.RGS,
          theta: SketchOperator | None = None,
          policy: PrecisionPolicy = MIXED32_64,
          solver: LsqSolver = HOUSEHOLDER_QR,
          preconditioner: Ilu0Preconditioner | None = None,
          tol: float | None = None,
          phi: SketchOperator | None = None) -> GmresResult:
    """Single-cycle GMRES(m) with progressive Givens rotations.

    The system is normalized internally so the effective operator and right
    hand side both have unit scale, and right preconditioning keeps the true
    residual of the original system observable. No restarting.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n,):
        raise ValueError("right-hand side length mismatch")
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return GmresResult(x=np.zeros(A.n), residual_history=np.zeros(0),
                           final_residual=0.0, iterations=0, converged=True,
                           breakdown=False)

    if preconditioner is None:
        eff_matvec = A.matvec
    else:
        def eff_matvec(v):
            return A.matvec(preconditioner.solve(v))
    # Normalize: work with (A_eff / alpha) z = b / ||b||.
    alpha = _operator_norm_estimate(eff_matvec, A.n)
    if alpha == 0.0:
        raise np.linalg.LinAlgError("operator norm estimate is zero")

    state = _make_gs_state(A.n, variant, policy, theta, solver, phi, m + 1)
    state.push(b / b_norm)
    beta = float(state.R[0, 0])  # ~1 in the sketched norm

    # Progressive Givens data. g holds the rotated rhs beta*e_1; T is the
    # rotated upper-triangular Hessenberg.
    g = np.zeros(m + 1)
    g[0] = beta
    T = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    history = []
    breakdown = False
    iters = 0
    for i in range(m):
        w = eff_matvec(state.Q[:, i].astype(np.float64)) / alpha
        try:
            state.push(w)
        except BreakdownError:
            breakdown = True
            break
        iters = i + 1
        hcol = state.R[:i + 2, i + 1].copy()  # new Hessenberg column
        for j in range(i):
            t = cs[j] * hcol[j] + sn[j] * hcol[j + 1]
            hcol[j + 1] = -sn[j] * hcol[j] + cs[j] * hcol[j + 1]
            hcol[j] = t
        r = np.hypot(hcol[i], hcol[i + 1])
        if r == 0.0:
            cs[i], sn[i] = 1.0, 0.0
        else:
            cs[i], sn[i] = hcol[i] / r, hcol[i + 1] / r
        hcol[i] = r
        hcol[i + 1] = 0.0
        T[:i + 2, i] = hcol
        g[i + 1] = -sn[i] * g[i]
        g[i] = cs[i] * g[i]
        est = abs(g[i + 1]) / beta
        history.append(est)
        if tol is not None and est <= tol:
            break

    k = iters
    if k == 0:
        x = np.zeros(A.n)
    else:
        y = scipy.linalg.solve_triangular(T[:k, :k], g[:k], lower=False)
        # z solves the normalized system; undo preconditioning and scaling.
        z = state.Q[:, :k].astype(np.float64) @ y
        x_tilde = (b_norm / alpha) * z
        x = preconditioner.solve(x_tilde) if preconditioner is not None else x_tilde
    true_res = float(np.linalg.norm(b - A.matvec(x)) / b_norm)
    converged = tol is not None and true_res <= max(tol, 0.0)
    factors = state.factors() if isinstance(state, RgsState) else None
    return GmresResult(x=x, residual_history=np.asarray(history),
                       final_residual=true_res, iterations=k,
                       converged=converged,
                       breakdown=breakdown, factors=factors)


def best_attainable_residual(A: SparseMatrix, Q, b) -> float:
    """Exact min over the span of Q of ||b - A Q y|| / ||b||, in binary64.

    The yardstick for judging whether an iteration extracted all the accuracy
    its basis supports. Empty basis gives 1.
    """
    b = np.asarray(b, dtype=np.float64)
    bn = float(np.linalg.norm(b))
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim == 1:
        Q = Q[:, None]
    if Q.shape[1] == 0:
        return 1.0
    AQ = np.column_stack([A.matvec(Q[:, j]) for j in range(Q.shape[1])])
    y, *_ = np.linalg.lstsq(AQ, b, rcond=None)
    return float(np.linalg.norm(b - AQ @ y) / bn)
