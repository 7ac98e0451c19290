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
                           NonFiniteError, QrFactors, RgsState)
from .io import SparseMatrix
from .precision import MIXED32_64, PrecisionPolicy
from .sketch import SketchOperator

__all__ = [
    "Ilu0Preconditioner", "ilu0", "arnoldi", "gmres",
    "ArnoldiDecomposition", "GmresResult", "best_attainable_residual",
]

PIVOT_TOL = 1e-30  # ILU(0) pivots below this magnitude raise


def _triangular_lu(T: scipy.sparse.csr_matrix):
    """SuperLU factors of a triangular T that are T itself and the identity:
    in the natural order with diagonal pivots nothing fills in. Without fill
    relaxed supernodes and panels gain nothing; turning them off (relax=1,
    panel_size=1) more than halves the factorization time and cuts the
    storage SuperLU keeps tenfold on the 200 x 200 Laplacian."""
    return scipy.sparse.linalg.splu(T.tocsc(), permc_spec="NATURAL",
                                    diag_pivot_thresh=0, relax=1,
                                    panel_size=1,
                                    options=dict(SymmetricMode=True))


@dataclass
class Ilu0Preconditioner:
    """Zero-fill incomplete LU factors sharing the sparsity pattern of A.

    `solve(v)` applies M^{-1} v = U^{-1} (L^{-1} v), L unit lower triangular,
    as two SuperLU triangular solves; L and U are handed to SuperLU once, at
    construction.
    """

    L: scipy.sparse.csr_matrix
    U: scipy.sparse.csr_matrix

    def __post_init__(self):
        self._lu_L = _triangular_lu(self.L)
        self._lu_U = _triangular_lu(self.U)

    def solve(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        return self._lu_U.solve(self._lu_L.solve(v))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + c) over the pairs (s, c)."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def _wavefront_levels(rows: np.ndarray, cols: np.ndarray,
                      n: int) -> np.ndarray:
    """Level of each of the n rows given the strictly lower entries
    (rows[e], cols[e]): 0 for a row without one, else one more than the
    highest level of the rows its entries name."""
    remaining = np.bincount(rows, minlength=n)
    per_col = np.bincount(cols, minlength=n)
    col_start = np.cumsum(per_col) - per_col
    rows_by_col = rows[np.argsort(cols, kind="stable")]
    level = np.empty(n, dtype=np.int64)
    frontier = np.flatnonzero(remaining == 0)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        dependents = rows_by_col[_ranges(col_start[frontier],
                                         per_col[frontier])]
        np.subtract.at(remaining, dependents, 1)
        frontier = np.unique(dependents[remaining[dependents] == 0])
        depth += 1
    return level


def _eliminate(indptr: np.ndarray, indices: np.ndarray,
               data: np.ndarray) -> np.ndarray:
    """ILU(0) elimination in place on the values `data` of a square CSR
    matrix with canonical pattern (indptr, indices); returns the positions
    of the diagonal. The symbolic arrays stay local, so they are freed
    before the caller allocates the factors."""
    n = indptr.size - 1
    indptr = indptr.astype(np.int64)
    # Symbolic phase; the keys row * n + column ascend in a canonical CSR.
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keys = rows * n + indices
    on_diag = indices == rows
    if np.count_nonzero(on_diag) != n:
        missing = np.ones(n, dtype=bool)
        missing[rows[on_diag]] = False
        raise ValueError(f"structural zero diagonal at row "
                         f"{np.flatnonzero(missing)[0]}")
    diag = np.flatnonzero(on_diag)
    lower = np.flatnonzero(indices < rows)
    li, lk = rows[lower], indices[lower]
    del rows, on_diag  # freed early: they set the heap's high-water mark
    # one numeric step per (wavefront level of the row, rank in the row)
    step = _wavefront_levels(li, lk, n)[li] * n + lower - indptr[li]
    order = np.argsort(step, kind="stable")
    lower, li, lk, step = lower[order], li[order], lk[order], step[order]
    bounds = np.append(np.flatnonzero(np.diff(step, prepend=-1)), lower.size)
    # Entry e = (i, k) updates a_ij for each j in row k's strict upper part
    # that row i holds; src is ascending, so the updates group by step too.
    counts = indptr[lk + 1] - diag[lk] - 1
    src = np.repeat(np.arange(lower.size), counts)
    upos = _ranges(diag[lk] + 1, counts)
    wanted = li[src] * n + indices[upos]
    target = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    hit = keys[target] == wanted
    del keys, wanted
    src, upos, target = src[hit], upos[hit], target[hit]
    tbounds = np.searchsorted(src, bounds)
    src -= np.repeat(bounds[:-1], np.diff(tbounds))  # rank within its step
    # Numeric phase; a bad pivot only spoils rows after the one reported.
    pivots = diag[lk]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a, b, c, d in zip(bounds[:-1].tolist(), bounds[1:].tolist(),
                              tbounds[:-1].tolist(), tbounds[1:].tolist()):
            lik = data[lower[a:b]] / data[pivots[a:b]]
            data[lower[a:b]] = lik
            data[target[c:d]] -= lik[src[c:d]] * data[upos[c:d]]
    return diag


def ilu0(A: SparseMatrix) -> Ilu0Preconditioner:
    """ILU(0): incomplete LU with fill restricted to the pattern of A.

    IKJ elimination on a copy of the CSR values: row i takes its strictly
    lower entries in column order, and each sets l_ik = a_ik / u_kk and then
    a_iq -= l_ik * u_kq on every position q of row i whose column row k's
    strict upper part also holds. Rows are grouped by wavefront level (one
    more than the highest level of the rows they eliminate with), and all
    rows of a level take their r-th lower entry in one vectorized step, so
    each value sees the operations of a row-by-row loop in the same order.
    Raises ValueError on a structural zero diagonal, ZeroDivisionError on
    a pivot below `PIVOT_TOL` and FloatingPointError on a non-finite entry
    of A or of its factors, naming the lowest such row.
    """
    n = A.n
    data = A.csr.data.copy()
    diag = _eliminate(A.csr.indptr, A.csr.indices, data)
    small = np.flatnonzero(np.abs(data[diag]) < PIVOT_TOL)
    if small.size:
        raise ZeroDivisionError(f"ILU(0) pivot too small at row {small[0]}")
    finite = np.isfinite(data)
    if not finite.all():  # a NaN pivot passes the check above
        row = np.searchsorted(A.csr.indptr, finite.argmin(), side="right") - 1
        raise FloatingPointError(f"ILU(0) non-finite entry at row {row}")
    full = scipy.sparse.csr_matrix((data, A.csr.indices.copy(),
                                    A.csr.indptr.copy()), shape=(n, n))
    L = scipy.sparse.tril(full, k=-1, format="csr")
    L = (L + scipy.sparse.eye(n, format="csr")).tocsr()
    U = scipy.sparse.triu(full, k=0, format="csr")
    return Ilu0Preconditioner(L=L, U=U)


def _make_gs_state(n: int, variant: GsVariant, policy: PrecisionPolicy,
                   theta: SketchOperator | None, m: int):
    """A state with room for the m + 1 basis columns of m Arnoldi steps."""
    if m < 0:
        raise ValueError(f"need m >= 0 Arnoldi steps, got m={m}")
    if variant is GsVariant.RGS:
        if theta is None:
            raise ValueError("the randomized variant needs a sketch operator")
        return RgsState(theta, policy, capacity=m + 1)
    return ClassicalGsState(n, variant, policy, capacity=m + 1)


def _arnoldi_steps(matvec, state, m: int):
    """Up to m Arnoldi steps on a state holding q_1, yielding each Hessenberg
    column; a lucky breakdown yields the breaking column, its coefficients
    and a zero, pushes nothing and ends the loop."""
    for i in range(m):
        w = matvec(state.Q[:, i].astype(np.float64, copy=False))
        try:
            state.push(w)
        except BreakdownError as exc:
            yield np.append(exc.coefficients, 0.0)
            return
        yield state.R[:i + 2, i + 1].copy()


@dataclass
class ArnoldiDecomposition:
    """Basis Q (n x (m+1)) and Hessenberg H ((m+1) x m) with
    A Q_m ~ Q_{m+1} H, and the (sketched) norm beta given to b.

    On a lucky breakdown at step j, Q has j columns and H is (j+1) x j with
    a zero last row, so A Q_j ~ Q_j H[:j].
    """

    Q: np.ndarray
    H: np.ndarray
    beta: float
    breakdown: bool = False


def arnoldi(A: SparseMatrix, b, m: int, variant: GsVariant = GsVariant.RGS,
            theta: SketchOperator | None = None,
            policy: PrecisionPolicy = MIXED32_64) -> ArnoldiDecomposition:
    """m-step Arnoldi: orthogonalize [b, A q_1, ..., A q_m] column by column.

    Stops early on a lucky breakdown (exhausted Krylov subspace).
    """
    b = np.asarray(b, dtype=np.float64)
    state = _make_gs_state(A.n, variant, policy, theta, m)
    state.push(b)
    H = np.zeros((m + 1, m))
    j = 0
    for j, hcol in enumerate(_arnoldi_steps(A.matvec, state, m), 1):
        H[:j + 1, j - 1] = hcol
    return ArnoldiDecomposition(Q=state.Q, H=H[:j + 1, :j],
                                beta=float(state.R[0, 0]),
                                breakdown=state.m == j)


@dataclass
class GmresResult:
    """`residual_history` holds the estimated residual of each iteration,
    `final_residual` the true ||b - A x|| / ||b||, and `converged` means
    final_residual <= tol, or is None when no tolerance was given (there is
    nothing to compare against); a breakdown alone is not convergence. A lucky
    breakdown keeps the breaking column, as one more iteration with a zero
    estimate, unless its rotated diagonal is below the guard's tolerance:
    the projected operator is then singular and the previous x is kept.
    `factors` are the Gram-Schmidt state's, under every variant, as views of
    its arrays: the pushed Krylov basis Q (no column for b = 0) and
    R = [beta e_1, H] over it; S and P are set for the randomized variant."""

    x: np.ndarray
    residual_history: np.ndarray
    final_residual: float
    iterations: int
    converged: bool | None
    breakdown: bool
    factors: QrFactors


def gmres(A: SparseMatrix, b, m: int, variant: GsVariant = GsVariant.RGS,
          theta: SketchOperator | None = None,
          policy: PrecisionPolicy = MIXED32_64,
          preconditioner: Ilu0Preconditioner | None = None,
          tol: float | None = None) -> GmresResult:
    """Single-cycle GMRES(m) with progressive Givens rotations.

    The Krylov basis starts from b / ||b|| and the operator is not rescaled
    (GMRES is scale invariant), so under a binary32 coarse format an A q
    that overflows it raises `NonFiniteError`, as do a non-finite b and a
    ||b|| that overflows binary64. Right preconditioning keeps the true
    residual of the original system observable. No restarting. The sketched
    residual estimate can read below `tol` while the true residual is still
    above it, so the iteration stops only once the true residual is <= tol.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (A.n,):
        raise ValueError("right-hand side length mismatch")
    with np.errstate(over="ignore"):
        b_norm = float(np.linalg.norm(b))
    if not np.isfinite(b_norm):  # checked before b / ||b|| is formed
        raise NonFiniteError(1, "right-hand side" if not np.isfinite(b).all()
                             else "norm of the right-hand side")
    state = _make_gs_state(A.n, variant, policy, theta, m)
    if b_norm == 0.0:
        return GmresResult(x=np.zeros(A.n), residual_history=np.zeros(0),
                           final_residual=0.0, iterations=0,
                           converged=None if tol is None else True,
                           breakdown=False, factors=state.factors())

    # M^{-1}, the identity without a preconditioner: A M^{-1} is the operator
    M = preconditioner.solve if preconditioner is not None else lambda v: v
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

    def solution(k):
        """x from the first k Arnoldi steps (0 for k = 0), and its true
        relative residual."""
        y = scipy.linalg.solve_triangular(T[:k, :k], g[:k], lower=False)
        # Q y solves the system for b / ||b||; undo that and the preconditioning
        x = M(b_norm * (state.Q[:, :k].astype(np.float64, copy=False) @ y))
        return x, float(np.linalg.norm(b - A.matvec(x)) / b_norm)

    solved_at = None
    steps = _arnoldi_steps(lambda v: A.matvec(M(v)), state, m)
    for i, hcol in enumerate(steps):
        for j in range(i):
            t = cs[j] * hcol[j] + sn[j] * hcol[j + 1]
            hcol[j + 1] = -sn[j] * hcol[j] + cs[j] * hcol[j + 1]
            hcol[j] = t
        r = np.hypot(hcol[i], hcol[i + 1])
        if state.m == i + 1:  # a lucky breakdown, which pushed no column
            breakdown = True
            # a vanishing rotated diagonal (r = 0 included) makes the projected
            # operator singular: the kept column cannot lower the residual
            if r <= state.breakdown_factor * policy.u_crs * np.linalg.norm(hcol):
                break
        iters = i + 1
        cs[i], sn[i] = hcol[i] / r, hcol[i + 1] / r
        hcol[i] = r
        hcol[i + 1] = 0.0
        T[:i + 2, i] = hcol
        g[i + 1] = -sn[i] * g[i]
        g[i] = cs[i] * g[i]
        est = abs(g[i + 1]) / beta
        history.append(est)
        if tol is not None and est <= tol:
            x, true_res = solution(iters)
            solved_at = iters
            if true_res <= tol:
                break

    if solved_at != iters:
        x, true_res = solution(iters)
    converged = None if tol is None else true_res <= max(tol, 0.0)
    return GmresResult(x=x, residual_history=np.asarray(history),
                       final_residual=true_res, iterations=iters,
                       converged=converged,
                       breakdown=breakdown, factors=state.factors())


def best_attainable_residual(A: SparseMatrix, Q, b) -> float:
    """Exact min over the span of Q of ||b - A Q y|| / ||b||, in binary64.

    The yardstick for judging whether an iteration extracted all the accuracy
    its basis supports. An n x 0 basis gives 1, b = 0 gives 0 as in `gmres`.
    """
    b = np.asarray(b, dtype=np.float64)
    bn = float(np.linalg.norm(b))
    if bn == 0.0:
        return 0.0
    AQ = A.csr @ np.asarray(Q, dtype=np.float64)
    y, *_ = np.linalg.lstsq(AQ, b, rcond=None)
    return float(np.linalg.norm(b - AQ @ y) / bn)
