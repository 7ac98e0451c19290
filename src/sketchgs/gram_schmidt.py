"""Gram-Schmidt factorizers: the sketched (randomized) process and the
classical CGS/MGS/CGS2 baselines, plus the computable stability
certificates.

The randomized process orthonormalizes with respect to the sketched inner
product <Theta., Theta.>: projection coefficients come from a small k x i
least-squares problem on sketches, solved by Householder QR of the sketched
basis kept in compact WY form and grown one column per step (backward
stable in the fine precision, as the stability analysis assumes); the
expensive n-dimensional projection update runs at the coarse roundoff, and
everything else runs fine.

Step 1 (p = Theta w) needs no earlier column, so `rgs_factorize` of an array
sketches W in blocks of columns (`RgsState.push_block`). Under P-SRHT that
keeps the bits of pushing one column at a time; under Rademacher the block
apply sums in another order, so its outputs agree with `push` to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .precision import MIXED32_64, UNIFIED64, PrecisionPolicy
from .sketch import SketchOperator

__all__ = [
    "GsVariant", "QrFactors", "StabilityCertificate", "BreakdownError",
    "NonFiniteError", "RgsState", "ClassicalGsState", "rgs_factorize",
    "classical_factorize",
    "certificates", "loss_of_orthogonality",
]

# A column whose sketched norm falls below this multiple of u_crs*||p_i||
# cannot be meaningfully normalized; fail loudly instead of dividing.
BREAKDOWN_FACTOR = 10.0

# Columns per push_block in rgs_factorize: a gemm per Rademacher sign block
# instead of a gemv per column, for an extra n x 32 binary64 copy.
_SKETCH_BLOCK = 32


class BreakdownError(RuntimeError):
    """Vanishing projection residual at a given (1-based) column index;
    `coefficients` are the column's projection coefficients, in binary64."""

    def __init__(self, column: int, r_ii: float, tol: float, coefficients):
        super().__init__(f"breakdown at column {column}: "
                         f"r_ii={r_ii:.3e} <= tol={tol:.3e}")
        self.column = column
        self.r_ii = r_ii
        self.tol = tol
        self.coefficients = np.asarray(coefficients, dtype=np.float64)


class NonFiniteError(ArithmeticError):
    """A NaN or infinity in an input column, in a norm the breakdown guard
    reads, or in a column of Q stored in the coarse format, at a 1-based index."""

    def __init__(self, column: int, where: str):
        super().__init__(f"non-finite {where} at column {column}")
        self.column = column


def _require_finite(x, column: int, where: str) -> None:
    if not np.isfinite(x).all():
        raise NonFiniteError(column, where)


class GsVariant(Enum):
    CGS = "cgs"
    MGS = "mgs"
    CGS2 = "cgs2"
    RGS = "rgs"


@dataclass
class QrFactors:
    """Q (n x m), upper-triangular R (m x m); for the randomized process also
    the sketches S = Theta@Q and P = Theta@W."""

    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray | None = None
    P: np.ndarray | None = None


@dataclass
class StabilityCertificate:
    """Computable a-posteriori stability data for a sketched factorization."""

    delta_m: float
    delta_tilde_m: float
    cond_S: float

    def passes_gate(self) -> bool:
        """The Delta_m, Delta~_m <= 0.1 hypothesis of the stability theorem."""
        return self.delta_m <= 0.1 and self.delta_tilde_m <= 0.1

    def sigma_enclosure(self, eps: float, u_crs: float) -> tuple[float, float]:
        """Implied [sigma_min, sigma_max] enclosure for the computed Q."""
        lo = (1.0 + eps)**-0.5 * (1.0 - self.delta_m - 0.1 * u_crs)
        hi = (1.0 - eps)**-0.5 * (1.0 + self.delta_m + 0.1 * u_crs)
        return lo, hi


class _IncrementalHouseholderQR:
    """QR of a tall matrix grown one column at a time.

    The reflectors I - tau_j v_j v_j^T are kept in compact WY form, their
    product being I - V T V^T with T upper triangular, so Q^T z costs two
    gemvs and a small triangular product. Everything is stored in the given
    dtype, so running this in float32 emulates a unified low-precision solve.
    Appending column i costs O(k*i). The arrays double from a fixed initial
    width, so results do not depend on how many columns the caller expects.
    """

    def __init__(self, k: int, dtype):
        self.k = k
        self.dtype = np.dtype(dtype)
        self.ncols = 0
        cap = min(16, k)
        self._V = np.zeros((k, cap), dtype=self.dtype, order="F")
        self._T = np.zeros((cap, cap), dtype=self.dtype, order="F")
        self._R = np.zeros((cap, cap), dtype=self.dtype, order="F")

    def _wy(self, z: np.ndarray) -> np.ndarray:
        """T^T V^T z, so that Q^T z = z - V (T^T V^T z)."""
        i = self.ncols
        return self._T[:i, :i].T @ (self._V[:, :i].T @ z)

    def append(self, col) -> None:
        z = np.asarray(col, dtype=self.dtype)
        if z.shape != (self.k,):
            raise ValueError("column length mismatch")
        i = self.ncols
        if i >= self.k:
            raise ValueError("cannot append more columns than rows")
        if i == self._V.shape[1]:
            cap = min(2 * i, self.k)
            self._V = _widened(self._V, (self.k, cap), "F")
            self._T = _widened(self._T, (cap, cap), "F")
            self._R = _widened(self._R, (cap, cap), "F")
        z = z - self._V[:, :i] @ self._wy(z)
        v = z[i:].copy()
        normx = np.linalg.norm(v)
        alpha = -np.copysign(normx, v[0]) if v[0] != 0 else -normx
        v[0] -= alpha
        vn2 = v @ v
        if vn2 == 0.0:  # exactly zero tail: column already in span
            v[:] = 0.0
            v[0] = vn2 = 1.0
        tau = 2.0 / vn2
        self._V[i:, i] = v
        self._T[:i, i] = -tau * (self._T[:i, :i] @ (self._V[i:, :i].T @ v))
        self._T[i, i] = tau
        self._R[:i, i] = z[:i]
        self._R[i, i] = alpha
        self.ncols = i + 1

    def triangular(self) -> np.ndarray:
        return self._R[:self.ncols, :self.ncols]

    def solve(self, p) -> np.ndarray:
        """Least-squares solution against the appended columns."""
        i = self.ncols
        p = np.asarray(p, dtype=self.dtype)
        z = p[:i] - self._V[:i, :i] @ self._wy(p)  # leading i rows of Q^T p
        R = self.triangular()
        diag = np.abs(np.diag(R))
        if np.min(diag) < 1e-8 * max(np.max(diag), 1.0):
            raise np.linalg.LinAlgError("sketched basis numerically rank deficient")
        return scipy.linalg.solve_triangular(R, z, lower=False)


def _widened(a: np.ndarray, shape: tuple, order: str = "C") -> np.ndarray:
    """Zeros of the given shape and order, with `a` in the leading block."""
    out = np.zeros(shape, dtype=a.dtype, order=order)
    out[tuple(map(slice, a.shape))] = a
    return out


class _GsState:
    """What every Gram-Schmidt variant shares: Q (laid out in `_Q_ORDER`) and
    R, doubled when full, the input checks, the breakdown guard and the store.
    A variant's `push` runs its projection pass between `_next_column` and
    `_store`; a push that raises leaves the trimmed views as they were."""

    def __init__(self, n: int, policy: PrecisionPolicy, capacity: int,
                 breakdown_factor: float):
        self.policy = policy
        # breakdown_factor = 0 disables the guard: benchmark protocols push
        # through numerically singular columns the way the solver would.
        self.breakdown_factor = breakdown_factor
        self.n = n
        self.m = 0
        self._Q = np.zeros((n, capacity), dtype=policy.coarse_dtype,
                           order=self._Q_ORDER)
        self._R = np.zeros((capacity, capacity))

    @property
    def Q(self):
        return self._Q[:, :self.m]

    @property
    def R(self):
        return self._R[:self.m, :self.m]

    def _grow(self):
        cap = self._Q.shape[1]
        if self.m < cap:
            return
        self._Q = _widened(self._Q, (self.n, 2 * cap), self._Q_ORDER)
        self._R = _widened(self._R, (2 * cap, 2 * cap))

    def _next_column(self, w) -> np.ndarray:
        """Room for one more column, and w as a checked binary64 vector."""
        self._grow()
        # one contiguous copy, so a strided column of W is read only once
        w64 = np.ascontiguousarray(w, dtype=np.float64)
        if w64.shape != (self.n,):
            raise ValueError("column length mismatch")
        _require_finite(w64, self.m + 1, "input")
        return w64

    def _store(self, qp, r_col, r_ii: float, ref_norm: float) -> None:
        """Guard, then store q'/r_ii as column m of Q and (r_col, r_ii) as
        column m of R; the division runs in the dtype of q'. The guard trips
        when r_ii <= breakdown_factor * u_crs * ref_norm."""
        i = self.m
        tol = self.breakdown_factor * self.policy.u_crs * ref_norm
        if r_ii == np.inf or tol == np.inf:  # overflowed, not vanishing
            raise NonFiniteError(i + 1, "norm")
        if r_ii <= tol:
            raise BreakdownError(i + 1, r_ii, tol, r_col)
        self._Q[:, i] = qp / qp.dtype.type(r_ii)  # rounded to the coarse format
        _require_finite(self._Q[:, i], i + 1, "stored column of Q")
        self._R[:i, i] = r_col
        self._R[i, i] = r_ii


class RgsState(_GsState):
    """Streaming state of the randomized factorizer; one column per `push`.

    Exposed so a Krylov iteration can generate w_{i+1} = A q_i between steps.
    `factors()` returns copies trimmed to the current column count. Q is
    column-major, so the update Q r sees leading dimension n whatever
    `capacity` is, a new column is one contiguous write, and unused columns
    are never touched.
    """

    _Q_ORDER = "F"

    def __init__(self, theta: SketchOperator, policy: PrecisionPolicy = MIXED32_64,
                 capacity: int = 16, breakdown_factor: float = BREAKDOWN_FACTOR):
        super().__init__(theta.n, policy, capacity, breakdown_factor)
        self.theta = theta
        self._S = np.zeros((theta.k, capacity), dtype=policy.fine_dtype)
        self._P = np.zeros((theta.k, capacity), dtype=policy.fine_dtype)
        self._qr = _IncrementalHouseholderQR(theta.k, policy.fine_dtype)
        self._sketched = iter(())  # push_block's Step-1 sketches, in order

    @property
    def S(self):
        return self._S[:, :self.m]

    @property
    def P(self):
        return self._P[:, :self.m]

    def _grow(self):
        if self.m == self._Q.shape[1]:  # full: S and P double with Q and R
            self._S, self._P = (_widened(a, (a.shape[0], 2 * self.m))
                                for a in (self._S, self._P))
        super()._grow()

    def push(self, w) -> float:
        """Run one iteration on the next column; returns the diagonal r_ii.
        Called by `push_block`, it takes Step 1 from the block's sketch."""
        w64 = self._next_column(w)
        i = self.m  # zero-based index of the new column
        policy = self.policy
        fine = policy.fine_dtype
        p = next(self._sketched, None)
        if p is None:
            p = self.theta.apply(w64).astype(fine, copy=False)  # Step 1 (u_fine)

        if i == 0:
            r_col = np.zeros(0, dtype=fine)
            qp = w64.astype(policy.coarse_dtype).astype(np.float64)
            sp = p.copy()
        else:
            r_col = self._qr.solve(p)                         # Step 2 (u_fine)
            # Step 3 (u_crs): q' = w - Q_{i-1} r, native arithmetic in the
            # coarse format (hardware binary32 BLAS under the mixed policy),
            # then widened exactly to binary64 for the sketches
            crs = policy.coarse_dtype
            qp = (w64.astype(crs) - self._Q[:, :i] @ r_col.astype(crs)
                  ).astype(np.float64)
            sp = self.theta.apply(qp).astype(fine, copy=False)  # Step 4

        r_ii = float(np.sqrt(np.sum(sp * sp)))                # Step 5 (u_fine)
        # q' is binary64 here: divided in binary64, rounded once on store
        self._store(qp, r_col, r_ii, float(np.linalg.norm(p)))
        self._S[:, i] = sp / fine.type(r_ii)                  # Step 6 (u_fine)
        self._P[:, i] = p
        self._qr.append(self._S[:, i])
        self.m += 1
        return r_ii

    def push_block(self, Wb) -> np.ndarray:
        """`push` each column of an n x b block, with Step 1 run for all of
        them as one `theta.apply_block`; returns their r_ii. A non-finite
        entry pushes no column; a later failure keeps the columns before it.
        Bits equal b `push` calls under P-SRHT, or for b = 1 (see
        `SketchOperator.apply_block`)."""
        Wb = np.asarray(Wb, dtype=np.float64, order="F")  # contiguous columns
        if Wb.ndim != 2 or Wb.shape[0] != self.n:
            raise ValueError("block must be a matrix with n rows")
        bad = np.flatnonzero(~np.isfinite(Wb).all(axis=0))
        if bad.size:
            raise NonFiniteError(self.m + int(bad[0]) + 1, "input")
        P = self.theta.apply_block(Wb).astype(self.policy.fine_dtype, order="F")
        self._sketched = iter(P.T)
        try:
            return np.array([self.push(w) for w in Wb.T])
        finally:
            self._sketched = iter(())

    def factors(self) -> QrFactors:
        return QrFactors(Q=self.Q.copy(order="F"), R=self.R.copy(),
                         S=self.S.copy(), P=self.P.copy())


def rgs_factorize(W, theta: SketchOperator, policy: PrecisionPolicy = MIXED32_64,
                  with_certificate: bool = True,
                  breakdown_factor: float = BREAKDOWN_FACTOR):
    """Randomized Gram-Schmidt QR of the columns of W.

    Returns (QrFactors, StabilityCertificate or None). W may be an n x m
    array, pushed in blocks of `_SKETCH_BLOCK` columns by `push_block`, or
    any iterable of n-vectors, pushed in order one at a time.
    """
    if isinstance(W, np.ndarray):
        if W.ndim != 2:
            raise ValueError("W must be a matrix")
        n, m = W.shape
        if not (theta.k >= m and n >= m >= 1):
            raise ValueError(f"need k >= m and n >= m >= 1, got "
                             f"k={theta.k}, n={n}, m={m}")
        state = RgsState(theta, policy, capacity=m,
                         breakdown_factor=breakdown_factor)
        for j in range(0, m, _SKETCH_BLOCK):
            state.push_block(W[:, j:j + _SKETCH_BLOCK])
    else:
        state = RgsState(theta, policy, breakdown_factor=breakdown_factor)
        for w in W:
            state.push(w)
    factors = state.factors()
    cert = certificates(factors) if with_certificate else None
    return factors, cert


def classical_factorize(W, variant: GsVariant, policy: PrecisionPolicy = UNIFIED64,
                        breakdown_factor: float = BREAKDOWN_FACTOR) -> QrFactors:
    """CGS / MGS / CGS2 baseline factorization by one `ClassicalGsState`:
    every high-dimensional operation runs at the coarse roundoff, so under
    the mixed policy the baselines are binary32 throughout."""
    W = np.asarray(W)
    if W.ndim != 2:
        raise ValueError("W must be a matrix")
    n, m = W.shape
    if not n >= m >= 1:
        raise ValueError("need n >= m >= 1")
    state = ClassicalGsState(n, variant, policy, capacity=m,
                             breakdown_factor=breakdown_factor)
    for i in range(m):
        state.push(W[:, i])
    return QrFactors(Q=state.Q.copy(), R=state.R.copy())


class ClassicalGsState(_GsState):
    """Streaming CGS/MGS/CGS2, one column per `push`.

    With a binary32 coarse dtype every n-dimensional dot and update runs in
    binary32 on unit-stride operands. MGS keeps Q column-major and reads each
    column in place; a strided `sdot` may accumulate in binary64 (OpenBLAS
    0.3.31 does), more accurately than the baseline's arithmetic. CGS and CGS2
    keep Q row-major: their `sgemv` on a column-major Q fails criterion 7 (see
    the CHANGES.md `FOUND:` line on summation order and ROADMAP item 4). A
    grown Q changes their leading dimension and low-order bits, so only a
    fixed `capacity` matches a batch run; MGS does not depend on `capacity`.
    """

    def __init__(self, n: int, variant: GsVariant, policy: PrecisionPolicy,
                 capacity: int = 16, breakdown_factor: float = BREAKDOWN_FACTOR):
        if variant not in (GsVariant.CGS, GsVariant.MGS, GsVariant.CGS2):
            raise ValueError(f"classical Gram-Schmidt got {variant}")
        self._Q_ORDER = "F" if variant is GsVariant.MGS else "C"
        super().__init__(n, policy, capacity, breakdown_factor)
        self.variant = variant

    def push(self, w) -> float:
        """Run one iteration on the next column; returns the diagonal r_ii."""
        dtype = self.policy.coarse_dtype
        w = self._next_column(w).astype(dtype)  # a copy, never the caller's
        ref_norm = float(np.linalg.norm(w))  # before MGS updates w in place
        i = self.m
        Q = self._Q[:, :i]
        if self.variant is GsVariant.MGS:
            qp, r_col, t = w, np.zeros(i, dtype=dtype), np.empty_like(w)
            for j in range(i):
                q = Q[:, j]  # unit-stride: Q is column-major for MGS
                r_col[j] = q @ qp
                # r_j q_j, then q' - r_j q_j: two roundings, no fused axpy
                np.subtract(qp, np.multiply(r_col[j], q, out=t), out=qp)
        else:  # CGS; CGS2 applies the classical projector twice
            qp, r_col = w, np.zeros(i)
            for _ in range(2 if self.variant is GsVariant.CGS2 else 1):
                r = Q.T @ qp
                qp = qp - Q @ r
                r_col += r  # summed in binary64
        r_ii = float(np.linalg.norm(qp))
        # q' is in the coarse format, and so is the division
        self._store(qp, r_col, r_ii, ref_norm)
        self.m += 1
        return r_ii


def certificates(factors: QrFactors) -> StabilityCertificate:
    """Delta_m, Delta~_m and cond(S) of a sketched factorization, in binary64."""
    if factors.S is None or factors.P is None:
        raise ValueError("certificates need the sketches S and P (randomized factors)")
    S = factors.S.astype(np.float64)
    P = factors.P.astype(np.float64)
    R = factors.R
    m = S.shape[1]
    delta_m = float(np.linalg.norm(np.eye(m) - S.T @ S))
    delta_tilde = float(np.linalg.norm(P - S @ R) / np.linalg.norm(P))
    return StabilityCertificate(delta_m=delta_m, delta_tilde_m=delta_tilde,
                                cond_S=_cond(S))


def _cond(M) -> float:
    """2-norm condition number of M from a binary64 SVD; inf if singular."""
    sv = np.linalg.svd(np.asarray(M, dtype=np.float64), compute_uv=False)
    return float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf


def loss_of_orthogonality(Q) -> float:
    """||I - Q^T Q||_F in binary64, whatever the storage format of Q."""
    Q = np.asarray(Q, dtype=np.float64)
    m = Q.shape[1]
    return float(np.linalg.norm(np.eye(m) - Q.T @ Q))
