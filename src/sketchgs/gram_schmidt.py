"""Gram-Schmidt factorizers: the sketched (randomized) process and the
classical CGS/MGS/CGS2 baselines. `rgs_factorize` hands its factors to
`certification.certificates` for their stability certificate.

The randomized process orthonormalizes with respect to the sketched inner
product <Theta., Theta.>: projection coefficients come from a small k x i
least-squares problem on sketches, solved by Householder QR of the sketched
basis kept in LAPACK's geqrf format and grown one column per step by LAPACK's
own kernels (backward stable in the fine precision, as the stability
analysis assumes); the expensive n-dimensional projection update runs at
the coarse roundoff, and everything else runs fine.

Step 1 (p = Theta w) needs no earlier column, so `push_block` sketches a
block of columns at once: under P-SRHT with the bits of one `push` per column,
under Rademacher (another summation order) equal to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from .certification import StabilityCertificate, certificates
from .precision import MIXED32_64, UNIFIED64, PrecisionPolicy
from .sketch import SketchOperator

__all__ = [
    "GsVariant", "QrFactors", "BreakdownError", "NonFiniteError", "RgsState",
    "ClassicalGsState", "rgs_factorize", "classical_factorize",
]

# A column whose sketched norm falls below this multiple of u_crs*||p_i||
# cannot be meaningfully normalized; fail loudly instead of dividing.
BREAKDOWN_FACTOR = 10.0

# Columns per push_block: read in place if column-major binary64, else copied
# once; RGS sketches a block with a gemm per Rademacher sign block, not a gemv.
_PUSH_BLOCK = 32


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


def _real64(x, order: str) -> np.ndarray:
    """x as binary64 in `order`, a view if it is; complex x raises TypeError."""
    if np.iscomplexobj(x := np.asarray(x)):  # numpy would keep the real part
        raise TypeError(f"complex input ({x.dtype}): columns must be real")
    return np.asarray(x, dtype=np.float64, order=order)


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


class _IncrementalHouseholderQR:
    """QR of a tall matrix grown one column at a time, in LAPACK's `geqrf`
    format: R on and above the diagonal of the k-row array `_V`, the
    Householder vectors below it (their unit leading entries implied), and
    the reflector scalars in `_tau`, so that Q = H_1 ... H_i with
    H_j = I - tau_j v_j v_j^T. The format is extended only by LAPACK's
    `ormqr`, which applies the stored reflectors, and `larfg`, which forms
    the next one, both in the given dtype, so running this in float32
    emulates a unified low-precision solve. Appending column i costs
    O(k*i). `_V` is allocated once, k x `capacity` with leading dimension k,
    for at most `capacity <= k` columns; the caller keeps to that width.
    """

    def __init__(self, k: int, capacity: int, dtype):
        self.k = k
        self.ncols = 0
        self._V = np.zeros((k, capacity), dtype=dtype, order="F")
        self._tau = np.zeros(capacity, dtype=dtype)
        self._ormqr, self._larfg = scipy.linalg.lapack.get_lapack_funcs(
            ("ormqr", "larfg"), dtype=self._V.dtype)

    def _qt(self, z) -> np.ndarray:
        """Q^T z for a length-k vector z, in the stored dtype."""
        z = np.asarray(z, dtype=self._V.dtype).reshape(-1, 1)
        i = self.ncols
        if i == 0:
            return z[:, 0]
        # lwork = 1 selects LAPACK's unblocked path, one reflector at a time
        z, _, info = self._ormqr("L", "T", self._V[:, :i], self._tau[:i], z, 1)
        if info:
            raise np.linalg.LinAlgError(f"ormqr failed with info={info}")
        return z[:, 0]

    def append(self, col) -> None:  # a length-k column
        i = self.ncols
        z = self._qt(col)
        self._V[:i, i] = z[:i]
        self._V[i, i], self._V[i + 1:, i], self._tau[i] = self._larfg(
            self.k - i, z[i], z[i + 1:])
        self.ncols = i + 1

    def solve(self, p) -> np.ndarray:
        """Least-squares solution against the appended columns."""
        i = self.ncols
        R = self._V[:i, :i]  # solve_triangular reads only the upper triangle
        diag = np.abs(np.diag(R))
        if np.min(diag) < 1e-8 * max(np.max(diag), 1.0):
            raise np.linalg.LinAlgError("sketched basis numerically rank deficient")
        return scipy.linalg.solve_triangular(R, self._qt(p)[:i], lower=False)


class _GsState:
    """What every Gram-Schmidt variant shares: Q (in the `order` the variant
    passes) and R, allocated once for `capacity` columns, the input checks,
    the breakdown guard, the store, `push_block` and `factors`. A variant's
    `push` runs its projection pass between `_next_column` and `_store`; a
    push that raises, a push into a full state included, leaves the trimmed
    views as they were. The arrays never move and a stored column is never
    written again, so `factors()` hands over views that keep their values."""

    S = P = None  # the sketches, kept by the randomized process only

    def __init__(self, n: int, policy: PrecisionPolicy, capacity: int,
                 breakdown_factor: float, order: str):
        self.policy = policy
        # breakdown_factor = 0 disables the guard: benchmark protocols push
        # through numerically singular columns the way the solver would.
        self.breakdown_factor = breakdown_factor
        self.n = n
        self.m = 0
        self._Q = np.zeros((n, capacity), dtype=policy.coarse_dtype,
                           order=order)
        self._R = np.zeros((capacity, capacity))
        self._sketched = iter(())  # push_block's Step-1 sketches, if any

    @property
    def Q(self):
        return self._Q[:, :self.m]

    @property
    def R(self):
        return self._R[:self.m, :self.m]

    def _next_column(self, w) -> np.ndarray:
        """w as a checked binary64 vector, if the state has room for it."""
        if self.m == self._Q.shape[1]:
            raise ValueError(f"state is full: capacity {self.m} columns")
        # one contiguous copy, so a strided column of W is read only once
        w64 = _real64(w, "C")
        if w64.shape != (self.n,):
            raise ValueError("column length mismatch")
        _require_finite(w64, self.m + 1, "input")
        return w64

    def _store(self, qp, r_col, r_ii: float, ref_norm: float) -> None:
        """Guard, then store q'/r_ii as column m of Q and (r_col, r_ii) as
        column m of R; q', the push's own array, is divided in place in its
        dtype. The guard trips when r_ii <= breakdown_factor * u_crs * ref_norm."""
        i = self.m
        tol = self.breakdown_factor * self.policy.u_crs * ref_norm
        if r_ii == np.inf or tol == np.inf:  # overflowed, not vanishing
            raise NonFiniteError(i + 1, "norm")
        if r_ii <= tol:
            raise BreakdownError(i + 1, r_ii, tol, r_col)
        self._Q[:, i] = np.divide(qp, qp.dtype.type(r_ii), out=qp)  # rounded on store
        _require_finite(self._Q[:, i], i + 1, "stored column of Q")
        self._R[:i, i] = r_col
        self._R[i, i] = r_ii

    def _sketch_block(self, Wb):  # Step-1 sketches of a block's columns
        return iter(())

    def push_block(self, Wb) -> np.ndarray:
        """`push` each column of an n x b block; returns their r_ii. A
        non-finite entry pushes no column; a later failure, a full state
        included, keeps the columns before it. RGS runs Step 1 as one
        `theta.apply_block`, with the bits of b `push` calls under P-SRHT or
        for b = 1 (see `apply_block`)."""
        Wb = _real64(Wb, "F")  # contiguous columns, a view if they already are
        if Wb.ndim != 2 or Wb.shape[0] != self.n:
            raise ValueError("block must be a matrix with n rows")
        bad = np.flatnonzero(~np.isfinite(Wb).all(axis=0))
        if bad.size:
            raise NonFiniteError(self.m + int(bad[0]) + 1, "input")
        self._sketched = self._sketch_block(Wb)
        try:
            return np.array([self.push(w) for w in Wb.T])
        finally:
            self._sketched = iter(())

    def factors(self) -> QrFactors:
        """Views of Q, R (and S, P for RGS) trimmed to the columns pushed."""
        return QrFactors(Q=self.Q, R=self.R, S=self.S, P=self.P)


class RgsState(_GsState):
    """Streaming state of the randomized factorizer; one column per `push`.

    Exposed so a Krylov iteration can generate w_{i+1} = A q_i between steps.
    Q, R, S, P and the sketched QR are allocated once for `capacity` columns;
    the sketched QR needs a row of theta per column, so `capacity <= theta.k`.
    Q is column-major, so the update Q r sees leading dimension n whatever
    `capacity` is, the bits do not depend on it, a new column is one
    contiguous write, and unused columns are never touched.
    """

    def __init__(self, theta: SketchOperator, policy: PrecisionPolicy = MIXED32_64,
                 *, capacity: int, breakdown_factor: float = BREAKDOWN_FACTOR):
        if capacity > theta.k:  # the sketched QR needs a row per column
            raise ValueError(f"need k >= {capacity} sketch rows, one per "
                             f"column, got k={theta.k}")
        super().__init__(theta.n, policy, capacity, breakdown_factor, "F")
        self.theta = theta
        self._S = np.zeros((theta.k, capacity), dtype=policy.fine_dtype)
        self._P = np.zeros((theta.k, capacity), dtype=policy.fine_dtype)
        self._qr = _IncrementalHouseholderQR(theta.k, capacity, policy.fine_dtype)

    @property
    def S(self):
        return self._S[:, :self.m]

    @property
    def P(self):
        return self._P[:, :self.m]

    def push(self, w) -> float:
        """Run one iteration on the next column; returns the diagonal r_ii.
        Called by `push_block`, it takes Step 1 from the block's sketch."""
        w64 = self._next_column(w)
        i = self.m  # zero-based index of the new column
        fine, crs = self.policy.fine_dtype, self.policy.coarse_dtype
        p = next(self._sketched, None)
        if p is None:
            p = self.theta.apply(w64).astype(fine, copy=False)  # Step 1 (u_fine)

        if i == 0:
            r_col = np.zeros(0, dtype=fine)
            qp = w64.astype(crs).astype(np.float64, copy=False)
            sp = p.copy()
        else:
            r_col = self._qr.solve(p)                         # Step 2 (u_fine)
            # Step 3 (u_crs): q' = w - Q_{i-1} r, native arithmetic in the
            # coarse format (hardware binary32 BLAS under the mixed policy),
            # then widened exactly to binary64 for the sketches
            qp = w64.astype(crs)  # a copy, never the caller's
            qp -= self._Q[:, :i] @ r_col.astype(crs)
            qp = qp.astype(np.float64, copy=False)
            sp = self.theta.apply(qp).astype(fine, copy=False)  # Step 4

        r_ii = float(np.sqrt(np.sum(sp * sp)))                # Step 5 (u_fine)
        # q' is binary64 here: divided in binary64, rounded once on store
        self._store(qp, r_col, r_ii, float(np.linalg.norm(p)))
        self._S[:, i] = sp / fine.type(r_ii)                  # Step 6 (u_fine)
        self._P[:, i] = p
        self._qr.append(self._S[:, i])
        self.m += 1
        return r_ii

    def _sketch_block(self, Wb):
        P = self.theta.apply_block(Wb).astype(self.policy.fine_dtype, order="F")
        return iter(P.T)


def _factorize(W, new_state) -> QrFactors:
    """The one factorization loop: check the n x m matrix W, push it in
    blocks of `_PUSH_BLOCK` columns into `new_state(n, m)` and hand over the
    state's factors."""
    W = np.asarray(W)
    if W.ndim != 2:
        raise ValueError("W must be a matrix")
    n, m = W.shape
    if not n >= m >= 1:
        raise ValueError(f"need n >= m >= 1, got n={n}, m={m}")
    state = new_state(n, m)
    for j in range(0, m, _PUSH_BLOCK):
        state.push_block(W[:, j:j + _PUSH_BLOCK])
    return state.factors()


def rgs_factorize(W, theta: SketchOperator, policy: PrecisionPolicy = MIXED32_64,
                  with_certificate: bool = True,
                  breakdown_factor: float = BREAKDOWN_FACTOR
                  ) -> tuple[QrFactors, StabilityCertificate | None]:
    """Randomized Gram-Schmidt QR of the columns of the n x m matrix W,
    pushed in blocks by `push_block`; a stream of columns goes to
    `RgsState.push` instead.
    """
    factors = _factorize(W, lambda n, m: RgsState(
        theta, policy, capacity=m, breakdown_factor=breakdown_factor))
    return factors, certificates(factors) if with_certificate else None


def classical_factorize(W, variant: GsVariant, policy: PrecisionPolicy = UNIFIED64,
                        breakdown_factor: float = BREAKDOWN_FACTOR) -> QrFactors:
    """CGS / MGS / CGS2 baseline factorization by one `ClassicalGsState`:
    every high-dimensional operation runs at the coarse roundoff, so under
    the mixed policy the baselines are binary32 throughout. The factors are
    the state's own arrays, so Q is column-major for MGS."""
    return _factorize(W, lambda n, m: ClassicalGsState(
        n, variant, policy, capacity=m, breakdown_factor=breakdown_factor))


class ClassicalGsState(_GsState):
    """Streaming CGS/MGS/CGS2, one column per `push`.

    With a binary32 coarse dtype every n-dimensional dot and update runs in
    binary32 on unit-stride operands. MGS keeps Q column-major and reads each
    column in place; a strided `sdot` may accumulate in binary64 (OpenBLAS
    0.3.31 does), more accurately than the baseline's arithmetic. CGS and CGS2
    keep Q row-major: their `sgemv` on a column-major Q fails criterion 7 (see
    the CHANGES.md `FOUND:` line on summation order and ROADMAP item 6). Q and
    R are allocated once for `capacity` columns. Q's row stride is `capacity`,
    so the low-order bits of CGS and CGS2 depend on it and only the same
    `capacity` matches a batch run; MGS, like RGS, does not depend on it.
    `factors()` hands over views in these layouts.
    """

    def __init__(self, n: int, variant: GsVariant, policy: PrecisionPolicy,
                 capacity: int, breakdown_factor: float = BREAKDOWN_FACTOR):
        if variant not in (GsVariant.CGS, GsVariant.MGS, GsVariant.CGS2):
            raise ValueError(f"classical Gram-Schmidt got {variant}")
        super().__init__(n, policy, capacity, breakdown_factor,
                         "F" if variant is GsVariant.MGS else "C")
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

