"""Oblivious l2-subspace embeddings applied matrix-free.

Two sketch families are provided: rescaled Rademacher matrices (i.i.d.
+-1/sqrt(k) entries, drawn in blocks of columns, one counter-based Philox
stream per block, kept or regenerated by size, and read once per apply of a
vector or a block) and the partial subsampled randomized Hadamard transform
(P-SRHT: sign flip, fast Walsh-Hadamard transform on the padded power-of-two
dimension, uniform row sampling without replacement, 1/sqrt(k) scaling).
`apply` and `apply_block` run one body; `apply_block` says how they differ.

All randomness is a pure function of (kind, k, n, seed); equal parameters
produce bit-identical operators. Sketch-dimension bounds use natural
logarithms throughout.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

__all__ = [
    "SketchKind", "EmbeddingParams", "SketchOperator",
    "make_sketch", "required_sketch_dim", "vector_certificate_dim",
    "fwht", "epsilon_of", "rounding_sketch_trial",
]

# Width of the Rademacher column blocks. Block b holds columns
# [b*_COLUMN_BLOCK, (b+1)*_COLUMN_BLOCK) and is drawn from Philox stream b,
# so the block width is part of each operator's definition: changing it
# changes every Rademacher matrix.
_COLUMN_BLOCK = 4096
# Keep the +-1 blocks when k*n entries fit in ~128 MB; regenerate them on
# every apply otherwise. Both give the same bits.
_MATERIALIZE_LIMIT = 1 << 24

_PSRHT_SIGN_STREAM = 0x5149
_PSRHT_SAMPLE_STREAM = 0xFA7E


class SketchKind(Enum):
    RADEMACHER = "rademacher"
    PSRHT = "psrht"


@dataclass(frozen=True)
class EmbeddingParams:
    """Accuracy/failure/subspace-dimension triple of an oblivious embedding."""

    epsilon: float
    delta: float
    d: int

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.d < 1:
            raise ValueError("d must be a positive integer")


def required_sketch_dim(kind: SketchKind, p: EmbeddingParams, n: int | None = None) -> int:
    """Sketch rows needed for an (epsilon, delta, d) oblivious embedding."""
    eps, delta, d = p.epsilon, p.delta, p.d
    if kind is SketchKind.RADEMACHER:
        return math.ceil(7.87 * eps**-2 * (6.9 * d + math.log(1.0 / delta)))
    if kind is SketchKind.PSRHT:
        if n is None:
            raise ValueError("P-SRHT bound depends on the ambient dimension n")
        val = (2.0 / (eps**2 - eps**3 / 3.0)
               * (math.sqrt(d) + math.sqrt(8.0 * math.log(6.0 * n / delta)))**2
               * math.log(3.0 * d / delta))
        return math.ceil(val)
    raise TypeError(f"unknown sketch kind {kind!r}")


def vector_certificate_dim(eps_star: float, delta_star: float) -> int:
    """Rows making a Rademacher sketch an (eps*, delta*, 1) oblivious embedding.

    This sizes the auxiliary certification sketch; single-vector embedding is
    all the a-posteriori bound requires of it.
    """
    if not 0.0 < eps_star < 1.0:
        raise ValueError("eps_star must lie in (0, 1)")
    if not 0.0 < delta_star < 1.0:
        raise ValueError("delta_star must lie in (0, 1)")
    return math.ceil(2.0 / (eps_star**2 / 2.0 - eps_star**3 / 3.0)
                     * math.log(2.0 / delta_star))


@functools.cache
def _hadamard(bits: int, dtype: np.dtype) -> np.ndarray:
    """Read-only Sylvester Hadamard matrix of order 2**bits."""
    H = scipy.linalg.hadamard(1 << bits, dtype=dtype)
    H.flags.writeable = False
    return H


def fwht(v):
    """Unnormalized fast Walsh-Hadamard transform of a vector, as a new array.

    Sylvester (natural) ordering, O(s log s). The length s must be a power
    of two. Input dtype is preserved. H_s is applied as the Kronecker
    product of Hadamard factors of order at most 2**6, each one BLAS matmul
    on the vector reshaped to a matrix (Andoni et al., arXiv:1509.02897).
    """
    x = np.asarray(v)
    s = x.shape[0] if x.ndim == 1 else 0
    if s < 1 or (s & (s - 1)) != 0:
        raise ValueError(f"shape {x.shape} is not a power-of-two length vector")
    x = np.ascontiguousarray(x)  # BLAS path whatever the stride
    bits = s.bit_length() - 1
    lead = 1
    for b in range(0, bits, 6):
        # H acts on the middle axis of x viewed as (lead, d, trail)
        H = _hadamard(min(6, bits - b), x.dtype)
        d = H.shape[0]
        trail = s // (lead * d)
        x = (x.reshape(lead, d) @ H if trail == 1
             else np.matmul(H, x.reshape(lead, d, trail)))
        lead *= d
    return x.reshape(s) if bits else x.copy()


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _philox(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(stream)))


class SketchOperator:
    """A seeded k x n embedding applied without storing the dense matrix."""

    def __init__(self, kind: SketchKind, k: int, n: int, seed: int):
        if k < 1 or n < 1:
            raise ValueError("k and n must be positive")
        if k > n:
            warnings.warn(f"sketch dimension k={k} exceeds ambient dimension n={n}",
                          stacklevel=3)
        self.kind = kind
        self.k = int(k)
        self.n = int(n)
        self.seed = int(seed)
        self._blocks = []  # kept Rademacher column blocks, in order
        if kind is SketchKind.PSRHT:
            s = _next_pow2(n)
            if s >= 1 << 62:
                raise OverflowError("padded Hadamard size overflows")
            if k > s:
                raise ValueError(f"P-SRHT samples k distinct rows of the "
                                 f"padded size s={s}; got k={k}")
            self.s = s
            signs = _philox(seed, _PSRHT_SIGN_STREAM).integers(0, 2, size=n)
            self.signs = (2.0 * signs - 1.0)
            # Seeded Fisher-Yates: k distinct row indices in [0, s).
            perm = _philox(seed, _PSRHT_SAMPLE_STREAM).permutation(s)
            self.sample_indices = np.sort(perm[:k])
        elif kind is not SketchKind.RADEMACHER:
            raise TypeError(f"unknown sketch kind {kind!r}")

    def __repr__(self):
        return (f"SketchOperator({self.kind.value}, k={self.k}, n={self.n}, "
                f"seed={self.seed})")

    # -- Rademacher column blocks ---------------------------------------------

    def _sign_block(self, b: int) -> np.ndarray:
        """Column block b of the unscaled +-1 matrix, drawn from Philox stream
        b; kept after its first draw when k*n <= _MATERIALIZE_LIMIT."""
        if b < len(self._blocks):
            return self._blocks[b]
        width = min(_COLUMN_BLOCK, self.n - b * _COLUMN_BLOCK)
        bits = _philox(self.seed, b).integers(0, 2, size=(self.k, width),
                                              dtype=np.int8)
        block = bits.astype(np.float64)  # the one binary64 array; then in place
        block *= 2.0
        block -= 1.0
        if self.k * self.n <= _MATERIALIZE_LIMIT:
            self._blocks.append(block)
        return block

    # -- application ----------------------------------------------------------

    def apply(self, x) -> np.ndarray:
        """Return Theta @ x for an n-vector, accumulating in binary64."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {x.shape}")
        return self._apply(x)

    def apply_block(self, X) -> np.ndarray:
        """Columnwise Theta @ X for an n x N block (a vector is one column).

        A Rademacher block takes one gemm per sign block, so its columns equal
        `apply` of each column only to roundoff; P-SRHT columns equal it bit
        for bit."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(f"expected {self.n} rows and 2 axes, got {X.shape}")
        return self._apply(X)

    def _apply(self, X: np.ndarray) -> np.ndarray:
        """Theta @ X for a binary64 n-vector or n x N block X."""
        acc = np.zeros((self.k,) + X.shape[1:])
        if self.kind is SketchKind.RADEMACHER:
            # a gemv or a gemm: each sign block is read or drawn once per call
            for b, j0 in enumerate(range(0, self.n, _COLUMN_BLOCK)):
                acc += self._sign_block(b) @ X[j0:j0 + _COLUMN_BLOCK]
        else:
            # one column at a time, as fwht takes one: no s x N padded block
            out = acc.reshape(self.k, -1)  # a view: columns land in acc
            padded = np.zeros(self.s)
            for j, x in enumerate(X.reshape(self.n, -1).T):
                padded[:self.n] = self.signs * x
                out[:, j] = fwht(padded)[self.sample_indices]
        return (1.0 / math.sqrt(self.k)) * acc


def make_sketch(kind: SketchKind, k: int, n: int, seed: int) -> SketchOperator:
    return SketchOperator(kind, k, n, seed)


def epsilon_of(theta: SketchOperator, V) -> float:
    """Smallest epsilon for which theta embeds range(V), measured exactly.

    An orthonormal basis U of range(V) is computed by binary64 Householder QR;
    the result is max{1 - sigma_min(Theta U)^2, sigma_max(Theta U)^2 - 1}.
    Values above 1 signal that no epsilon < 1 embedding holds.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim == 1:
        V = V[:, None]
    sv_v = np.linalg.svd(V, compute_uv=False)
    if sv_v[-1] <= 1e-12 * sv_v[0]:
        raise np.linalg.LinAlgError("V is numerically rank deficient")
    U, _ = np.linalg.qr(V)
    sv = np.linalg.svd(theta.apply_block(U), compute_uv=False)
    return max(1.0 - sv[-1]**2, sv[0]**2 - 1.0)


def rounding_sketch_trial(theta: SketchOperator, gamma, trials: int, seed: int,
                          eps: float = 0.5) -> float:
    """Empirical failure rate of the sketched rounding-error concentration.

    Draws vectors phi with independent zero-mean entries uniform in
    [-gamma_i, +gamma_i] and counts trials where
    | ||phi||^2 - ||Theta phi||^2 | > eps * ||gamma||^2.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if np.any(gamma < 0):
        raise ValueError("gamma entries must be nonnegative")
    bound = eps * float(gamma @ gamma)
    rng = _philox(seed, 0x7B1A)
    failed = 0
    for _ in range(trials):
        phi = rng.uniform(-gamma, gamma)
        diff = abs(phi @ phi - float(np.sum(theta.apply(phi)**2)))
        if diff > bound:
            failed += 1
    return failed / trials
