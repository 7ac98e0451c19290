"""Oblivious l2-subspace embeddings applied matrix-free.

Two sketch families are provided: rescaled Rademacher matrices (i.i.d.
+-1/sqrt(k) entries in blocks of columns, each the raw bits of one Philox
stream, read once per apply of a vector or a block, and kept from the
second apply on if they fit, so a sketch applied once holds one block at a
time) and the partial subsampled randomized Hadamard transform (P-SRHT:
sign flip, fast Walsh-Hadamard transform on the padded power-of-two
dimension, uniform row sampling without replacement, 1/sqrt(k) scaling).
`apply` of a vector is `apply_block` of it as one column, with its bits.

All randomness is a pure function of (kind, k, n, seed); equal parameters
produce bit-identical operators. Sketch-dimension bounds use natural
logarithms throughout; `certification` measures a sketch's embedding error.
"""

from __future__ import annotations

import functools
import math
import warnings
from enum import Enum

import numpy as np
import scipy.linalg

__all__ = ["SketchKind", "SketchOperator", "required_sketch_dim",
           "vector_certificate_dim", "fwht", "rounding_sketch_trial"]

# Width of the Rademacher column blocks. Block b holds columns
# [b*_COLUMN_BLOCK, (b+1)*_COLUMN_BLOCK): its k*width signs, row by row, are
# the leading bits of Philox stream b's raw 64-bit words, least significant
# first, a set bit +1. The width and that bit order are part of each
# operator's definition: changing either changes every Rademacher matrix.
_COLUMN_BLOCK = 4096
# From the second apply on, keep the +-1 blocks when k*n entries fit in
# ~128 MB; regenerate them on every apply otherwise. The first apply keeps
# none, so a sketch applied once (a certification sketch) never holds more
# than one block. Every way gives the same bits.
_MATERIALIZE_LIMIT = 1 << 24

_PSRHT_SIGN_STREAM = 0x5149
_PSRHT_SAMPLE_STREAM = 0xFA7E


class SketchKind(Enum):
    RADEMACHER = "rademacher"
    PSRHT = "psrht"


def _check_unit_interval(**values: float) -> None:
    for name, value in values.items():
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must lie in (0, 1)")


def required_sketch_dim(kind: SketchKind, epsilon: float, delta: float, d: int,
                        n: int | None = None) -> int:
    """Sketch rows needed for an (epsilon, delta, d) oblivious embedding."""
    _check_unit_interval(epsilon=epsilon, delta=delta)
    if d < 1:
        raise ValueError("d must be a positive integer")
    if kind is SketchKind.RADEMACHER:
        return math.ceil(7.87 * epsilon**-2
                         * (6.9 * d + math.log(1.0 / delta)))
    if kind is SketchKind.PSRHT:
        if n is None:
            raise ValueError("P-SRHT bound depends on the ambient dimension n")
        if n < 1:
            raise ValueError(f"P-SRHT bound needs n >= 1, got n={n}")
        val = (2.0 / (epsilon**2 - epsilon**3 / 3.0)
               * (math.sqrt(d) + math.sqrt(8.0 * math.log(6.0 * n / delta)))**2
               * math.log(3.0 * d / delta))
        return math.ceil(val)
    raise TypeError(f"unknown sketch kind {kind!r}")


def vector_certificate_dim(eps_star: float, delta_star: float) -> int:
    """Rows making a Rademacher sketch an (eps*, delta*, 1) oblivious embedding.

    This sizes the auxiliary certification sketch; single-vector embedding is
    all the a-posteriori bound requires of it.
    """
    _check_unit_interval(eps_star=eps_star, delta_star=delta_star)
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
    product of nf = ceil(b / 4) balanced Hadamard factors, b = log2(s):
    factor f has order 2**(b(f+1)//nf - bf//nf), at most 2**4, and is one
    BLAS matmul on the vector reshaped to a matrix (Andoni et al.,
    arXiv:1509.02897). An entry costs the sum of the orders in multiply-adds.
    """
    x = np.asarray(v)
    s = x.shape[0] if x.ndim == 1 else 0
    if s < 1 or (s & (s - 1)) != 0:
        raise ValueError(f"shape {x.shape} is not a power-of-two length vector")
    x = np.ascontiguousarray(x)  # BLAS path whatever the stride
    bits = s.bit_length() - 1
    nf = max(1, -(-bits // 4))  # one factor, of order 1, when s = 1
    lead = 1
    for f in range(nf):
        # H acts on the middle axis of x viewed as (lead, d, trail)
        H = _hadamard(bits * (f + 1) // nf - bits * f // nf, x.dtype)
        d = H.shape[0]
        trail = s // (lead * d)
        x = (x.reshape(lead, d) @ H if trail == 1
             else np.matmul(H, x.reshape(lead, d, trail)))
        lead *= d
    return x.reshape(s)  # a matmul's output, never v


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def _philox(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) | int(stream)))


class SketchOperator:
    """A seeded k x n embedding applied without storing the dense matrix."""

    def __init__(self, kind: SketchKind, k: int, n: int, seed: int):
        if k < 1 or n < 1:
            raise ValueError("k and n must be positive")
        if not 0 <= int(seed) < 1 << 64:  # the high word of a Philox key
            raise ValueError(f"sketch seed must lie in [0, 2**64), got {seed}")
        if k > n:
            warnings.warn(f"sketch dimension k={k} exceeds ambient dimension n={n}",
                          stacklevel=2)
        self.kind = kind
        self.k = int(k)
        self.n = int(n)
        self.seed = int(seed)
        self._blocks = []  # kept Rademacher column blocks, in order
        self._applied = False  # blocks are kept only once they are reused
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
        b; kept when drawn by a second apply and k*n <= _MATERIALIZE_LIMIT."""
        if b < len(self._blocks):
            return self._blocks[b]
        width = min(_COLUMN_BLOCK, self.n - b * _COLUMN_BLOCK)
        count = self.k * width
        words = _philox(self.seed, b).bit_generator.random_raw(-(-count // 64))
        signs = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                              count=count, bitorder="little").view(np.int8)
        del words  # freed before the binary64 block is allocated
        signs *= 2  # 0/1 -> -1/+1 in place, then one cast
        signs -= 1
        block = signs.reshape(self.k, width).astype(np.float64)
        if self._applied and self.k * self.n <= _MATERIALIZE_LIMIT:
            self._blocks.append(block)
        return block

    # -- application ----------------------------------------------------------

    def apply(self, x) -> np.ndarray:
        """Theta @ x for an n-vector: `apply_block` of x as one column."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {x.shape}")
        return self._apply(x[:, None])[:, 0]

    def apply_block(self, X) -> np.ndarray:
        """Columnwise Theta @ X for an n x N block (a vector is one column).

        A Rademacher block takes one gemm per sign block, so its columns equal
        `apply` of each column only to roundoff; P-SRHT columns equal it bit
        for bit. X is widened to binary64 one column block or column at a
        time, so a binary32 X keeps its widening's bits with no n x N copy."""
        X = np.asarray(X)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(f"expected {self.n} rows and 2 axes, got {X.shape}")
        return self._apply(X)

    def _apply(self, X: np.ndarray) -> np.ndarray:
        """Theta @ X for an n x N real block X, widened as it is read."""
        if np.iscomplexobj(X):  # numpy would keep only the real part
            raise TypeError(f"complex input ({X.dtype}): a sketch is real")
        acc = np.zeros((self.k, X.shape[1]))
        if self.kind is SketchKind.RADEMACHER:
            # one gemm per sign block, each read or drawn once per call
            for b, j0 in enumerate(range(0, self.n, _COLUMN_BLOCK)):
                Xb = X[j0:j0 + _COLUMN_BLOCK].astype(np.float64, copy=False)
                acc += self._sign_block(b) @ Xb
            self._applied = True
        else:
            # one column at a time, as fwht takes one: no s x N padded block
            padded = np.zeros(self.s)
            for j, x in enumerate(X.T):
                np.multiply(self.signs, x, out=padded[:self.n])
                acc[:, j] = fwht(padded)[self.sample_indices]
        acc *= 1.0 / math.sqrt(self.k)
        return acc


# Not public: perfbench/workloads.py calls `sketch.make_sketch`; it goes with
# the benchmark change that deletes `SparseMatrix`.
make_sketch = SketchOperator


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
