import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sketchgs.sketch as sk
from sketchgs import (EmbeddingParams, SketchKind, SketchOperator, epsilon_of,
                      fwht, make_sketch, required_sketch_dim,
                      rounding_sketch_trial, vector_certificate_dim)


def test_required_sketch_dim_rademacher():
    # ceil(7.87 * 0.5^-2 * (6.9*10 + ln(1/0.01))) evaluated independently
    expected = math.ceil(7.87 * 4.0 * (69.0 + math.log(100.0)))
    assert expected == 2318
    p = EmbeddingParams(epsilon=0.5, delta=0.01, d=10)
    assert required_sketch_dim(SketchKind.RADEMACHER, p) == 2318


def test_required_sketch_dim_psrht():
    p = EmbeddingParams(epsilon=0.5, delta=0.01, d=10)
    eps, delta, d, n = 0.5, 0.01, 10, 100000
    expected = math.ceil(2.0 / (eps**2 - eps**3 / 3.0)
                         * (math.sqrt(d) + math.sqrt(8.0 * math.log(6.0 * n / delta)))**2
                         * math.log(3.0 * d / delta))
    assert required_sketch_dim(SketchKind.PSRHT, p, n=n) == expected
    with pytest.raises(ValueError):
        required_sketch_dim(SketchKind.PSRHT, p)  # needs n


def test_required_sketch_dim_monotone():
    base = EmbeddingParams(epsilon=0.5, delta=0.01, d=10)
    tighter = EmbeddingParams(epsilon=0.25, delta=0.01, d=10)
    bigger = EmbeddingParams(epsilon=0.5, delta=0.01, d=40)
    k0 = required_sketch_dim(SketchKind.RADEMACHER, base)
    assert required_sketch_dim(SketchKind.RADEMACHER, tighter) > k0
    assert required_sketch_dim(SketchKind.RADEMACHER, bigger) > k0


def test_vector_certificate_dim():
    # ceil(2 / (eps^2/2 - eps^3/3) * ln(2/delta)) evaluated independently
    expected = math.ceil(2.0 / (0.25**2 / 2.0 - 0.25**3 / 3.0)
                         * math.log(2.0 / 1e-3))
    assert expected == 584
    assert vector_certificate_dim(0.25, 1e-3) == 584
    assert vector_certificate_dim(0.05, 1e-3) == 12581


def test_embedding_params_validation():
    with pytest.raises(ValueError):
        EmbeddingParams(epsilon=0.0, delta=0.01, d=10)
    with pytest.raises(ValueError):
        EmbeddingParams(epsilon=0.5, delta=1.5, d=10)
    with pytest.raises(ValueError):
        EmbeddingParams(epsilon=0.5, delta=0.01, d=0)


def _fwht_radix2(v):
    """Reference transform: the radix-2 Sylvester butterfly, O(s log s)."""
    a = np.array(v, copy=True)
    s = a.shape[0]
    shape = a.shape
    a = a.reshape(s, -1)
    h = 1
    while h < s:
        a = a.reshape(s // (2 * h), 2, h, -1)
        top = a[:, 0] + a[:, 1]
        bot = a[:, 0] - a[:, 1]
        a = np.stack((top, bot), axis=1).reshape(s, -1)
        h *= 2
    return a.reshape(shape)


@pytest.mark.parametrize("bits", range(18))
def test_fwht_matches_radix2_oracle(bits):
    # every remainder of log2(s) mod 6, i.e. every shape of the last
    # Kronecker factor; both orders of summation are backward stable, so
    # they agree to a few ulps per stage relative to the largest output
    x = np.random.default_rng(bits).standard_normal(1 << bits)
    ref = _fwht_radix2(x)
    tol = 4 * (bits + 1) * np.finfo(np.float64).eps * np.max(np.abs(ref))
    assert np.max(np.abs(fwht(x) - ref)) <= tol


@settings(max_examples=60)
@given(st.integers(0, 13).flatmap(
    lambda b: arrays(np.float64, 1 << b, elements=st.integers(-1000, 1000))))
def test_fwht_exact_on_integers(x):
    # integer data far below 2**53 makes every order of summation exact
    s = x.shape[0]
    y = fwht(x)
    assert np.array_equal(y, _fwht_radix2(x))
    assert np.array_equal(fwht(y), s * x)


@pytest.mark.parametrize("bits", [7, 11, 13, 17])
def test_fwht_involution_partial_factor(bits, rng):
    # sizes whose log2 is not a multiple of 6 end on a smaller factor
    s = 1 << bits
    x = rng.standard_normal(s)
    assert np.allclose(fwht(fwht(x)) / s, x, rtol=0,
                       atol=8 * bits * np.finfo(np.float64).eps)


def test_fwht_preserves_float32(rng):
    x = rng.standard_normal(1 << 13).astype(np.float32)
    y = fwht(x)
    assert y.dtype == np.float32
    ref = _fwht_radix2(x.astype(np.float64))
    # binary32 arithmetic throughout, not binary64 rounded once at the end
    assert not np.array_equal(y, ref.astype(np.float32))
    tol = 4 * 14 * np.finfo(np.float32).eps * np.max(np.abs(ref))
    assert np.max(np.abs(y - ref)) <= tol


def test_fwht_small():
    # H2 kron H2 applied to [1,2,3,4] by hand
    assert np.array_equal(fwht(np.array([1.0, 2.0, 3.0, 4.0])),
                          np.array([10.0, -2.0, -4.0, 0.0]))
    x = np.array([5.0])
    assert np.array_equal(fwht(x), x) and not np.shares_memory(fwht(x), x)


def test_fwht_matches_dense_hadamard():
    rng = np.random.default_rng(7)
    for s in (2, 8, 64, 1024):
        H = np.array([[1.0]])
        while H.shape[0] < s:
            H = np.block([[H, H], [H, -H]])
        x = rng.standard_normal(s)
        assert np.max(np.abs(fwht(x) - H @ x)) <= 1e-12 * s


def test_fwht_involution(rng):
    x = rng.standard_normal(256)
    assert np.allclose(fwht(fwht(x)) / 256.0, x, atol=1e-12)


def test_fwht_rejects_non_pow2():
    with pytest.raises(ValueError):
        fwht(np.zeros(6))
    with pytest.raises(ValueError):  # one vector, not a matrix
        fwht(np.zeros((4, 2)))


@pytest.mark.parametrize("kind", [SketchKind.RADEMACHER, SketchKind.PSRHT])
def test_sketch_determinism(kind):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(100)
    a = make_sketch(kind, 40, 100, seed=11).apply(x)
    b = make_sketch(kind, 40, 100, seed=11).apply(x)
    c = make_sketch(kind, 40, 100, seed=12).apply(x)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("kind", [SketchKind.RADEMACHER, SketchKind.PSRHT])
def test_sketch_entries_are_pm_scaled(kind, dense_sketch):
    th = make_sketch(kind, 16, 24, seed=0)
    M = dense_sketch(th)
    assert M.shape == (16, 24)
    assert np.allclose(np.abs(M), 1.0 / math.sqrt(16))


@pytest.mark.parametrize("kind", [SketchKind.RADEMACHER, SketchKind.PSRHT])
def test_apply_block_matches_apply(kind, rng, dense_sketch):
    if kind is SketchKind.PSRHT:
        # each column is transformed alone: the bits of its own apply
        th = make_sketch(kind, 20, 50, seed=5)
        X = rng.standard_normal((50, 4))
        blk = th.apply_block(X)
        for j in range(4):
            assert np.array_equal(blk[:, j], th.apply(X[:, j]))
        return
    # Rademacher: a block is one gemm per sign block and a vector one gemv,
    # which sum in different orders, so both are held to the a-priori bound
    # against a reference. n = 5000 spans a full and a partial sign block.
    k, n = 20, 5000
    th = make_sketch(kind, k, n, seed=5)
    X = rng.standard_normal((n, 4))
    blk = th.apply_block(X)
    scale = 1.0 / math.sqrt(k)
    signs = np.sign(dense_sketch(th))
    u = 2.0**-53
    gamma = n * u / (1.0 - n * u)
    for j in range(4):
        col = th.apply(X[:, j])
        # Every +-1 * x_j is exact; let S be their exact sum and A = sum |x_j|
        # >= |S|. fsum rounds S once and the scale once more, so
        # |ref - scale S| <= (2u + u^2) scale A. Any summation order is
        # within gamma_n A of S and the scale rounds once, so
        # |got - scale S| <= ((1 + u) gamma_n + u) scale A. Together:
        tol = ((1.0 + u) * gamma + 4.0 * u) * scale * np.sum(np.abs(X[:, j]))
        for i in range(k):
            ref = scale * math.fsum(signs[i] * X[:, j])
            assert abs(blk[i, j] - ref) <= tol
            assert abs(col[i] - ref) <= tol


def test_rademacher_streamed_matches_dense(rng, monkeypatch):
    # n = 9000 spans three column blocks, the last one partial; a zero
    # materialization limit makes the second operator regenerate its blocks
    x = rng.standard_normal(9000)
    dense = make_sketch(SketchKind.RADEMACHER, 8, 9000, seed=2).apply(x)
    monkeypatch.setattr(sk, "_MATERIALIZE_LIMIT", 0)
    streamed = make_sketch(SketchKind.RADEMACHER, 8, 9000, seed=2).apply(x)
    assert np.array_equal(dense, streamed)


def test_rademacher_streamed_block_draws_each_block_once(rng, monkeypatch):
    # n = 9000 spans three column blocks, the last one partial
    X = rng.standard_normal((9000, 5))
    kept = make_sketch(SketchKind.RADEMACHER, 8, 9000, seed=2).apply_block(X)
    monkeypatch.setattr(sk, "_MATERIALIZE_LIMIT", 0)
    draws = []
    philox = sk._philox
    monkeypatch.setattr(sk, "_philox", lambda seed, stream:
                        draws.append(stream) or philox(seed, stream))
    streamed = make_sketch(SketchKind.RADEMACHER, 8, 9000, seed=2).apply_block(X)
    assert np.array_equal(streamed, kept)
    assert draws == [0, 1, 2]  # each sign block once, not once per column


@pytest.mark.filterwarnings("ignore:sketch dimension")
@settings(max_examples=25)
@given(st.integers(1, 64), st.integers(1, 9000), st.integers(0, 2**32 - 1))
# block edges: one full block, one column past two, three with a partial last
@example(3, 4096, 1)
@example(5, 8193, 2)
@example(64, 9000, 0)
def test_rademacher_blocks_property(dense_sketch, k, n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    kept = make_sketch(SketchKind.RADEMACHER, k, n, seed)
    y = kept.apply(x)
    old = sk._MATERIALIZE_LIMIT
    sk._MATERIALIZE_LIMIT = 0
    try:
        regenerated = make_sketch(SketchKind.RADEMACHER, k, n, seed)
        assert np.array_equal(regenerated.apply(x), y)
    finally:
        sk._MATERIALIZE_LIMIT = old
    M = dense_sketch(kept)
    assert np.array_equal(np.abs(M), np.full((k, n), 1.0 / math.sqrt(k)))
    # both sum n terms of size |x_j|/sqrt(k), in different orders
    tol = 2 * n * np.finfo(np.float64).eps * np.sum(np.abs(x)) / math.sqrt(k)
    assert np.max(np.abs(M @ x - y)) <= tol


def test_psrht_consistent_with_definition(rng):
    # oracle: dense D (signs), dense Hadamard, explicit row sampling
    th = make_sketch(SketchKind.PSRHT, 10, 24, seed=9)
    s = th.s
    assert s == 32
    H = np.array([[1.0]])
    while H.shape[0] < s:
        H = np.block([[H, H], [H, -H]])
    x = rng.standard_normal(24)
    padded = np.zeros(s)
    padded[:24] = th.signs * x
    ref = (H @ padded)[th.sample_indices] / math.sqrt(10)
    assert np.allclose(th.apply(x), ref, atol=1e-12)
    assert len(np.unique(th.sample_indices)) == 10  # sampling w/o replacement


def test_sketch_validation():
    with pytest.raises(ValueError):
        SketchOperator(SketchKind.PSRHT, 0, 10, seed=0)
    with pytest.warns(UserWarning):
        SketchOperator(SketchKind.RADEMACHER, 20, 10, seed=0)
    th = make_sketch(SketchKind.PSRHT, 4, 10, seed=0)
    with pytest.raises(ValueError):
        th.apply(np.zeros(11))
    with pytest.raises(ValueError):
        th.apply_block(np.zeros((10, 2, 2)))
    # P-SRHT samples k distinct rows of the padded size s = 128 of n = 100
    with pytest.warns(UserWarning), pytest.raises(ValueError, match="s=128"):
        SketchOperator(SketchKind.PSRHT, 200, 100, seed=0)
    with pytest.warns(UserWarning):
        th = SketchOperator(SketchKind.PSRHT, 128, 100, seed=0)
    assert th.apply(np.ones(100)).shape == (128,)


def test_epsilon_of_orthonormal_identity_sketch(rng):
    # with an exactly orthonormal sketch of full dimension, epsilon is ~0
    V = rng.standard_normal((64, 5))

    class _Eye:
        k, n = 64, 64

        def apply_block(self, X):
            return np.asarray(X, dtype=np.float64)

    assert epsilon_of(_Eye(), V) < 1e-12


def test_epsilon_of_detects_distortion(rng):
    th = make_sketch(SketchKind.RADEMACHER, 30, 256, seed=1)
    V = rng.standard_normal((256, 4))
    eps = epsilon_of(th, V)
    # k=30 for d=4 distorts noticeably but embeds reasonably
    assert 0.0 < eps < 1.0
    with pytest.raises(np.linalg.LinAlgError):
        epsilon_of(th, np.zeros((256, 2)))


def test_rounding_sketch_trial_rates():
    th = make_sketch(SketchKind.RADEMACHER, 256, 512, seed=4)
    gamma = np.full(512, 1e-3)
    rate = rounding_sketch_trial(th, gamma, trials=50, seed=0, eps=0.5)
    assert rate == 0.0  # well-sized sketch almost never fails
    tiny = make_sketch(SketchKind.RADEMACHER, 1, 512, seed=4)
    loose = rounding_sketch_trial(tiny, gamma, trials=50, seed=0, eps=0.05)
    assert loose > 0.2  # k=1 at tight eps fails often
