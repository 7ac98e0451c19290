import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sketchgs.sketch as sk
from sketchgs import (SketchKind, SketchOperator, epsilon_of, fwht,
                      required_sketch_dim, vector_certificate_dim)


def test_required_sketch_dim_rademacher():
    # ceil(7.87 * 0.5^-2 * (6.9*10 + ln(1/0.01))) evaluated independently
    expected = math.ceil(7.87 * 4.0 * (69.0 + math.log(100.0)))
    assert expected == 2318
    assert required_sketch_dim(SketchKind.RADEMACHER, epsilon=0.5, delta=0.01,
                               d=10) == 2318


def test_required_sketch_dim_psrht():
    eps, delta, d, n = 0.5, 0.01, 10, 100000
    expected = math.ceil(2.0 / (eps**2 - eps**3 / 3.0)
                         * (math.sqrt(d) + math.sqrt(8.0 * math.log(6.0 * n / delta)))**2
                         * math.log(3.0 * d / delta))
    assert required_sketch_dim(SketchKind.PSRHT, eps, delta, d, n=n) == expected
    with pytest.raises(ValueError):
        required_sketch_dim(SketchKind.PSRHT, eps, delta, d)  # needs n


def test_required_sketch_dim_monotone():
    kind = SketchKind.RADEMACHER
    k0 = required_sketch_dim(kind, 0.5, 0.01, 10)
    assert required_sketch_dim(kind, 0.25, 0.01, 10) > k0  # tighter epsilon
    assert required_sketch_dim(kind, 0.5, 0.01, 40) > k0  # bigger d


def test_vector_certificate_dim():
    # ceil(2 / (eps^2/2 - eps^3/3) * ln(2/delta)) evaluated independently
    expected = math.ceil(2.0 / (0.25**2 / 2.0 - 0.25**3 / 3.0)
                         * math.log(2.0 / 1e-3))
    assert expected == 584
    assert vector_certificate_dim(0.25, 1e-3) == 584
    assert vector_certificate_dim(0.05, 1e-3) == 12581
    for eps_star, delta_star in ((0.0, 1e-3), (1.0, 1e-3), (0.25, 0.0),
                                 (0.25, 1.0)):
        with pytest.raises(ValueError, match="must lie in"):
            vector_certificate_dim(eps_star, delta_star)


def test_required_sketch_dim_validation():
    # the range is checked before either kind's formula
    for kind in SketchKind:
        with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 1\)$"):
            required_sketch_dim(kind, epsilon=0.0, delta=0.01, d=10, n=1000)
        with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1\)$"):
            required_sketch_dim(kind, epsilon=0.5, delta=1.5, d=10, n=1000)
        with pytest.raises(ValueError, match="^d must be a positive integer$"):
            required_sketch_dim(kind, epsilon=0.5, delta=0.01, d=0, n=1000)


def test_required_sketch_dim_takes_integer_d_and_n():
    # d = 2.5 read as a bound of 616 rows, and a NaN or infinite d failed in
    # float-to-int conversion; an n below 1 passed under Rademacher
    for kind in SketchKind:
        for d in (2.5, np.nan, np.inf, 10.0):
            with pytest.raises(TypeError, match="^d must be an integer"):
                required_sketch_dim(kind, 0.5, 0.01, d, n=1000)
        with pytest.raises(TypeError, match="^n must be an integer"):
            required_sketch_dim(kind, 0.5, 0.01, 10, n=1000.0)
        for n in (0, -5):
            with pytest.raises(ValueError, match=f"got n={n}$"):
                required_sketch_dim(kind, 0.5, 0.01, 10, n=n)
        k = required_sketch_dim(kind, 0.5, 0.01, 10, n=1000)
        assert required_sketch_dim(kind, 0.5, 0.01, np.int64(10),
                                   n=np.int64(1000)) == k


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
    # every log2(s) up to 17, i.e. every split into balanced Kronecker
    # factors of order <= 16, from one factor to five; both orders of
    # summation are backward stable, so they agree to a few ulps per stage
    # relative to the largest output
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
    # sizes whose log2 is not a multiple of 4 mix factors of two orders
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
    a = SketchOperator(kind, 40, 100, seed=11).apply(x)
    b = SketchOperator(kind, 40, 100, seed=11).apply(x)
    c = SketchOperator(kind, 40, 100, seed=12).apply(x)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("kind", [SketchKind.RADEMACHER, SketchKind.PSRHT])
def test_sketch_entries_are_pm_scaled(kind, dense_sketch):
    th = SketchOperator(kind, 16, 24, seed=0)
    M = dense_sketch(th)
    assert M.shape == (16, 24)
    assert np.allclose(np.abs(M), 1.0 / math.sqrt(16))


@pytest.mark.parametrize("kind", [SketchKind.RADEMACHER, SketchKind.PSRHT])
def test_apply_block_matches_apply(kind, rng, dense_sketch):
    if kind is SketchKind.PSRHT:
        # each column is transformed alone: the bits of its own apply
        th = SketchOperator(kind, 20, 50, seed=5)
        X = rng.standard_normal((50, 4))
        blk = th.apply_block(X)
        for j in range(4):
            assert np.array_equal(blk[:, j], th.apply(X[:, j]))
        return
    # Rademacher: a block is one gemm per sign block and a vector one gemv,
    # which sum in different orders, so both are held to the a-priori bound
    # against a reference. n = 5000 spans a full and a partial sign block.
    k, n = 20, 5000
    th = SketchOperator(kind, k, n, seed=5)
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


def _kept(theta, x):
    """theta applied a third time, when it reads the blocks it kept."""
    for _ in range(2):
        theta.apply_block(x)
    assert len(theta._blocks) == -(-theta.n // sk._COLUMN_BLOCK)
    return theta.apply(x)


def test_rademacher_streamed_matches_dense(rng, monkeypatch):
    # n = 9000 spans three column blocks, the last one partial; a zero
    # materialization limit makes the second operator regenerate its blocks
    x = rng.standard_normal(9000)
    dense = _kept(SketchOperator(SketchKind.RADEMACHER, 8, 9000, seed=2), x)
    monkeypatch.setattr(sk, "_MATERIALIZE_LIMIT", 0)
    streamed = SketchOperator(SketchKind.RADEMACHER, 8, 9000, seed=2).apply(x)
    assert np.array_equal(dense, streamed)


def _rademacher_signs(k, n, seed):
    """The unscaled +-1 matrix from its definition: column block b is the
    first k*width bits of the raw 64-bit words of Philox stream (seed, b),
    least significant bit first, filled row by row; a set bit is +1."""
    blocks = []
    for b, j0 in enumerate(range(0, n, sk._COLUMN_BLOCK)):
        width = min(sk._COLUMN_BLOCK, n - j0)
        words = np.random.Philox(key=(seed << 64) | b).random_raw(
            -(-k * width // 64))
        shifts = np.arange(64, dtype=np.uint64)
        bits = (words[:, None] >> shifts) & np.uint64(1)
        blocks.append(bits.reshape(-1)[:k * width].reshape(k, width))
    return np.where(np.hstack(blocks) == 1, 1.0, -1.0)


# k*width is a multiple of 64 in the first two blocks of (7, 9000) and not in
# its last (7 x 808), nor in (3, 5)
@pytest.mark.parametrize("k, n, seed", [(7, 9000, 2), (3, 5, 2**40 + 3)])
def test_rademacher_signs_are_philox_bits(dense_sketch, k, n, seed):
    theta = SketchOperator(SketchKind.RADEMACHER, k, n, seed)
    assert np.array_equal(np.sign(dense_sketch(theta)),
                          _rademacher_signs(k, n, seed))


def test_rademacher_streamed_block_draws_each_block_once(rng, monkeypatch):
    # n = 9000 spans three column blocks, the last one partial
    X = rng.standard_normal((9000, 5))
    kept = SketchOperator(SketchKind.RADEMACHER, 8, 9000,
                          seed=2).apply_block(X)
    monkeypatch.setattr(sk, "_MATERIALIZE_LIMIT", 0)
    draws = []
    philox = sk._philox
    monkeypatch.setattr(sk, "_philox", lambda seed, stream:
                        draws.append(stream) or philox(seed, stream))
    streamed = SketchOperator(SketchKind.RADEMACHER, 8, 9000,
                              seed=2).apply_block(X)
    assert np.array_equal(streamed, kept)
    assert draws == [0, 1, 2]  # each sign block once, not once per column


def test_rademacher_keeps_its_blocks_from_the_second_apply(rng, monkeypatch):
    # n = 9000 spans three column blocks, the last one partial
    X = rng.standard_normal((9000, 5))
    draws = []
    philox = sk._philox
    monkeypatch.setattr(sk, "_philox", lambda seed, stream:
                        draws.append(stream) or philox(seed, stream))
    theta = SketchOperator(SketchKind.RADEMACHER, 8, 9000, seed=2)
    log, vectors, blocks = [], [], []
    for _ in range(3):
        vectors.append(theta.apply(X[:, 0]))
        log.append(draws[:])
        draws.clear()
    theta = SketchOperator(SketchKind.RADEMACHER, 8, 9000, seed=2)
    for _ in range(3):
        blocks.append(theta.apply_block(X))
    assert log == [[0, 1, 2], [0, 1, 2], []]
    assert draws == [0, 1, 2, 0, 1, 2]  # the same per apply_block
    # a block is a pure function of (seed, stream): every apply has its bits
    for got in (vectors, blocks):
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])


def test_rademacher_applied_once_holds_one_block(rng):
    # a one-shot apply_block keeps no block, and its peak allocation is one
    # k x 4096 binary64 block, its int8 draw, and the k x N result and
    # accumulator (never the k x n matrix)
    k, n, N = 64, 3 * sk._COLUMN_BLOCK, 4
    X = rng.standard_normal((n, N))
    theta = SketchOperator(SketchKind.RADEMACHER, k, n, seed=2)
    tracemalloc.start()
    try:
        theta.apply_block(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert theta._blocks == []
    bound = k * sk._COLUMN_BLOCK * (8 + 1) + 2 * k * N * 8
    assert peak <= bound + 16384  # slack for the Philox generator objects


@pytest.mark.parametrize("k", [1, 15, 16, 17, 37, 1000])
def test_rademacher_vector_apply_has_the_bits_of_binary64_block_gemvs(
        k, rng, monkeypatch):
    # a vector is sketched in row panels of the int8 signs widened to
    # binary64, with the bits of one gemv per whole binary64 sign block:
    # acc = sum_b signs_b @ x_b, then scaled. n = 4096 + 100 ends in a
    # partial block; the first apply draws the blocks, the third reads kept
    # ones, and with no materialization limit every apply draws them again.
    n = sk._COLUMN_BLOCK + 100
    x = rng.standard_normal(n)
    signs = _rademacher_signs(k, n, seed=6)
    ref = np.zeros((k, 1))
    for j0 in range(0, n, sk._COLUMN_BLOCK):
        block = np.ascontiguousarray(signs[:, j0:j0 + sk._COLUMN_BLOCK])
        ref += block @ x[j0:j0 + sk._COLUMN_BLOCK, None]
    ref = ref[:, 0] * (1.0 / math.sqrt(k))
    theta = SketchOperator(SketchKind.RADEMACHER, k, n, seed=6)
    first = theta.apply(x)
    kept = _kept(theta, x)
    monkeypatch.setattr(sk, "_MATERIALIZE_LIMIT", 0)
    regenerated = SketchOperator(SketchKind.RADEMACHER, k, n, seed=6)
    for got in (first, kept, regenerated.apply(x), regenerated.apply(x)):
        assert np.array_equal(got, ref)
    assert regenerated._blocks == []


def test_rademacher_keeps_its_blocks_as_int8(rng):
    # one byte per kept sign, k*n in all, not a binary64 block per block
    k, n = 24, 2 * sk._COLUMN_BLOCK + 808
    theta = SketchOperator(SketchKind.RADEMACHER, k, n, seed=3)
    _kept(theta, rng.standard_normal(n))
    assert all(b.dtype == np.int8 for b in theta._blocks)
    assert sum(b.nbytes for b in theta._blocks) == k * n


def test_rademacher_vector_applied_once_widens_no_whole_block(rng):
    # a one-shot vector apply holds one int8 block and one binary64 row
    # panel of it at a time, never a k x 4096 binary64 block
    k, n = 256, 3 * sk._COLUMN_BLOCK
    x = rng.standard_normal(n)
    theta = SketchOperator(SketchKind.RADEMACHER, k, n, seed=2)
    tracemalloc.start()
    try:
        theta.apply(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert theta._blocks == []
    assert peak < k * sk._COLUMN_BLOCK * 8


@pytest.mark.parametrize("kind, applies", [(SketchKind.RADEMACHER, 1),
                                           (SketchKind.RADEMACHER, 3),
                                           (SketchKind.PSRHT, 1)],
                         ids=["rademacher-once", "rademacher-kept", "psrht"])
def test_binary32_input_is_widened_piecewise(kind, applies, rng):
    # n = 3 * 4096 + 100 spans three full column blocks and a partial one. A
    # binary32 block, C- or F-ordered, or column is sketched with the bits of
    # its binary64 widening, a column block or a column at a time: never an
    # n x N binary64 copy. A Rademacher Theta is applied here either for the
    # first time, drawing its blocks, or for the third, reading kept ones.
    k, n, N = 8, 3 * sk._COLUMN_BLOCK + 100, 32
    X32 = rng.standard_normal((n, N)).astype(np.float32)
    kept = SketchOperator(kind, k, n, seed=4)
    for _ in range(applies - 1):
        kept.apply(X32[:, 0])

    def theta():
        return kept if applies > 1 else SketchOperator(kind, k, n, seed=4)

    for X in (X32, np.asfortranarray(X32)):
        assert np.array_equal(theta().apply_block(X),
                              theta().apply_block(X.astype(np.float64)))
        op = theta()
        tracemalloc.start()
        try:
            op.apply_block(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * N * 8
    x = X32[:, 3]
    assert np.array_equal(theta().apply(x), theta().apply(x.astype(np.float64)))
    if applies > 1:
        assert len(kept._blocks) == 4
    # a complex column is refused, where numpy would keep its real part
    Z = np.column_stack([X32[:, :2], 1j * X32[:, 2]])
    for call in (lambda: theta().apply_block(Z), lambda: theta().apply(Z[:, 2])):
        with pytest.raises(TypeError, match="complex input"):
            call()


@pytest.mark.filterwarnings("ignore:sketch dimension")
@settings(max_examples=25)
@given(st.integers(1, 64), st.integers(1, 9000), st.integers(0, 2**32 - 1))
# block edges: one full block, one column past two, three with a partial last
@example(3, 4096, 1)
@example(5, 8193, 2)
@example(64, 9000, 0)
def test_rademacher_blocks_property(dense_sketch, k, n, seed):
    x = np.random.default_rng(seed).standard_normal(n)
    kept = SketchOperator(SketchKind.RADEMACHER, k, n, seed)
    y = _kept(kept, x)
    old = sk._MATERIALIZE_LIMIT
    sk._MATERIALIZE_LIMIT = 0
    try:
        regenerated = SketchOperator(SketchKind.RADEMACHER, k, n, seed)
        assert np.array_equal(regenerated.apply(x), y)
    finally:
        sk._MATERIALIZE_LIMIT = old
    M = dense_sketch(kept)
    assert np.array_equal(np.abs(M), np.full((k, n), 1.0 / math.sqrt(k)))
    # both sum n terms of size |x_j|/sqrt(k), in different orders
    tol = 2 * n * np.finfo(np.float64).eps * np.sum(np.abs(x)) / math.sqrt(k)
    assert np.max(np.abs(M @ x - y)) <= tol


# sketch.make_sketch is the spelling the benchmark calls, kept out of the
# package's names until the benchmark stops calling it
@pytest.mark.parametrize("build", [SketchOperator, sk.make_sketch],
                         ids=["SketchOperator", "make_sketch"])
def test_k_above_n_warning_names_the_callers_line(build):
    with pytest.warns(UserWarning, match="k=20 exceeds") as record:
        build(SketchKind.RADEMACHER, 20, 10, seed=0)
    assert [w.filename for w in record] == [__file__]


def test_psrht_consistent_with_definition(rng):
    # oracle: dense D (signs), dense Hadamard, explicit row sampling
    th = SketchOperator(SketchKind.PSRHT, 10, 24, seed=9)
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
    th = SketchOperator(SketchKind.PSRHT, 4, 10, seed=0)
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
    # the padded size is checked before the n signs are drawn, so this
    # allocates nothing
    with pytest.raises(OverflowError, match="padded Hadamard size"):
        SketchOperator(SketchKind.PSRHT, 1, 2**62, seed=0)


@pytest.mark.parametrize("kind", list(SketchKind), ids=lambda k: k.value)
def test_sketch_seed_outside_64_bits_is_rejected_when_built(kind):
    # the seed is the high word of every Philox key: outside [0, 2**64) it
    # is refused by name when the sketch is built, not at its first apply
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"\[0, 2\*\*64\), got {seed}$"):
            SketchOperator(kind, 10, 100, seed)
    for seed in (0, 2**64 - 1):
        assert SketchOperator(kind, 10, 100, seed).apply(np.ones(100)).shape == (10,)


@pytest.mark.parametrize("kind", list(SketchKind), ids=lambda k: k.value)
def test_sketch_rejects_non_integral_arguments(kind):
    # int(1.5) would build seed 1, and k = 4.7 a 4-row sketch or a slice error
    for k, n, seed, name in ((4.7, 100, 1, "k"), (4.0, 100, 1, "k"),
                             (4, 100.0, 1, "n"), (4, 100, 1.5, "sketch seed"),
                             (4, 100, "1", "sketch seed")):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            SketchOperator(kind, k, n, seed)
    theta = SketchOperator(kind, np.int64(4), np.int32(100), np.uint64(2**64 - 1))
    assert (theta.k, theta.n, theta.seed) == (4, 100, 2**64 - 1)
    assert all(type(v) is int for v in (theta.k, theta.n, theta.seed))


@pytest.mark.parametrize("kind", list(SketchKind), ids=lambda k: k.value)
def test_complex_input_raises_type_error(kind, rng):
    # numpy would sketch the real part, with a ComplexWarning only
    theta = SketchOperator(kind, 8, 100, seed=1)
    Z = rng.standard_normal((100, 3)) * (1 + 1j)
    for apply in (lambda: theta.apply(Z[:, 0]), lambda: theta.apply_block(Z)):
        with pytest.raises(TypeError, match="complex input"):
            apply()


def test_epsilon_of_orthonormal_identity_sketch(rng):
    # with an exactly orthonormal sketch of full dimension, epsilon is ~0
    V = rng.standard_normal((64, 5))

    class _Eye:
        k, n = 64, 64

        def apply_block(self, X):
            return np.asarray(X, dtype=np.float64)

    assert epsilon_of(_Eye(), V) < 1e-12


def test_epsilon_of_detects_distortion(rng):
    th = SketchOperator(SketchKind.RADEMACHER, 30, 256, seed=1)
    V = rng.standard_normal((256, 4))
    eps = epsilon_of(th, V)
    # k=30 for d=4 distorts noticeably but embeds reasonably
    assert 0.0 < eps < 1.0
    # range(V), and so its embedding error, does not depend on the scale of
    # V's columns, however uneven
    assert epsilon_of(th, V * [1.0, 1e-14, 1.0, 1e3]) == pytest.approx(
        eps, rel=1e-12)
    # a zero or a repeated column leaves range(V) short of V's width
    for bad in (np.zeros((256, 2)), np.hstack([V, V[:, 1:2]])):
        with pytest.raises(np.linalg.LinAlgError):
            epsilon_of(th, bad)


def test_rounding_sketch_trial_rates(rounding_sketch_trial):
    th = SketchOperator(SketchKind.RADEMACHER, 256, 512, seed=4)
    gamma = np.full(512, 1e-3)
    rate = rounding_sketch_trial(th, gamma, trials=50, seed=0, eps=0.5)
    assert rate == 0.0  # well-sized sketch almost never fails
    tiny = SketchOperator(SketchKind.RADEMACHER, 1, 512, seed=4)
    loose = rounding_sketch_trial(tiny, gamma, trials=50, seed=0, eps=0.05)
    assert loose > 0.2  # k=1 at tight eps fails often
