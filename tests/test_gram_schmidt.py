import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchgs import (BreakdownError, ClassicalGsState, GsVariant,
                      MIXED32_64, NonFiniteError, SketchKind, SketchOperator,
                      UNIFIED32, UNIFIED64, certificates, classical_factorize,
                      generate_laplacian_2d, gmres, loss_of_orthogonality,
                      rgs_factorize, vector_certificate_dim)
from sketchgs.gram_schmidt import (RgsState, _IncrementalHouseholderQR,
                                   _PUSH_BLOCK)


_CLASSICAL = (GsVariant.CGS, GsVariant.MGS, GsVariant.CGS2)


def _state(variant, n, capacity, policy=MIXED32_64, kind=SketchKind.PSRHT, k=64):
    if variant is GsVariant.RGS:
        theta = SketchOperator(kind, k, n, seed=5)
        return RgsState(theta, policy, capacity=capacity)
    return ClassicalGsState(n, variant, policy, capacity=capacity)


def _snapshot(state):
    names = ("m", "Q", "R") + (("S", "P") if isinstance(state, RgsState) else ())
    return {name: np.copy(getattr(state, name)) for name in names}


# a certification sketch Phi with no more rows than the n = 400 of
# `_problem`, sized by the single-vector bound for eps* = 0.35
_EPS_STAR = 0.35


def _phi(n):
    return SketchOperator(SketchKind.RADEMACHER,
                          vector_certificate_dim(_EPS_STAR, 1e-3), n,
                          seed=0x0F1A)


def _problem(rng, n=400, m=12, cond=1e4):
    """Tall matrix with prescribed condition number."""
    U, _ = np.linalg.qr(rng.standard_normal((n, m)))
    V, _ = np.linalg.qr(rng.standard_normal((m, m)))
    sv = np.logspace(0, -np.log10(cond), m)
    return (U * sv) @ V.T


def test_rgs_reconstruction_f64(rng):
    W = _problem(rng, cond=100.0)
    theta = SketchOperator(SketchKind.RADEMACHER, 128, 400, seed=1)
    f, cert = rgs_factorize(W, theta, UNIFIED64)
    # exact relation W = Q R holds to fine roundoff
    err = np.linalg.norm(W - f.Q @ f.R) / np.linalg.norm(W)
    assert err < 1e-13
    assert np.allclose(f.R, np.triu(f.R))
    assert cert.delta_m < 1e-12
    assert cert.delta_tilde_m < 1e-12
    # Q is orthonormal in the sketched inner product, well-conditioned in l2
    assert loss_of_orthogonality(f.S) < 1e-12
    assert np.linalg.cond(f.Q) < 5.0


def test_rgs_sketch_consistency(rng):
    # S and P are exactly the sketches of Q and W (up to fine roundoff)
    W = _problem(rng, cond=10.0)
    theta = SketchOperator(SketchKind.PSRHT, 96, 400, seed=3)
    f, _ = rgs_factorize(W, theta, UNIFIED64)
    assert np.allclose(f.P, theta.apply_block(W), atol=1e-12)
    assert np.allclose(f.S, theta.apply_block(f.Q), atol=1e-10)


def test_rgs_mixed_precision_storage(rng):
    W = _problem(rng)
    theta = SketchOperator(SketchKind.RADEMACHER, 128, 400, seed=0)
    f, _ = rgs_factorize(W, theta, MIXED32_64)
    assert f.Q.dtype == np.float32
    assert f.R.dtype == np.float64
    assert f.S.dtype == np.float64
    err = np.linalg.norm(W - f.Q.astype(np.float64) @ f.R) / np.linalg.norm(W)
    assert err < 1e-5  # coarse roundoff scale


def test_rgs_streaming_matches_batch(rng):
    # the same column blocks streamed through push_block, a full and a
    # partial one, into a state with room for more columns than it gets
    W = _problem(rng, n=300, m=40)
    theta = SketchOperator(SketchKind.RADEMACHER, 80, 300, seed=2)
    batch, _ = rgs_factorize(W, theta, MIXED32_64, with_certificate=False)
    state = RgsState(theta, MIXED32_64, capacity=64)
    for j in range(0, 40, _PUSH_BLOCK):
        state.push_block(W[:, j:j + _PUSH_BLOCK])
    f = state.factors()
    assert np.array_equal(batch.Q, f.Q)
    assert np.array_equal(batch.R, f.R)
    assert np.array_equal(batch.S, f.S)
    assert np.array_equal(batch.P, f.P)


@pytest.mark.parametrize("variant, kind", [
    *(pytest.param(GsVariant.RGS, kind, id=kind.value) for kind in SketchKind),
    *(pytest.param(v, None, id=v.value) for v in _CLASSICAL)])
@pytest.mark.parametrize("policy", [MIXED32_64, UNIFIED64],
                         ids=["mixed", "unified64"])
def test_push_block_of_one_column_is_push(rng, variant, kind, policy):
    # b = 1 is push bit for bit; n = 5000 spans two Rademacher sign blocks
    W = _problem(rng, n=5000, m=6)
    by_column, by_block = (_state(variant, 5000, 16, policy, kind, k=40)
                           for _ in range(2))
    for j in range(6):
        r_ii = by_column.push(W[:, j])
        assert np.array_equal(by_block.push_block(W[:, j:j + 1]), [r_ii])
    for name, value in _snapshot(by_column).items():
        assert np.array_equal(getattr(by_block, name), value), name


def test_rgs_push_stream_P_within_a_priori_bound(rng, dense_sketch):
    # a Rademacher block apply sums in another order than a per-column
    # apply, so a push stream's P and rgs_factorize's P need not share bits;
    # both are held to the bound of test_sketch.py's
    # test_apply_block_matches_apply against an fsum reference
    k, n, m = 36, 5000, 34  # two blocks: 32 columns and 2
    W = rng.standard_normal((n, m))
    theta = SketchOperator(SketchKind.RADEMACHER, k, n, seed=6)
    batch, _ = rgs_factorize(W, theta, UNIFIED64, with_certificate=False)
    state = RgsState(theta, UNIFIED64, capacity=m)
    for j in range(m):
        state.push(W[:, j])
    scale = 1.0 / math.sqrt(k)
    signs = np.sign(dense_sketch(theta))
    u = 2.0**-53
    gamma = n * u / (1.0 - n * u)
    for j in range(m):
        tol = ((1.0 + u) * gamma + 4.0 * u) * scale * np.sum(np.abs(W[:, j]))
        ref = [scale * math.fsum(signs[i] * W[:, j]) for i in range(k)]
        assert np.all(np.abs(batch.P[:, j] - ref) <= tol)
        assert np.all(np.abs(state.P[:, j] - ref) <= tol)


@pytest.mark.parametrize("policy", [MIXED32_64, UNIFIED64])
def test_rgs_bits_independent_of_capacity(rng, policy):
    # a stream into room for 64 columns and rgs_factorize, which allocates
    # exactly its 40, must give the same bits
    W = _problem(rng, n=3000, m=40, cond=1e6)
    theta = SketchOperator(SketchKind.PSRHT, 100, 3000, seed=4)
    batch, _ = rgs_factorize(W, theta, policy, with_certificate=False)
    state = RgsState(theta, policy, capacity=64)
    for j in range(40):
        state.push(W[:, j])
    f = state.factors()
    for name in ("Q", "R", "S", "P"):
        assert np.array_equal(getattr(batch, name), getattr(f, name)), name


def test_rgs_breakdown_on_dependent_columns(rng):
    W = _problem(rng, n=200, m=4)
    W = np.concatenate([W, W[:, :1]], axis=1)  # exact repeat of column 1
    theta = SketchOperator(SketchKind.RADEMACHER, 64, 200, seed=5)
    with pytest.raises(BreakdownError) as exc:
        rgs_factorize(W, theta, UNIFIED64)
    assert exc.value.column == 5


def test_rgs_breakdown_factor_zero_pushes_through(rng):
    W = _problem(rng, n=200, m=4).astype(np.float32).astype(np.float64)
    W = np.concatenate([W, W[:, :1] * (1 + 1e-7)], axis=1)
    theta = SketchOperator(SketchKind.RADEMACHER, 64, 200, seed=5)
    with pytest.raises(BreakdownError):
        rgs_factorize(W, theta, UNIFIED32)
    f, _ = rgs_factorize(W, theta, UNIFIED32, breakdown_factor=0.0)
    assert f.Q.shape == (200, 5)


def test_rgs_input_validation(rng):
    theta = SketchOperator(SketchKind.RADEMACHER, 8, 100, seed=0)
    with pytest.raises(ValueError):
        rgs_factorize(rng.standard_normal((100, 12)), theta)  # k < m
    # the sketched QR needs a row per column: the state checks k >= capacity
    with pytest.raises(ValueError, match=r"k >= 9 sketch rows.*k=8"):
        RgsState(theta, capacity=theta.k + 1)
    assert RgsState(theta, capacity=theta.k).m == 0
    with pytest.raises(ValueError):
        rgs_factorize(rng.standard_normal(100), theta)  # not a matrix
    # a stream of columns goes to RgsState.push; rgs_factorize takes a matrix
    with pytest.raises(ValueError, match="W must be a matrix"):
        rgs_factorize((w for w in rng.standard_normal((4, 100))), theta)


def _householder(S, dtype=np.float64):
    """The incremental QR of the columns of S, appended one at a time."""
    qr = _IncrementalHouseholderQR(*S.shape, dtype)
    for j in range(S.shape[1]):
        qr.append(S[:, j])
    return qr


def test_sketched_lsq_solvers_agree(rng):
    S = np.linalg.qr(rng.standard_normal((60, 8)))[0]
    S += 1e-4 * rng.standard_normal((60, 8))  # near-orthonormal columns
    p = rng.standard_normal(60)
    oracle = np.linalg.lstsq(S, p, rcond=None)[0]
    assert np.allclose(_householder(S).solve(p), oracle, atol=1e-12)


def test_householder_lsq_binary32(rng):
    # the unified binary32 policy solves its sketched least squares in binary32
    S = np.linalg.qr(rng.standard_normal((60, 8)))[0]
    p = rng.standard_normal(60)
    oracle = np.linalg.lstsq(S, p, rcond=None)[0]
    y = _householder(S.astype(np.float32), np.float32).solve(p.astype(np.float32))
    assert y.dtype == np.float32
    assert np.allclose(y, oracle, rtol=0, atol=1e-5)
    assert not np.allclose(y, oracle, rtol=0, atol=1e-9)


def test_sketched_lsq_rank_deficient(rng):
    S = np.zeros((20, 3))
    S[:, 0] = S[:, 1] = rng.standard_normal(20)
    with pytest.raises(np.linalg.LinAlgError):
        _householder(S).solve(rng.standard_normal(20))


def _householder_lsq_bound(k, i, u, kappa, rho):
    """Forward error bound ||y - x|| / ||x|| of Householder least squares.

    Householder QR solves a nearby problem (S + dS) y ~ p + dp with
    ||dS e_j|| <= g ||S e_j||, ||dp|| <= g ||p||, g = k i u / (1 - k i u)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Thm 20.3, with the small constant taken as 1), so ||dS||_2 <= eps ||S||_2
    with eps = sqrt(i) g. The perturbation bound of Thm 20.1 then gives
    kappa eps / (1 - kappa eps) * (2 + (kappa + 1) rho), where
    rho = ||p - S x|| / (||S||_2 ||x||) and kappa = cond_2(S).
    """
    g = k * i * u / (1 - k * i * u)
    eps = math.sqrt(i) * g
    assert kappa * eps < 1
    return eps, kappa * eps / (1 - kappa * eps) * (2 + (kappa + 1) * rho)


@settings(max_examples=40)
@given(st.integers(1, 80).flatmap(lambda k: st.tuples(st.just(k), st.integers(1, k))),
       st.floats(0.0, 2.0), st.sampled_from([np.float64, np.float32]),
       st.integers(0, 2**32 - 1))
# (17, 17) and (80, 80) fill all k rows
@example((17, 17), 1.0, np.float32, 0)
@example((65, 40), 2.0, np.float64, 1)
@example((80, 80), 2.0, np.float32, 2)
def test_householder_lsq_property(ki, log_cond, dtype, seed):
    (k, i), u64 = ki, np.finfo(np.float64).eps / 2
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((k, i)))[0]
    V = np.linalg.qr(rng.standard_normal((i, i)))[0]
    S = ((U * np.logspace(0, -log_cond, i)) @ V.T).astype(dtype)
    p = rng.standard_normal(k).astype(dtype)
    u = np.finfo(dtype).eps / 2
    qr = _IncrementalHouseholderQR(k, i, dtype)
    for j in range(1, i + 1):
        qr.append(S[:, j - 1])
        # binary64 oracle on the same rounded data; a column block of S is
        # no worse conditioned than S
        Sj = S[:, :j].astype(np.float64)
        p64 = p.astype(np.float64)
        x = np.linalg.lstsq(Sj, p64, rcond=None)[0]
        sv = np.linalg.svd(Sj, compute_uv=False)
        rho = np.linalg.norm(p64 - Sj @ x) / (sv[0] * np.linalg.norm(x))
        eps, bound = _householder_lsq_bound(k, j, u, sv[0] / sv[-1], rho)
        # the oracle is itself backward stable in binary64
        bound += _householder_lsq_bound(k, j, u64, sv[0] / sv[-1], rho)[1]
        y = qr.solve(p)
        assert y.dtype == dtype
        assert np.linalg.norm(y - x) <= bound * np.linalg.norm(x)
        R = np.triu(qr._V[:j, :j])
        assert R.dtype == dtype
        # R^T R = (S + dS)^T (S + dS), evaluated in binary64
        R64 = R.astype(np.float64)
        gram_err = np.linalg.norm(R64.T @ R64 - Sj.T @ Sj, 2)
        assert gram_err <= (2 * eps + eps**2 + 4 * j * u64) * sv[0]**2


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k, m", [(200, 40), (24, 24)])  # m = k fills every row
def test_householder_keeps_geqrf_format(rng, dtype, k, m):
    # appended one column at a time, the state is LAPACK's geqrf of S: R on
    # and above the diagonal of _V, the reflectors below it, tau in _tau
    S = rng.standard_normal((k, m)).astype(dtype)
    qr = _householder(S, dtype)
    (ref, tau), R = scipy.linalg.qr(S, mode="raw")
    # Each run is the exact QR of some S + dS with ||dS|| <= gamma ||S||
    # (Higham, Thm 19.4), so to first order their factors differ by
    # cond_2(S) gamma; gamma is taken as m u times sqrt(k), the probabilistic
    # size of the rounding in a k-term inner product.
    u = np.finfo(dtype).eps / 2
    tol = np.linalg.cond(S.astype(np.float64)) * math.sqrt(k) * m * u
    V = qr._V[:, :m]
    assert V.dtype == qr._tau.dtype == dtype
    assert np.abs(np.triu(V - ref)).max() <= tol * np.abs(R).max()
    assert np.abs(np.tril(V - ref, -1)).max() <= tol
    assert np.abs(qr._tau[:m] - tau).max() <= tol


@pytest.mark.parametrize("variant", [GsVariant.CGS, GsVariant.MGS, GsVariant.CGS2])
def test_classical_reconstruction(rng, variant):
    W = _problem(rng, cond=100.0)
    f = classical_factorize(W, variant, policy=UNIFIED64)
    assert np.linalg.norm(W - f.Q @ f.R) / np.linalg.norm(W) < 1e-13
    assert loss_of_orthogonality(f.Q) < 1e-10
    assert np.allclose(f.R, np.triu(f.R))
    # R diagonal positive
    assert np.all(np.diag(f.R) > 0)


def test_classical_orthogonality_ordering(rng):
    # on an ill-conditioned input: CGS worst, MGS middle, CGS2 best
    W = _problem(rng, n=600, m=40, cond=1e8)
    loo = {v: loss_of_orthogonality(
        classical_factorize(W, v, policy=UNIFIED64).Q)
        for v in (GsVariant.CGS, GsVariant.MGS, GsVariant.CGS2)}
    assert loo[GsVariant.CGS2] < loo[GsVariant.MGS] < loo[GsVariant.CGS]
    assert loo[GsVariant.CGS2] < 1e-13


@pytest.mark.parametrize("variant", [GsVariant.CGS, GsVariant.MGS, GsVariant.CGS2])
def test_classical_streaming_bit_identical_to_batch(rng, variant):
    W = _problem(rng, n=500, m=24, cond=1e6)
    f = classical_factorize(W, variant, policy=MIXED32_64)
    st = ClassicalGsState(500, variant, MIXED32_64, capacity=24)
    for j in range(24):
        st.push(W[:, j])
    assert np.array_equal(f.Q, st.Q)
    assert np.array_equal(f.R, st.R)


def test_classical_mgs_binary32_independent_of_capacity(rng):
    # binary32 MGS reads each column unit-stride whatever the capacity, so
    # room for 64 columns gives the bits of a batch run that allocates 40
    W = _problem(rng, n=3000, m=40, cond=1e6)
    f = classical_factorize(W, GsVariant.MGS, policy=MIXED32_64)
    st = ClassicalGsState(3000, GsVariant.MGS, MIXED32_64, capacity=64)
    for j in range(40):
        st.push(W[:, j])
    assert np.array_equal(f.Q, st.Q)
    assert np.array_equal(f.R, st.R)


def _mgs_copying_columns(W, policy):
    """MGS as it ran on a row-major Q: each earlier column copied to a
    contiguous buffer, then q' = q' - r_j q_j in fresh temporaries."""
    dtype = policy.coarse_dtype
    n, m = W.shape
    Q = np.zeros((n, m), dtype=dtype)
    R = np.zeros((m, m))
    for i in range(m):
        qp = np.ascontiguousarray(W[:, i], dtype=np.float64).astype(dtype)
        r_col = np.zeros(i, dtype=dtype)
        for j in range(i):
            q = np.ascontiguousarray(Q[:, j])
            r_col[j] = q @ qp
            qp = qp - r_col[j] * q
        r_ii = float(np.linalg.norm(qp))
        Q[:, i] = qp / qp.dtype.type(r_ii)
        R[:i, i] = r_col
        R[i, i] = r_ii
    return Q, R


@pytest.mark.parametrize("policy", [MIXED32_64, UNIFIED32, UNIFIED64],
                         ids=lambda p: p.mode)
def test_classical_mgs_bits_equal_copying_loop(rng, policy):
    # reading the columns of a column-major Q in place keeps every bit of the
    # copying loop, in a batch and in a stream into room for 64 columns
    W = _problem(rng, n=1001, m=40, cond=1e6)
    Q, R = _mgs_copying_columns(W, policy)
    f = classical_factorize(W, GsVariant.MGS, policy=policy)
    st = ClassicalGsState(1001, GsVariant.MGS, policy, capacity=64)
    for j in range(40):
        st.push(W[:, j])
    for got in (f, st):
        assert np.array_equal(got.Q, Q)
        assert np.array_equal(got.R, R)


@pytest.mark.parametrize("variant", [GsVariant.CGS, GsVariant.MGS, GsVariant.CGS2])
def test_classical_q_layout(rng, variant):
    # MGS reads columns of Q, CGS and CGS2 multiply by it as a row-major
    # matrix, whatever the capacity, and the factors hand that layout over
    W = _problem(rng, n=300, m=20)
    st = ClassicalGsState(300, variant, MIXED32_64, capacity=32)
    for j in range(20):
        st.push(W[:, j])
    Q = classical_factorize(W, variant, MIXED32_64).Q
    for a in (st._Q, Q):
        if variant is GsVariant.MGS:
            assert a.flags.f_contiguous and not a.flags.c_contiguous
        else:
            assert a.flags.c_contiguous and not a.flags.f_contiguous


def _factorize(W, variant):
    if variant is GsVariant.RGS:
        theta = SketchOperator(SketchKind.PSRHT, 64, W.shape[0], seed=5)
        return rgs_factorize(W, theta, MIXED32_64)[0]
    return classical_factorize(W, variant, policy=MIXED32_64)


_VARIANTS = pytest.mark.parametrize(
    "variant", [GsVariant.RGS, GsVariant.CGS, GsVariant.MGS, GsVariant.CGS2],
    ids=lambda v: v.value)


@_VARIANTS
@pytest.mark.parametrize("fault", ["nan", "overflow", "norm", "ref_norm"])
def test_nonfinite_column_raises(rng, variant, fault):
    # a NaN in the input, a column that overflows binary32 when Q is stored,
    # or a finite binary32 column whose norm overflows binary32 (that of q'
    # for "norm", only that of w for "ref_norm") is reported at that column,
    # not as a non-finite Q or a breakdown. RGS takes both norms of the last
    # two in binary64, so it factorizes those inputs.
    if fault == "norm":
        W = rng.standard_normal((200, 5))  # q' keeps most of w
    else:
        W = _problem(rng, n=200, m=5)
    if fault == "nan":
        W[17, 2] = np.nan
    else:
        W[:, 2] *= 1e40 if fault == "overflow" else 1e20
    with np.errstate(all="ignore"):
        if variant is GsVariant.RGS and fault in ("norm", "ref_norm"):
            assert np.isfinite(_factorize(W, variant).Q).all()
            return
        with pytest.raises(NonFiniteError) as exc:
            _factorize(W, variant)
    assert exc.value.column == 3


@_VARIANTS
@pytest.mark.parametrize("error", [BreakdownError, NonFiniteError, ValueError],
                         ids=lambda e: e.__name__)
def test_failed_push_leaves_state_unchanged(rng, variant, error):
    # the Krylov loop catches a failed push and goes on with the same state.
    # The fifth push fails: a breakdown, an overflow, or (ValueError) a
    # column that does not fit in a full capacity of 4.
    W = _problem(rng, n=200, m=7)
    capacity = 4 if error is ValueError else 7
    state = _state(variant, 200, capacity)
    for j in range(4):
        state.push(W[:, j])
    if error is BreakdownError:
        bad = np.zeros(200)  # r_ii = 0 trips the guard in every variant
    elif error is NonFiniteError:
        bad = W[:, 4] * 1e40  # overflows binary32 when stored
    else:
        bad = W[:, 4]
    before = _snapshot(state)
    # push, and push_block of that one column
    for push in (state.push, lambda w: state.push_block(w[:, None])):
        with pytest.raises(error), np.errstate(all="ignore"):
            push(bad)
        after = _snapshot(state)
        for name, value in before.items():
            assert np.array_equal(after[name], value), name
    for j in range(4, capacity):
        state.push(W[:, j])
    clean = _state(variant, 200, capacity)
    for j in range(capacity):
        clean.push(W[:, j])
    for name, value in _snapshot(clean).items():
        assert np.array_equal(getattr(state, name), value), name


@pytest.mark.parametrize("variant, error", [
    *(pytest.param(GsVariant.RGS, e, id=e.__name__)
      for e in (BreakdownError, NonFiniteError)),
    *(pytest.param(v, e, id=f"{v.value}-{e.__name__}")
      for v in _CLASSICAL for e in (BreakdownError, NonFiniteError))])
def test_failed_push_block_keeps_earlier_columns(rng, variant, error):
    # a block whose second column fails keeps its first column pushed, and
    # the state stays usable
    W = _problem(rng, n=200, m=7)
    state = _state(variant, 200, capacity=7)
    state.push_block(W[:, :4])
    bad = np.zeros(200) if error is BreakdownError else W[:, 5] * 1e40
    with pytest.raises(error) as exc, np.errstate(all="ignore"):
        state.push_block(np.column_stack([W[:, 4], bad, W[:, 5]]))
    assert exc.value.column == 6
    clean = _state(variant, 200, capacity=7)
    for j in range(5):
        clean.push(W[:, j])
    for name, value in _snapshot(clean).items():
        assert np.array_equal(getattr(state, name), value), name
    state.push(W[:, 5])  # runs its own Step 1 after the failed block
    state.push_block(W[:, 6:])
    for j in range(5, 7):
        clean.push(W[:, j])
    for name, value in _snapshot(clean).items():
        assert np.array_equal(getattr(state, name), value), name


@_VARIANTS
def test_push_rejects_a_column_of_the_wrong_length(variant):
    state = _state(variant, 200, capacity=4)
    for w in (np.ones(199), np.ones((200, 1))):
        with pytest.raises(ValueError, match="column length mismatch"):
            state.push(w)
    assert state.m == 0


@_VARIANTS
def test_push_block_past_capacity_keeps_the_columns_that_fit(rng, variant):
    # a block of 3 columns into room for 2 more pushes those 2 and raises
    # at the third, which leaves the state as 2 pushes would
    W = _problem(rng, n=200, m=5)
    state = _state(variant, 200, capacity=4)
    state.push_block(W[:, :2])
    with pytest.raises(ValueError, match="state is full: capacity 4"):
        state.push_block(W[:, 2:])
    clean = _state(variant, 200, capacity=4)
    for j in range(4):
        clean.push(W[:, j])
    for name, value in _snapshot(clean).items():
        assert np.array_equal(getattr(state, name), value), name


@_VARIANTS
def test_nonfinite_block_pushes_nothing(rng, variant):
    # the whole block is checked first: a NaN in its third column is
    # reported at its global index and no column of the block is pushed
    W = _problem(rng, n=200, m=7)
    state = _state(variant, 200, capacity=4)
    state.push_block(W[:, :3])
    before = _snapshot(state)
    block = W[:, 3:].copy()
    block[11, 2] = np.nan
    with pytest.raises(NonFiniteError) as exc:
        state.push_block(block)
    assert exc.value.column == 3 + 2 + 1
    for name, value in before.items():
        assert np.array_equal(getattr(state, name), value), name
    with pytest.raises(ValueError):
        state.push_block(W[:100, 3:])  # n rows are required


@_VARIANTS
def test_factors_taken_mid_stream_keep_their_bits(rng, variant):
    # factors are views of the state's arrays, which never move, and a
    # pushed column is never written again, so factors taken after 3 and 4
    # columns keep every bit through the pushes that fill the state
    W = _problem(rng, n=200, m=12)
    state = _state(variant, 200, capacity=12)
    state.push_block(W[:, :3])
    partial = state.factors()
    assert np.shares_memory(partial.Q, state._Q)
    assert np.shares_memory(partial.R, state._R)
    state.push(W[:, 3])
    full = state.factors()
    taken = [(f, {name: np.copy(a) for name, a in vars(f).items()
                  if a is not None}) for f in (partial, full)]
    state.push_block(W[:, 4:])
    for f, before in taken:
        for name, value in before.items():
            assert np.array_equal(getattr(f, name), value), name
            now = getattr(state, name)[:len(value), :value.shape[1]]
            assert np.array_equal(now, value), name


def _traced_factorize(W, variant):
    """The factors of W under MIXED32_64, guard off, and the traced peak
    above what the factorizer retains once it returns."""
    theta = SketchOperator(SketchKind.PSRHT, 300, len(W), seed=1)
    tracemalloc.start()
    try:
        if variant is GsVariant.RGS:
            f, _ = rgs_factorize(W, theta, MIXED32_64, with_certificate=False,
                                 breakdown_factor=0.0)
        else:
            f = classical_factorize(W, variant, MIXED32_64, breakdown_factor=0.0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return f, peak - retained


@_VARIANTS
def test_factorizers_hand_over_their_arrays(variant):
    # the factors are the state's own arrays, so the memory a factorizer
    # needs beyond what it returns (an n x 32 block copy and one column's
    # temporaries) stays below one extra copy of Q where Q dominates
    W = np.random.default_rng(0).standard_normal((8000, 256))
    f, beyond = _traced_factorize(W, variant)
    assert beyond < f.Q.nbytes


@_VARIANTS
def test_column_major_w_is_pushed_in_place(variant):
    # push_block reads the columns of a column-major binary64 W as they are:
    # beyond what a factorizer returns it needs less than the n x 32
    # binary64 block copy that any other layout costs
    n = 8000
    W = np.asfortranarray(np.random.default_rng(0).standard_normal((n, 256)))
    _, beyond = _traced_factorize(W, variant)
    assert beyond < n * _PUSH_BLOCK * 8


@pytest.mark.parametrize("variant, kind", [
    (GsVariant.RGS, SketchKind.PSRHT), (GsVariant.RGS, SketchKind.RADEMACHER),
    *((v, None) for v in _CLASSICAL)], ids=lambda x: getattr(x, "value", x))
@pytest.mark.parametrize("policy", [MIXED32_64, UNIFIED64],
                         ids=lambda p: p.mode)
def test_factors_do_not_depend_on_the_layout_of_w(rng, variant, kind, policy):
    # a column-major W is read in place and any other copied block by
    # block: the same columns give the same bits, over more than one block
    W = _problem(rng, n=400, m=_PUSH_BLOCK + 8)

    def factorize(X):
        if variant is GsVariant.RGS:
            theta = SketchOperator(kind, 64, 400, seed=2)
            return rgs_factorize(X, theta, policy, with_certificate=False)[0]
        return classical_factorize(X, variant, policy)

    by_rows, by_columns = factorize(W), factorize(np.asfortranarray(W))
    for name, a in vars(by_rows).items():
        b = getattr(by_columns, name)
        assert (a is None and b is None) or np.array_equal(a, b), name


@_VARIANTS
def test_complex_input_raises_type_error(rng, variant):
    # numpy would factorize the real part, with a ComplexWarning only
    Z = _problem(rng, n=200, m=4) + 1j * _problem(rng, n=200, m=4)
    with pytest.raises(TypeError, match="complex input"):
        if variant is GsVariant.RGS:
            rgs_factorize(Z, SketchOperator(SketchKind.PSRHT, 64, 200, seed=5))
        else:
            classical_factorize(Z, variant)
    state = _state(variant, 200, capacity=4)
    for push in (lambda: state.push(Z[:, 0]), lambda: state.push_block(Z)):
        with pytest.raises(TypeError, match="complex input"):
            push()
    assert state.m == 0


@_VARIANTS
@pytest.mark.parametrize("policy", [MIXED32_64, UNIFIED64],
                         ids=lambda p: p.mode)
@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["f64", "f32"])
def test_push_leaves_the_callers_column_unchanged(rng, variant, policy, dtype):
    # under UNIFIED64 a contiguous binary64 column passes the input checks
    # as the caller's own array; MGS updates q' in place, in its own copy
    W = _problem(rng, n=200, m=6).astype(dtype)
    state = _state(variant, 200, 6, policy)
    for j in range(6):
        w = W[:, j].copy()
        state.push(w)
        assert np.array_equal(w, W[:, j])


@pytest.mark.parametrize("variant", [GsVariant.CGS, GsVariant.MGS, GsVariant.CGS2])
@pytest.mark.parametrize("policy", [MIXED32_64, UNIFIED64],
                         ids=lambda p: p.mode)
def test_classical_breakdown_tolerance_reads_input_norm(rng, variant, policy):
    # the guard compares r_ii with ||w||, not with the norm of the buffer
    # that MGS has updated in place into q'
    W = _problem(rng, n=100, m=3, cond=10.0)
    state = ClassicalGsState(100, variant, policy, capacity=4,
                             breakdown_factor=1e4)
    for j in range(3):
        state.push(W[:, j])
    w = W[:, 0] - 2.0 * W[:, 2]  # in the span, up to rounding
    with pytest.raises(BreakdownError) as exc:
        state.push(w)
    ref_norm = float(np.linalg.norm(w.astype(policy.coarse_dtype)))
    assert exc.value.tol == 1e4 * policy.u_crs * ref_norm
    assert state.m == 3


def test_classical_rejects_rgs_variant():
    with pytest.raises(ValueError, match="classical Gram-Schmidt got"):
        classical_factorize(np.eye(4), GsVariant.RGS)
    with pytest.raises(ValueError, match="classical Gram-Schmidt got"):
        ClassicalGsState(4, GsVariant.RGS, MIXED32_64, capacity=2)


def test_classical_breakdown(rng):
    W = _problem(rng, n=100, m=3)
    W = np.concatenate([W, W[:, :1]], axis=1)
    with pytest.raises(BreakdownError):
        classical_factorize(W, GsVariant.MGS, policy=UNIFIED64)


def test_certificates_oracle(rng):
    # oracle: recompute Delta_m, Delta~_m from definitions with fresh numpy
    W = _problem(rng)
    theta = SketchOperator(SketchKind.RADEMACHER, 128, 400, seed=7)
    f, cert = rgs_factorize(W, theta, MIXED32_64)
    S = f.S.astype(np.float64)
    P = f.P.astype(np.float64)
    m = S.shape[1]
    assert cert.delta_m == pytest.approx(
        np.linalg.norm(np.eye(m) - S.T @ S), rel=1e-12)
    assert cert.delta_tilde_m == pytest.approx(
        np.linalg.norm(P - S @ f.R) / np.linalg.norm(P), rel=1e-12)
    assert cert.passes_gate()
    # sigma_q, certified from the sketch Phi Q alone, encloses the singular
    # values of Q
    lo, hi = certificates(f, _phi(400).apply_block(f.Q),
                          eps_star=_EPS_STAR).sigma_q
    sv = np.linalg.svd(f.Q.astype(np.float64), compute_uv=False)
    assert lo <= sv[-1] and sv[0] <= hi


@pytest.mark.parametrize("policy", [MIXED32_64, UNIFIED64, UNIFIED32],
                         ids=lambda p: p.mode)
def test_certificates_leave_the_sketches_unchanged(rng, policy):
    # under the binary64 policies certificates reads the state's S and P
    # without a copy, so it must not write to them, nor to Q and Phi Q on
    # the Phi path: on read-only views any in-place edit would raise, and
    # the values keep their bits
    theta = SketchOperator(SketchKind.PSRHT, 64, 400, seed=3)
    W = _problem(rng)
    f, cert = rgs_factorize(W, theta, policy)
    phi_q = _phi(400).apply_block(f.Q)
    full = certificates(f, phi_q, eps_star=_EPS_STAR)
    for a in (f.Q, f.S, f.P, phi_q):
        a.setflags(write=False)
    frozen = certificates(f)
    assert [frozen.delta_m, frozen.delta_tilde_m, frozen.cond_S] == [
        cert.delta_m, cert.delta_tilde_m, cert.cond_S]
    frozen = certificates(f, phi_q, eps_star=_EPS_STAR)
    assert dataclasses.astuple(frozen) == dataclasses.astuple(full)


def test_certificates_hold_one_k_by_m_temporary(rng):
    # E = S R - P is freed once Delta~_m is read, before the QR copies S:
    # one k x m binary64 array at a time, plus O(m^2) and LAPACK's work
    n, m, k = 4000, 64, 1024
    theta = SketchOperator(SketchKind.PSRHT, k, n, seed=3)
    f, _ = rgs_factorize(_problem(rng, n=n, m=m, cond=100.0), theta,
                         MIXED32_64, with_certificate=False)
    tracemalloc.start()
    try:
        certificates(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= k * m * 8 + 4 * m * m * 8 + 65536


def test_certificates_reject_a_factorization_with_no_column():
    # before any arithmetic: Delta~_m would be 0/0 and cond(S) undefined
    theta = SketchOperator(SketchKind.PSRHT, 64, 400, seed=3)
    empty = RgsState(theta, MIXED32_64, capacity=4).factors()
    A = generate_laplacian_2d(6)
    solved = gmres(A, np.zeros(A.n), m=4,
                   theta=SketchOperator(SketchKind.PSRHT, 16, A.n, seed=3))
    for f in (empty, solved.factors):
        assert f.S.shape[1] == 0
        with pytest.raises(ValueError, match="at least one column"):
            certificates(f)


def _gamma(j, u):
    return j * u / (1 - j * u)


@settings(max_examples=40)
@given(m=st.integers(1, 24), k_extra=st.integers(0, 120),
       n_extra=st.integers(0, 1000), log_cond=st.floats(0.0, 8.0),
       policy=st.sampled_from([UNIFIED64, MIXED32_64, UNIFIED32]),
       kind=st.sampled_from([SketchKind.PSRHT, SketchKind.RADEMACHER]),
       seed=st.integers(0, 2**32 - 1))
def test_rgs_invariants_within_certificate(dense_sketch, m, k_extra, n_extra,
                                           log_cond, policy, kind, seed):
    # Delta_m and Delta~_m are read from the stored sketches S and P. The
    # sketches of the returned Q and of W must satisfy S^T S ~ I and P ~ S R
    # within those values, up to what separates stored from recomputed
    # sketches: Q rounded to the coarse format, the binary64 applies (sums of
    # at most s < 2n terms, |Theta| having 2-norm sqrt(n)), the cast and the
    # division in the fine format, and the binary64 evaluation of both sides
    # k well above m: with k = m the sketch of W can come near rank loss
    k, u64 = 2 * m + 8 + k_extra, 2.0**-53
    n = k + n_extra
    W = _problem(np.random.default_rng(seed), n=n, m=m, cond=10.0**log_cond)
    theta = SketchOperator(kind, k, n, seed=seed)
    # the guard off: a numerically dependent column is pushed through too
    f, cert = rgs_factorize(W, theta, policy, breakdown_factor=0.0)
    uc, uf = policy.u_crs, policy.u_fine
    Q, R = f.Q.astype(np.float64), f.R
    S, P = f.S.astype(np.float64), f.P.astype(np.float64)
    SQ, PW = theta.apply_block(Q), theta.apply_block(W)
    e_apply = _gamma(2 * n, u64) * math.sqrt(n) + u64
    theta_2 = np.linalg.norm(dense_sketch(theta), 2)
    q_norms = np.linalg.norm(Q, axis=0) / (1 - uc)
    # ||SQ - S||_F <= eta, column by column
    eta = 1.01 * np.linalg.norm(q_norms * (theta_2 * (uc + 2 * uf)
                                           + 2 * e_apply))
    gram = np.linalg.norm(np.eye(m) - SQ.T @ SQ)
    assert gram <= ((1 + 4 * u64) * cert.delta_m
                    + 2 * np.linalg.norm(S, 2) * eta + eta**2
                    + _gamma(k, u64) * (np.linalg.norm(S)**2
                                        + np.linalg.norm(SQ)**2))
    p_norm = np.linalg.norm(P)
    residual = np.linalg.norm(PW - SQ @ R)
    assert residual <= ((1 + 4 * u64) * cert.delta_tilde_m * p_norm
                        + (uf + 2 * u64) * p_norm
                        + 2 * e_apply * np.linalg.norm(W)
                        + eta * np.linalg.norm(R, 2)
                        + _gamma(m + 1, u64) * (np.linalg.norm(S)
                                                + np.linalg.norm(SQ))
                        * np.linalg.norm(R))


def test_loss_of_orthogonality_identity():
    assert loss_of_orthogonality(np.eye(5)) == 0.0


def test_loss_of_orthogonality_counts_a_wide_matrix_zero_singular_values(rng):
    # a 3 x 5 X has 3 singular values; I - X^T X also has 1 twice for the
    # two absent ones, which the Frobenius norm counts
    X = rng.standard_normal((3, 5))
    assert loss_of_orthogonality(X) == pytest.approx(
        np.linalg.norm(np.eye(5) - X.T @ X), rel=1e-12)
