import dataclasses

import numpy as np
import pytest

from sketchgs import (GsVariant, MIXED32_64, SketchKind, SketchOperator,
                      UNIFIED32, UNIFIED64, certificates, classical_factorize,
                      epsilon_of, loss_of_orthogonality, omega_bar,
                      rgs_factorize, synthetic_matrix, vector_certificate_dim)
from sketchgs.certification import traces


def _phi(n, seed=0x0F1A):
    # a certification sketch sized by the single-vector bound for eps* = 0.25
    return SketchOperator(SketchKind.RADEMACHER,
                          vector_certificate_dim(0.25, 1e-3), n, seed)


def test_omega_bar_upper_bounds_omega(rng):
    # statistical form of the guarantee: the bound holds across seeds
    n, d = 1024, 8
    theta = SketchOperator(SketchKind.PSRHT, 96, n, seed=3)
    failures = 0
    for trial in range(20):
        V = rng.standard_normal((n, d))
        phi = _phi(n, seed=trial)
        ob = omega_bar(theta.apply_block(V), phi.apply_block(V), 0.25)
        om = epsilon_of(theta, V)
        if ob < om:
            failures += 1
    assert failures == 0


def test_omega_bar_overestimation_is_moderate(rng):
    n, d = 1024, 8
    theta = SketchOperator(SketchKind.PSRHT, 96, n, seed=3)
    ratios = []
    for trial in range(20):
        V = rng.standard_normal((n, d))
        phi = _phi(n, seed=trial)
        ob = omega_bar(theta.apply_block(V), phi.apply_block(V), 0.25)
        om = epsilon_of(theta, V)
        ratios.append(ob / om)
    med = float(np.median(ratios))
    assert 1.0 <= med <= 5.0


def test_omega_bar_sharpness_ceiling(rng):
    # the guaranteed ceiling in terms of the exact omega and Phi's accuracy
    n, d = 512, 6
    theta = SketchOperator(SketchKind.PSRHT, 64, n, seed=1)
    phi = SketchOperator(SketchKind.RADEMACHER, 400, n, seed=99)
    V = rng.standard_normal((n, d))
    om = epsilon_of(theta, V)
    eps_prime = epsilon_of(phi, V)
    assert eps_prime < 0.5
    ob = omega_bar(theta.apply_block(V), phi.apply_block(V), eps_star=0.25)
    ceiling = (1.0 + 0.25) / (1.0 - eps_prime) * (1.0 + om) - 1.0
    assert ob <= ceiling + 1e-12


def test_omega_bar_identity_sketches(rng):
    # with Theta = Phi = I the bound reduces to eps_star exactly
    V = rng.standard_normal((64, 5))
    ob = omega_bar(V, V, eps_star=0.1)
    assert ob == pytest.approx(0.1, abs=1e-10)
    assert omega_bar(V, V, eps_star=0.0) == pytest.approx(0.0, abs=1e-10)
    # (1 -+ eps*) bound a single-vector embedding only for eps* in [0, 1);
    # a negative eps* read a bound below the exact omega
    for eps_star in (-0.1, 1.0, np.nan):
        with pytest.raises(ValueError, match="eps_star must lie in"):
            omega_bar(V, V, eps_star)


@pytest.mark.parametrize("scale, omega", [
    pytest.param(np.sqrt(2.0), 1.0, id="stretch", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 14: omega_bar reads sigma where "
                            "the bound needs 1/sigma")),
    pytest.param(np.sqrt(0.5), 0.5, id="shrink")])
def test_omega_bar_bounds_omega_of_a_scaled_identity(rng, scale, omega):
    # Theta = scale * I has exact omega |scale^2 - 1| on any range; with
    # Phi = I and eps* = 0, omega_bar must read at least that. The stretch
    # reads 0.5 below omega = 1.0, the shrink reads 1.0 above omega = 0.5
    V = rng.standard_normal((2000, 5))

    class _Scaled:
        k, n = 2000, 2000

        def apply_block(self, X):
            return scale * np.asarray(X, dtype=np.float64)

    exact = epsilon_of(_Scaled(), V)
    assert exact == pytest.approx(omega, rel=1e-12)
    assert omega_bar(scale * V, V, 0.0) >= exact


def test_omega_bar_rank_deficient_raises():
    V = np.zeros((30, 2))
    V[:, 0] = V[:, 1] = np.arange(30, dtype=np.float64)
    with pytest.raises(np.linalg.LinAlgError):
        omega_bar(V, V, 0.1)
    with pytest.raises(ValueError):
        omega_bar(np.ones((30, 2)), np.ones((30, 3)), 0.1)


@pytest.mark.parametrize("policy, u", [(MIXED32_64, 2.0**-24),
                                       (UNIFIED64, 2.0**-53)],
                         ids=["mixed", "f64"])
def test_certificates_certify_range_q(rng, policy, u):
    # the rounding margin takes u_crs from the format Q is stored in
    n, m = 1024, 10
    W = rng.standard_normal((n, m))
    theta = SketchOperator(SketchKind.PSRHT, 128, n, seed=0)
    phi = _phi(n)
    f, _ = rgs_factorize(W, theta, policy)
    res = certificates(f, phi.apply_block(f.Q), eps_star=0.25)
    assert res.margin_q == u * np.linalg.cond(phi.apply_block(f.Q))
    assert res.omega_bar_q >= epsilon_of(theta, f.Q)
    assert res.margin_ok_q


def test_certify_rejects_invalid_inputs(rng):
    W = rng.standard_normal((256, 5))
    theta = SketchOperator(SketchKind.PSRHT, 64, 256, seed=0)
    f, _ = rgs_factorize(W, theta, UNIFIED64)
    phi_q = SketchOperator(SketchKind.RADEMACHER, 32, 256,
                           seed=1).apply_block(f.Q)
    # phi_q sketches Q: a matrix with Q's column count
    for bad in (phi_q[:, :4], phi_q[:, 0], phi_q[None]):
        with pytest.raises(ValueError, match="its 5 columns"):
            certificates(f, bad, eps_star=0.25)
    # classical factors carry no sketches S and P to certify against
    classical = classical_factorize(W, GsVariant.MGS)
    with pytest.raises(ValueError, match="sketches S and P"):
        certificates(classical, phi_q, eps_star=0.25)
    # Phi certifies only at a stated single-vector accuracy eps*
    with pytest.raises(ValueError, match="eps_star"):
        certificates(f, phi_q)
    with pytest.raises(ValueError, match=r"eps_star must lie in \[0, 1\)"):
        certificates(f, phi_q, eps_star=1.0)


def test_certification_refuses_complex_and_non_finite_sketches(rng):
    # numpy would certify a complex sketch's real part, and scipy would
    # refuse a NaN with "array must not contain infs or NaNs", naming nothing
    W = rng.standard_normal((256, 5))
    theta = SketchOperator(SketchKind.PSRHT, 64, 256, seed=0)
    f, _ = rgs_factorize(W, theta, UNIFIED64)
    phi_q = SketchOperator(SketchKind.RADEMACHER, 32, 256,
                           seed=1).apply_block(f.Q)
    V_theta = theta.apply_block(f.Q)
    nan = phi_q.copy()
    nan[3, 2] = np.nan
    inf = V_theta.copy()
    inf[0, 4] = -np.inf
    calls = {"phi_q": lambda X: certificates(f, X, eps_star=0.25),
             "V_theta": lambda X: omega_bar(X, phi_q, 0.25),
             "V_phi": lambda X: omega_bar(V_theta, X, 0.25),
             "X": loss_of_orthogonality}
    for name, call in calls.items():
        good = V_theta if name == "V_theta" else phi_q
        with pytest.raises(TypeError, match=f"^complex input .* for {name}:"):
            call(good * (1 + 0j))
        for bad in (nan, inf):
            with pytest.raises(ValueError,
                               match=f"^{name} has a NaN or infinite entry$"):
                call(bad)
    # valid sketches keep their bits
    assert omega_bar(V_theta, phi_q, 0.25) == omega_bar(
        list(V_theta), list(phi_q), 0.25)


_PHI_FIELDS = ("eps_star", "omega_bar_q", "margin_q", "margin_ok_q", "sigma_q")


@pytest.mark.parametrize("policy", [MIXED32_64, UNIFIED64, UNIFIED32],
                         ids=lambda p: p.mode)
def test_certificates_with_phi_add_fields_and_change_none(rng, policy):
    n, m = 1024, 10
    W = rng.standard_normal((n, m))
    theta = SketchOperator(SketchKind.PSRHT, 128, n, seed=0)
    f, cert = rgs_factorize(W, theta, policy)
    assert all(getattr(cert, name) is None for name in _PHI_FIELDS)
    res = certificates(f, _phi(n).apply_block(f.Q), eps_star=0.25)
    # Delta_m, Delta~_m and cond(S) keep their bits
    assert [res.delta_m, res.delta_tilde_m, res.cond_S] == [
        cert.delta_m, cert.delta_tilde_m, cert.cond_S]
    assert res.passes_gate() == cert.passes_gate()
    assert res.eps_star == 0.25
    # Phi Q adds every field on range(Q); the flag is a Python bool
    assert all(getattr(res, name) is not None for name in _PHI_FIELDS)
    assert type(res.margin_ok_q) is bool


@pytest.mark.parametrize("policy", [MIXED32_64, UNIFIED64, UNIFIED32],
                         ids=lambda p: p.mode)
def test_certificates_read_the_traces_one_factor(rng, policy):
    # Delta_m, cond(S) and omega_bar_q come from one binary64 QR of S, the
    # factor the traces take, so they equal the traces' last rows bit for bit
    n, m = 1024, 10
    W = rng.standard_normal((n, m)) * np.logspace(0.0, -4.0, m)
    theta = SketchOperator(SketchKind.PSRHT, 128, n, seed=0)
    f, _ = rgs_factorize(W, theta, policy)
    phi = _phi(n)
    res = certificates(f, phi.apply_block(f.Q), eps_star=0.25)
    assert res.delta_m == traces(f.S)["loss_of_orthogonality"][-1]
    assert res.cond_S == traces(f.Q, f.S)["cond_S"][-1]
    assert res.omega_bar_q == omega_bar(f.S, phi.apply_block(f.Q), 0.25)
    # Delta~_m = ||P - S R|| / ||P||, read from S R - P: the same bits
    S, P = f.S.astype(np.float64), f.P.astype(np.float64)
    assert res.delta_tilde_m == float(np.linalg.norm(P - S @ f.R)
                                      / np.linalg.norm(P))


def test_certificates_keep_range_q_when_theta_w_is_rank_deficient():
    # W's column 3 appended again makes Theta W exactly rank deficient; the
    # guard is off, so Q gets a column for it and range(Q) stays certifiable
    W = np.random.default_rng(0).standard_normal((2000, 20))
    W = np.hstack([W, W[:, 3:4]])
    theta = SketchOperator(SketchKind.PSRHT, 200, 2000, seed=3)
    f, _ = rgs_factorize(W, theta, MIXED32_64, breakdown_factor=0.0)
    assert np.linalg.matrix_rank(theta.apply_block(W)) == 20
    phi_q = _phi(2000, seed=5).apply_block(f.Q)
    res = certificates(f, phi_q, eps_star=0.25)
    assert np.isfinite(res.omega_bar_q) and res.margin_ok_q
    # a numerically rank deficient S itself certifies nothing: omega_bar_q
    # is inf, and the margin check fails although margin <= 0.1 * inf
    S = f.S.copy()
    S[:, -1] = S[:, 3]
    bad = certificates(dataclasses.replace(f, S=S), phi_q, eps_star=0.25)
    assert bad.omega_bar_q == np.inf and bad.margin_ok_q is False
    assert [bad.margin_q, bad.sigma_q] == [res.margin_q, res.sigma_q]


def _sigma_q_case(name, k):
    """Factors, and a Phi with at most n rows with its eps*."""
    if name == "synthetic-f32":
        # the binary32 basis loses rank (as in the CLI's rank-deficient
        # sketch test): Delta_m is far above 1
        n, W, policy, eps_star = 300, synthetic_matrix(300, 250), UNIFIED32, 0.4
    else:
        n, eps_star = 1024, 0.25
        policy = UNIFIED64 if name == "gaussian-f64" else MIXED32_64
        W = np.random.default_rng(12345).standard_normal((n, 10))
    theta = SketchOperator(SketchKind.PSRHT, k, n, seed=0)
    f, _ = rgs_factorize(W, theta, policy, breakdown_factor=0.0)
    phi = SketchOperator(SketchKind.RADEMACHER,
                         vector_certificate_dim(eps_star, 1e-3), n, 0x0F1A)
    return f, phi, eps_star


@pytest.mark.parametrize("case, k, bounded", [
    ("gaussian", 512, (True, True)),
    ("gaussian", 128, (True, True)),  # omega_bar_q >= 1 does not enter
    ("gaussian-f64", 128, (True, True)),
    # cond(Phi Q) ~ 1e14 is past the rounding allowance's 1 / tau
    ("synthetic-f32", 260, (False, True)),
], ids=["gaussian-k512", "gaussian-k128", "gaussian-f64-k128",
        "synthetic-f32"])
def test_sigma_q_encloses_sigma_of_q_and_is_vacuous_where_it_must_be(
        case, k, bounded):
    f, phi, eps_star = _sigma_q_case(case, k)
    res = certificates(f, phi.apply_block(f.Q), eps_star=eps_star)
    lo, hi = res.sigma_q
    Q = f.Q.astype(np.float64)
    sv = np.linalg.svd(Q, compute_uv=False)
    assert lo <= sv[-1] and sv[0] <= hi < np.inf
    # a lower end <= 0 bounds nothing; it is not clipped
    assert (lo > 0.0, hi < np.inf) == bounded
    # with Phi = I and eps* = 0 the ends are sigma(Q) itself, to the
    # rounding allowance tau ~ 1e-10 relative to sigma_max
    exact = certificates(f, Q, eps_star=0.0).sigma_q
    assert np.allclose(exact, (sv[-1], sv[0]), rtol=0.0, atol=1e-9 * sv[0])


def test_a_sketch_with_fewer_rows_than_columns_certifies_nothing():
    # Phi Q with 10 rows for m = 20 columns has sigma_min = 0: no reading
    # may take its 10th singular value for sigma_min. A Phi with orthonormal
    # rows keeps sigma_max(Phi U) <= 1, so that reading gave omega_bar < 1
    n, m, eps_star = 2000, 20, 0.0
    W = np.random.default_rng(0).standard_normal((n, m))
    theta = SketchOperator(SketchKind.PSRHT, 200, n, seed=3)
    f, _ = rgs_factorize(W, theta, MIXED32_64)
    phi = np.linalg.qr(np.random.default_rng(1).standard_normal((n, 10)))[0].T
    phi_q = phi @ f.Q
    res = certificates(f, phi_q, eps_star=eps_star)
    assert res.margin_q == np.inf and res.margin_ok_q is False
    assert res.omega_bar_q >= 1.0
    assert omega_bar(f.S, phi_q, eps_star) >= 1.0
    trace = traces(f.Q, f.S, phi_q=phi_q, eps_star=eps_star)["omega_bar"]
    assert np.all(trace[10:] >= 1.0)
    assert res.sigma_q[0] <= 0.0 < np.linalg.svd(f.Q, compute_uv=False)[-1]
