import numpy as np
import pytest

from sketchgs import (GsVariant, MIXED32_64, SketchKind, SketchOperator,
                      UNIFIED32, UNIFIED64, certificates, classical_factorize,
                      epsilon_of, omega_bar, rgs_factorize, synthetic_matrix,
                      vector_certificate_dim)
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
def test_certificates_certify_q_and_w(rng, policy, u):
    # the rounding margin takes u_crs from the format Q is stored in
    n, m = 1024, 10
    W = rng.standard_normal((n, m))
    theta = SketchOperator(SketchKind.PSRHT, 128, n, seed=0)
    phi = _phi(n)
    f, _ = rgs_factorize(W, theta, policy)
    res = certificates(f, W, phi, eps_star=0.25)
    assert res.margin_q == u * np.linalg.cond(phi.apply_block(f.Q))
    om_q = epsilon_of(theta, f.Q)
    om_w = epsilon_of(theta, W)
    assert res.omega_bar_q >= om_q
    assert res.omega_bar_w >= om_w
    assert res.margin_ok_q and res.margin_ok_w


def test_certify_rejects_invalid_inputs(rng):
    W = rng.standard_normal((256, 5))
    theta = SketchOperator(SketchKind.PSRHT, 64, 256, seed=0)
    f, _ = rgs_factorize(W, theta, UNIFIED64)
    phi_short = SketchOperator(SketchKind.RADEMACHER, 32, 255, seed=1)
    with pytest.raises(ValueError, match="ambient dimension"):
        certificates(f, W, phi_short, eps_star=0.25)
    # classical factors carry no sketches S and P to certify against
    phi = SketchOperator(SketchKind.RADEMACHER, 32, 256, seed=1)
    classical = classical_factorize(W, GsVariant.MGS)
    with pytest.raises(ValueError, match="sketches S and P"):
        certificates(classical, W, phi, eps_star=0.25)
    # Phi certifies only at a stated single-vector accuracy eps*
    with pytest.raises(ValueError, match="eps_star"):
        certificates(f, W, phi)
    with pytest.raises(ValueError, match=r"eps_star must lie in \[0, 1\)"):
        certificates(f, phi=phi, eps_star=1.0)


_PHI_FIELDS = ("eps_star", "omega_bar_q", "margin_q", "margin_ok_q", "sigma_q",
               "omega_bar_w", "margin_w", "margin_ok_w")


@pytest.mark.parametrize("policy", [MIXED32_64, UNIFIED64, UNIFIED32],
                         ids=lambda p: p.mode)
def test_certificates_with_phi_add_fields_and_change_none(rng, policy):
    n, m = 1024, 10
    W = rng.standard_normal((n, m))
    theta = SketchOperator(SketchKind.PSRHT, 128, n, seed=0)
    f, cert = rgs_factorize(W, theta, policy)
    assert all(getattr(cert, name) is None for name in _PHI_FIELDS)
    on_w = certificates(f, W, _phi(n), eps_star=0.25)
    on_q = certificates(f, phi=_phi(n), eps_star=0.25)
    for res in (on_w, on_q):
        # Delta_m, Delta~_m and cond(S) keep their bits
        assert [res.delta_m, res.delta_tilde_m, res.cond_S] == [
            cert.delta_m, cert.delta_tilde_m, cert.cond_S]
        assert res.passes_gate() == cert.passes_gate()
        assert res.eps_star == 0.25
    # W only adds the fields on range(W); the flags are Python bools
    assert all(getattr(on_w, name) is not None for name in _PHI_FIELDS)
    assert type(on_w.margin_ok_q) is bool and type(on_w.margin_ok_w) is bool
    assert [getattr(on_q, name) for name in _PHI_FIELDS[:5]] == [
        getattr(on_w, name) for name in _PHI_FIELDS[:5]]
    assert [on_q.omega_bar_w, on_q.margin_w, on_q.margin_ok_w] == [None] * 3


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
    res = certificates(f, phi=phi, eps_star=0.25)
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
    on_w = certificates(f, W, _phi(2000, seed=5), eps_star=0.25)
    on_q = certificates(f, phi=_phi(2000, seed=5), eps_star=0.25)
    assert on_w.omega_bar_w == np.inf and on_w.margin_ok_w is False
    assert on_w.margin_w == 2.0**-24 * np.linalg.cond(
        _phi(2000, seed=5).apply_block(W))
    assert [getattr(on_w, name) for name in _PHI_FIELDS[:5]] == [
        getattr(on_q, name) for name in _PHI_FIELDS[:5]]
    assert np.isfinite(on_q.omega_bar_q)


def _sigma_q_case(name, k):
    """Factors, W, and a Phi with at most n rows with its eps*."""
    if name == "synthetic-f32":
        # the binary32 basis loses rank (as in the CLI's rank-deficient
        # sketch test): Delta_m is far above 1
        n, W, policy, eps_star = 300, synthetic_matrix(300, 250), UNIFIED32, 0.4
    else:
        n, policy, eps_star = 1024, MIXED32_64, 0.25
        W = np.random.default_rng(12345).standard_normal((n, 10))
    theta = SketchOperator(SketchKind.PSRHT, k, n, seed=0)
    f, _ = rgs_factorize(W, theta, policy, breakdown_factor=0.0)
    phi = SketchOperator(SketchKind.RADEMACHER,
                         vector_certificate_dim(eps_star, 1e-3), n, 0x0F1A)
    return f, W, phi, eps_star


@pytest.mark.parametrize("case, k, bounded", [
    ("gaussian", 512, (True, True)),
    ("gaussian", 128, (True, False)),  # omega_bar_q >= 1
    ("synthetic-f32", 260, (False, False)),  # and Delta_m >= 1
], ids=["gaussian-k512", "gaussian-k128", "synthetic-f32"])
def test_sigma_q_encloses_sigma_of_q_and_is_vacuous_where_it_must_be(
        case, k, bounded):
    f, W, phi, eps_star = _sigma_q_case(case, k)
    res = certificates(f, W, phi, eps_star=eps_star)
    lo, hi = res.sigma_q
    sv = np.linalg.svd(f.Q.astype(np.float64), compute_uv=False)
    assert lo <= sv[-1] and sv[0] <= hi
    # (1 - omega_bar_q)^-1/2 has no real value from omega_bar_q = 1 on, and
    # a lower end <= 0 bounds nothing; neither end is clipped
    assert (lo > 0.0, hi < np.inf) == bounded
    assert (hi == np.inf) == (res.omega_bar_q >= 1.0)
    assert (lo < 0.0) == (res.delta_m > 1.0)
