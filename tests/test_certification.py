import numpy as np
import pytest

from sketchgs import (CertificationParams, GsVariant, MIXED32_64, SketchKind,
                      UNIFIED64,
                      certify_factorization, classical_factorize,
                      eps_star_for_dim, epsilon_of, make_certification_sketch,
                      make_sketch, omega_bar, omega_bar_sharpness,
                      rgs_factorize, vector_certificate_dim)


def test_params_dimension():
    p = CertificationParams(eps_star=0.25, delta_star=1e-3)
    assert p.dimension() == vector_certificate_dim(0.25, 1e-3) == 584
    assert CertificationParams(k_phi=100).dimension() == 100


def test_make_certification_sketch_is_seeded():
    p = CertificationParams(eps_star=0.25, delta_star=1e-3, phi_seed=7)
    phi = make_certification_sketch(p, n=2048)
    assert phi.k == 584 and phi.n == 2048 and phi.seed == 7
    psrht = make_certification_sketch(p, n=2048, kind=SketchKind.PSRHT)
    assert psrht.kind is SketchKind.PSRHT


def test_omega_bar_upper_bounds_omega(rng):
    # statistical form of the guarantee: the bound holds across seeds
    n, d = 1024, 8
    theta = make_sketch(SketchKind.PSRHT, 96, n, seed=3)
    p = CertificationParams(eps_star=0.25, delta_star=1e-3)
    failures = 0
    for trial in range(20):
        V = rng.standard_normal((n, d))
        phi = make_certification_sketch(
            CertificationParams(eps_star=0.25, delta_star=1e-3,
                                phi_seed=trial), n)
        ob = omega_bar(theta.apply_block(V), phi.apply_block(V), p.eps_star)
        om = epsilon_of(theta, V)
        if ob < om:
            failures += 1
    assert failures == 0


def test_omega_bar_overestimation_is_moderate(rng):
    n, d = 1024, 8
    theta = make_sketch(SketchKind.PSRHT, 96, n, seed=3)
    ratios = []
    for trial in range(20):
        V = rng.standard_normal((n, d))
        phi = make_certification_sketch(
            CertificationParams(eps_star=0.25, delta_star=1e-3,
                                phi_seed=trial), n)
        ob = omega_bar(theta.apply_block(V), phi.apply_block(V), 0.25)
        om = epsilon_of(theta, V)
        ratios.append(ob / om)
    med = float(np.median(ratios))
    assert 1.0 <= med <= 5.0


def test_omega_bar_sharpness_ceiling(rng):
    # the guaranteed ceiling in terms of the exact omega and Phi's accuracy
    n, d = 512, 6
    theta = make_sketch(SketchKind.PSRHT, 64, n, seed=1)
    phi = make_sketch(SketchKind.RADEMACHER, 400, n, seed=99)
    V = rng.standard_normal((n, d))
    om = epsilon_of(theta, V)
    eps_prime = epsilon_of(phi, V)
    assert eps_prime < 0.5
    ob = omega_bar(theta.apply_block(V), phi.apply_block(V), eps_star=0.25)
    assert ob <= omega_bar_sharpness(om, 0.25, eps_prime) + 1e-12


def test_omega_bar_identity_sketches(rng):
    # with Theta = Phi = I the bound reduces to eps_star exactly
    V = rng.standard_normal((64, 5))
    ob = omega_bar(V, V, eps_star=0.1)
    assert ob == pytest.approx(0.1, abs=1e-10)


def test_omega_bar_rank_deficient_raises():
    V = np.zeros((30, 2))
    V[:, 0] = V[:, 1] = np.arange(30, dtype=np.float64)
    with pytest.raises(np.linalg.LinAlgError):
        omega_bar(V, V, 0.1)
    with pytest.raises(ValueError):
        omega_bar(np.ones((30, 2)), np.ones((30, 3)), 0.1)


def test_eps_star_for_dim_inverts_bound():
    for eps in (0.05, 0.1, 0.25, 0.5):
        k = vector_certificate_dim(eps, 1e-3)
        got = eps_star_for_dim(k, 1e-3)
        assert got <= eps + 1e-6
        assert vector_certificate_dim(got, 1e-3) <= k
    with pytest.raises(ValueError):
        eps_star_for_dim(1, 1e-3)


@pytest.mark.parametrize("policy, u", [(MIXED32_64, 2.0**-24),
                                       (UNIFIED64, 2.0**-53)],
                         ids=["mixed", "f64"])
def test_certify_factorization(rng, policy, u):
    # the rounding margin takes u_crs from the format Q is stored in
    n, m = 1024, 10
    W = rng.standard_normal((n, m))
    theta = make_sketch(SketchKind.PSRHT, 128, n, seed=0)
    phi = make_certification_sketch(CertificationParams(eps_star=0.25), n)
    f, _ = rgs_factorize(W, theta, policy)
    res = certify_factorization(f, W, phi, eps_star=0.25)
    assert res.margin_q == u * np.linalg.cond(phi.apply_block(f.Q))
    om_q = epsilon_of(theta, f.Q)
    om_w = epsilon_of(theta, W)
    assert res.omega_bar_q >= om_q
    assert res.omega_bar_w >= om_w
    assert res.margin_ok_q and res.margin_ok_w


def test_certify_rejects_invalid_inputs(rng):
    W = rng.standard_normal((256, 5))
    theta = make_sketch(SketchKind.PSRHT, 64, 256, seed=0)
    f, _ = rgs_factorize(W, theta, UNIFIED64)
    phi_short = make_sketch(SketchKind.RADEMACHER, 32, 255, seed=1)
    with pytest.raises(ValueError, match="ambient dimension"):
        certify_factorization(f, W, phi_short, eps_star=0.25)
    # classical factors carry no sketches S and P to certify against
    phi = make_sketch(SketchKind.RADEMACHER, 32, 256, seed=1)
    classical = classical_factorize(W, GsVariant.MGS)
    with pytest.raises(ValueError, match="sketches S and P"):
        certify_factorization(classical, W, phi, eps_star=0.25)
