"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion before asserting, so the
run log doubles as an acceptance report. The large shared benchmark run
(n = 1e5, m = 300) is computed once per session and reused by the first
three tests.

All runs are single-threaded (see conftest.py): multi-threaded BLAS changes
summation order, and on the numerically singular trailing columns of the
synthetic problem that chaotically moves the measured condition numbers.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg

from sketchgs import (GsVariant, MIXED32_64, SketchKind, SketchOperator,
                      UNIFIED32, UNIFIED64, arnoldi,
                      classical_factorize, epsilon_of, generate_laplacian_2d,
                      generate_random_sparse, gmres, ilu0,
                      required_sketch_dim, rgs_factorize,
                      synthetic_matrix, vector_certificate_dim)
from sketchgs.bench import RunConfig, run_qr_bench
from sketchgs.certification import traces
from sketchgs.io import write_report

N, M, K = 100_000, 300, 5000
SEED = 1  # pinned benchmark seed


def _flag(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {_flag(ok)}  ({detail})")


def _omega_trace_max(Q, theta, from_iter=None):
    omega = traces(Q, theta_q=theta.apply_block(Q))["omega"]
    otail = omega[from_iter - 1:].max() if from_iter is not None else 0.0
    return float(omega.max()), float(otail)


@pytest.fixture(scope="module")
def big_run():
    """The shared large benchmark: factorizations of the synthetic matrix."""
    W = synthetic_matrix(N, M)
    theta = SketchOperator(SketchKind.PSRHT, K, N, SEED)
    out = {"W": W, "theta": theta}

    t0 = time.perf_counter()
    out["rgs"], _ = rgs_factorize(W, theta, MIXED32_64, with_certificate=False,
                                  breakdown_factor=0.0)
    out["cgs"] = classical_factorize(W, GsVariant.CGS, policy=MIXED32_64,
                                     breakdown_factor=0.0)
    out["mgs"] = classical_factorize(W, GsVariant.MGS, policy=MIXED32_64,
                                     breakdown_factor=0.0)
    out["rgs32"], _ = rgs_factorize(W, theta, UNIFIED32, with_certificate=False,
                                    breakdown_factor=0.0)
    out["wall"] = time.perf_counter() - t0
    out["norm_W_F"] = float(np.linalg.norm(W))
    out["norm_W_2"] = float(np.linalg.norm(W, 2))
    return out


def _errors(W, f, big):
    E = W - f.Q.astype(np.float64) @ f.R
    return (float(np.linalg.norm(E)) / big["norm_W_F"],
            float(np.linalg.norm(E, 2)) / big["norm_W_2"])


def test_criterion_1_conditioning(big_run):
    cond = {name: float(np.linalg.cond(big_run[name].Q.astype(np.float64)))
            for name in ("rgs", "cgs", "mgs", "rgs32")}
    # onset of the classical instability: first iteration with cond >= 1e3,
    # from the same trace the benchmarks use
    cond_cgs = traces(big_run["cgs"].Q)["cond_Q"]
    above = np.flatnonzero(cond_cgs >= 1e3)
    onset = int(above[0]) + 1 if above.size else None
    ok = (cond["rgs"] <= 2.0
          and 10.0 <= cond["mgs"] <= 1e4
          and 10.0 <= cond["rgs32"] <= 1e4
          and cond["cgs"] >= 1e4
          and onset is not None and 50 <= onset <= 80
          and big_run["wall"] < 120.0)
    _report("criterion 1 (synthetic orthogonalization conditioning)", ok,
            f"cond rgs={cond['rgs']:.3f} mgs={cond['mgs']:.1f} "
            f"rgs-f32={cond['rgs32']:.1f} cgs={cond['cgs']:.2e} "
            f"cgs onset={onset} wall={big_run['wall']:.0f}s")
    assert cond["rgs"] <= 2.0
    assert 10.0 <= cond["mgs"] <= 1e4
    assert 10.0 <= cond["rgs32"] <= 1e4
    assert cond["cgs"] >= 1e4
    assert onset is not None and 50 <= onset <= 80
    assert big_run["wall"] < 120.0


def test_criterion_2_factorization_error(big_run):
    W = big_run["W"]
    errs = {name: _errors(W, big_run[name], big_run)
            for name in ("rgs", "mgs", "cgs")}
    bound = 50.0 * MIXED32_64.u_crs * M**1.5
    # the degradation of the classical process is measured in the 2-norm;
    # the Frobenius norm averages the blow-up over all 300 columns and
    # understates it
    ratio = errs["cgs"][1] / errs["rgs"][1]
    ok = (errs["rgs"][0] <= bound and errs["mgs"][0] <= bound
          and ratio >= 10.0)
    _report("criterion 2 (factorization error)", ok,
            f"relF rgs={errs['rgs'][0]:.2e} mgs={errs['mgs'][0]:.2e} "
            f"bound={bound:.2e}; 2-norm cgs/rgs ratio={ratio:.1f}")
    assert errs["rgs"][0] <= bound
    assert errs["mgs"][0] <= bound
    assert ratio >= 10.0


def test_criterion_3_embedding_quality(big_run):
    omax5000, _ = _omega_trace_max(big_run["rgs"].Q, big_run["theta"])
    # a second, smaller embedding on its own factorization run
    theta1500 = SketchOperator(SketchKind.PSRHT, 1500, N, SEED)
    f1500, _ = rgs_factorize(big_run["W"], theta1500, MIXED32_64,
                             with_certificate=False, breakdown_factor=0.0)
    omax1500, otail1500 = _omega_trace_max(f1500.Q, theta1500, from_iter=70)
    ok = omax5000 <= 0.55 and otail1500 > 0.5 and omax1500 < 1.0
    _report("criterion 3 (embedding quality)", ok,
            f"k=5000 max omega={omax5000:.3f} (<=0.55); k=1500 max "
            f"omega(i>=70)={otail1500:.3f} (>0.5), max omega={omax1500:.3f} "
            f"(<1 required; ~1.05 is the mathematical floor for a 300-dim "
            f"subspace at k=1500, so this clause cannot hold)")
    assert omax5000 <= 0.55
    assert otail1500 > 0.5
    assert omax1500 < 1.0


def test_criterion_4_certification_bound():
    n, m, k = 1024, 20, 128
    eps_star = 0.25
    k_phi = vector_certificate_dim(eps_star, 1e-3)
    violations = 0
    ratios = []
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        W = rng.standard_normal((n, m))
        theta = SketchOperator(SketchKind.PSRHT, k, n, seed=trial)
        phi = SketchOperator(SketchKind.RADEMACHER, k_phi, n,
                             seed=5000 + trial)
        f, _ = rgs_factorize(W, theta, UNIFIED64)
        rows = traces(f.Q, f.S, theta.apply_block(f.Q),
                      phi.apply_block(f.Q), eps_star)
        om, ob = rows["omega"], rows["omega_bar"]
        violations += int(np.count_nonzero(ob < om))
        ratios.extend(ob / om)
    med = float(np.median(ratios))
    ok = violations == 0 and 1.3 <= med <= 3.5
    _report("criterion 4 (a-posteriori certification)", ok,
            f"bound violations={violations}/400, median ratio={med:.2f}")
    assert violations == 0
    assert 1.3 <= med <= 3.5


def test_criterion_5_certificate_bounds():
    m, k = 20, 256
    u = UNIFIED64.u_crs
    fails = eligible = 0
    for trial in range(200):
        rng = np.random.default_rng(trial)
        U, _ = np.linalg.qr(rng.standard_normal((500, m)))
        V, _ = np.linalg.qr(rng.standard_normal((m, m)))
        cond = 10.0 ** rng.uniform(1, 4)
        W = (U * np.logspace(0, -math.log10(cond), m)) @ V.T
        theta = SketchOperator(SketchKind.RADEMACHER, k, 500, seed=trial)
        f, cert = rgs_factorize(W, theta, UNIFIED64)
        if epsilon_of(theta, W) > 0.5:
            continue
        eligible += 1
        cond_w = float(np.linalg.cond(W))  # binary64 SVD oracle
        if (cert.delta_m > 20.0 * u * m**2 * cond_w
                or cert.delta_tilde_m > 6.0 * u * m**1.5):
            fails += 1
    ok = eligible > 0 and fails == 0
    _report("criterion 5 (certificate magnitude bounds)", ok,
            f"{eligible} runs with omega<=1/2, {fails} bound failures")
    assert eligible > 0
    assert fails == 0


def test_criterion_6_gmres_correctness():
    # 2D Laplacian with 1e4 unknowns, ILU(0) right preconditioning
    A = generate_laplacian_2d(100)
    rng = np.random.default_rng(0)
    x_star = rng.standard_normal(A.n)
    b = A.matvec(x_star)
    theta = SketchOperator(SketchKind.PSRHT, 200, A.n, seed=0)
    res = gmres(A, b, m=80, theta=theta, policy=UNIFIED64,
                preconditioner=ilu0(A), tol=1e-12)
    err = float(np.linalg.norm(res.x - x_star) / np.linalg.norm(x_star))

    dec = arnoldi(A, b, 80, variant=GsVariant.RGS, theta=theta,
                  policy=UNIFIED64)
    mc = dec.Q.shape[1] - 1
    AQ = np.column_stack([A.matvec(dec.Q[:, j]) for j in range(mc)])
    arn = float(np.linalg.norm(AQ - dec.Q @ dec.H[:mc + 1, :mc]))
    arn_bound = 15.0 * UNIFIED64.u_crs * 80**2 * 10.0

    worst_res = worst_err = 0.0
    for trial in range(20):
        B = generate_random_sparse(2000, 8, seed=trial)
        xs = np.random.default_rng(trial).standard_normal(2000)
        th = SketchOperator(SketchKind.PSRHT, 160, 2000, seed=trial)
        r = gmres(B, B.matvec(xs), m=80, theta=th, policy=UNIFIED64, tol=1e-12)
        x_ref = scipy.sparse.linalg.spsolve(B.to_scipy().tocsc(), B.matvec(xs))
        worst_res = max(worst_res, r.final_residual)
        worst_err = max(worst_err, float(
            np.linalg.norm(r.x - x_ref) / np.linalg.norm(x_ref)))

    ok = (res.final_residual <= 1e-8 and err <= 1e-6 and arn <= arn_bound
          and worst_res <= 1e-8 and worst_err <= 1e-6)
    _report("criterion 6 (randomized GMRES correctness)", ok,
            f"laplacian res={res.final_residual:.2e} err={err:.2e}; arnoldi "
            f"resid={arn:.2e} (bound {arn_bound:.2e}); randsparse worst "
            f"res={worst_res:.2e} err={worst_err:.2e}")
    assert res.final_residual <= 1e-8
    assert err <= 1e-6
    assert arn <= arn_bound
    assert worst_res <= 1e-8
    assert worst_err <= 1e-6


def test_criterion_7_gmres_stagnation():
    # mixed precision, no preconditioner, enough iterations that the loss of
    # orthogonality of the classical process becomes visible
    A = generate_laplacian_2d(100)
    y = np.ones(A.n)
    ay = A.matvec(y)
    b = ay / float(np.linalg.norm(ay))
    theta = SketchOperator(SketchKind.PSRHT, 800, A.n, seed=0)
    finals = {}
    for variant in (GsVariant.RGS, GsVariant.CGS, GsVariant.MGS,
                    GsVariant.CGS2):
        r = gmres(A, b, m=400, variant=variant, theta=theta,
                  policy=MIXED32_64)
        finals[variant.value] = r.final_residual
    plateau = max(finals["rgs"], finals["mgs"], finals["cgs2"])
    ok = (finals["cgs"] >= 100.0 * plateau
          and 1e-8 <= finals["rgs"] <= 1e-5)
    _report("criterion 7 (classical GMRES stagnation)", ok,
            f"final residuals cgs={finals['cgs']:.2e} rgs={finals['rgs']:.2e} "
            f"mgs={finals['mgs']:.2e} cgs2={finals['cgs2']:.2e}")
    assert finals["cgs"] >= 100.0 * plateau
    assert 1e-8 <= finals["rgs"] <= 1e-5


def test_criterion_8_oblivious_embedding_statistics(rounding_sketch_trial):
    k = required_sketch_dim(SketchKind.RADEMACHER, epsilon=0.5, delta=0.01,
                            d=10)
    assert k == 2318
    good = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k > n is intended here
        for trial in range(200):
            rng = np.random.default_rng(trial)
            V = rng.standard_normal((1024, 10))
            theta = SketchOperator(SketchKind.RADEMACHER, k, 1024, seed=trial)
            if epsilon_of(theta, V) <= 0.5:
                good += 1
        theta = SketchOperator(SketchKind.RADEMACHER, k, 1024, seed=0)
        fail_rate = rounding_sketch_trial(theta, np.ones(1024), trials=200,
                                          seed=0, eps=0.5)

    # FWHT against the dense Sylvester Hadamard matrix at n = 4096
    from sketchgs import fwht
    H = np.array([[1.0]])
    while H.shape[0] < 4096:
        H = np.block([[H, H], [H, -H]])
    x = np.random.default_rng(42).standard_normal(4096)
    fwht_err = float(np.max(np.abs(fwht(x) - H @ x)))

    ok = good >= 190 and fail_rate <= 0.01 and fwht_err <= 1e-12 * 4096
    _report("criterion 8 (oblivious embedding statistics)", ok,
            f"omega<=0.5 in {good}/200 trials; rounding-trial failure "
            f"rate={fail_rate}; fwht max err={fwht_err:.2e}")
    assert good >= 190  # >= 95%
    assert fail_rate <= 0.01  # consistent with the configured delta
    assert fwht_err <= 1e-12 * 4096


def test_criterion_9_determinism(tmp_path):
    import hashlib
    config = RunConfig(n=800, m=24, k=128, policy="f64",
                       variants=(GsVariant.RGS, GsVariant.MGS), k_phi=96)
    digests = []
    for run in range(2):
        parts = []
        for name, report in run_qr_bench(config).items():
            path = tmp_path / f"{name}_{run}.csv"
            write_report(report, path)
            # wall-clock metadata is the only intentionally varying line
            parts.append("\n".join(
                line for line in path.read_text().splitlines()
                if not line.startswith("# wall_time")))
        digests.append(hashlib.sha256("\n".join(parts).encode()).hexdigest())
    ok = digests[0] == digests[1]
    _report("criterion 9 (bit-identical reruns)", ok,
            f"sha256 {digests[0][:16]} == {digests[1][:16]}")
    assert digests[0] == digests[1]
