import weakref

import numpy as np
import pytest
import scipy.io

from sketchgs import (GsVariant, MIXED32_64, SketchKind, SketchOperator,
                      UNIFIED64, epsilon_of, rgs_factorize, synthetic_matrix)
from sketchgs import bench, certification, sketch
from sketchgs.bench import (RunConfig, load_matrix_source, run_certify,
                            run_gmres_bench, run_qr_bench)
from sketchgs.certification import omega_bar, traces


def _small_config(**kw):
    base = dict(n=600, m=20, k=128, sketch_kind=SketchKind.PSRHT, seed=0,
                policy="mixed", matrix="synthetic", k_phi=96)
    base.update(kw)
    return RunConfig(**base)


def test_load_matrix_source(tmp_path):
    A = load_matrix_source("laplacian:5")
    assert A.n == 25
    B = load_matrix_source("randsparse:40:3", seed=1)
    assert B.n == 40
    p = tmp_path / "m.mtx"
    scipy.io.mmwrite(p, A.to_scipy().tocoo(), symmetry="general")
    C = load_matrix_source(str(p))
    assert np.array_equal(A.to_scipy().toarray(), C.to_scipy().toarray())
    for spec in ("nonsense:5", "bogus"):
        with pytest.raises(ValueError, match="unrecognized matrix source"):
            load_matrix_source(spec)


def test_run_qr_bench_traces_match_oracles():
    config = _small_config(variants=(GsVariant.MGS, GsVariant.RGS))
    reports = run_qr_bench(config)
    assert set(reports) == {"mgs", "rgs"}
    W = synthetic_matrix(600, 20)
    for name, rep in reports.items():
        assert len(rep.rows) == 20
        assert rep.metadata["variant"] == name
        # final cond_W against a fresh SVD oracle
        sv = np.linalg.svd(W, compute_uv=False)
        assert rep.column("cond_W")[-1] == pytest.approx(sv[0] / sv[-1],
                                                         rel=1e-6)
    rgs = reports["rgs"]
    assert np.all(rgs.column("omega") <= rgs.column("omega_bar") + 1e-9)
    assert rgs.column("cond_Q")[-1] < 5.0
    assert np.all(np.isfinite(rgs.column("cond_S")))
    # factorization error stays at the coarse roundoff scale
    assert rgs.column("factorization_error")[-1] < 1e-5


def test_run_qr_bench_classical_matches_batch_factorize():
    from sketchgs import MIXED32_64, classical_factorize, loss_of_orthogonality
    config = _small_config(variants=(GsVariant.CGS,))
    rep = run_qr_bench(config)["cgs"]
    W = synthetic_matrix(600, 20)
    f = classical_factorize(W, GsVariant.CGS, policy=MIXED32_64,
                            breakdown_factor=0.0)
    # the streamed benchmark run is bit-identical to the batch factorization,
    # so the traced loss of orthogonality matches the oracle exactly
    assert rep.column("loss_of_orthogonality")[-1] == pytest.approx(
        loss_of_orthogonality(f.Q), rel=1e-12)
    cond = np.linalg.cond(f.Q.astype(np.float64))
    assert rep.column("cond_Q")[-1] == pytest.approx(cond, rel=1e-6)


def test_run_qr_bench_deterministic():
    config = _small_config(variants=(GsVariant.RGS,))
    a = run_qr_bench(config)["rgs"]
    b = run_qr_bench(config)["rgs"]
    for colname in ("cond_Q", "factorization_error", "omega_bar"):
        assert np.array_equal(a.column(colname), b.column(colname))


def test_run_gmres_bench():
    config = _small_config(matrix="laplacian:12", m=60, k=100,
                           policy="f64", variants=(GsVariant.RGS, GsVariant.MGS),
                           tol=1e-10)
    out = run_gmres_bench(config)
    for name, (rep, result) in out.items():
        assert result.final_residual < 1e-8, name
        assert rep.column("residual_norm")[-1] < 1e-8
        assert rep.metadata["final_residual"] == f"{result.final_residual:.17g}"
        assert rep.metadata["iterations"] == result.iterations == len(
            result.residual_history)
        assert rep.metadata["converged"] is result.converged is True
        assert rep.metadata["breakdown"] is result.breakdown is False
        # b = A·1 as it is, not scaled to a unit vector: x is near 1
        assert np.allclose(result.x, 1.0, rtol=0.0, atol=1e-6), name
    # every variant traces cond_Q of its Krylov basis
    for name, (rep, _) in out.items():
        assert np.all(rep.column("cond_Q") < 10.0), name


def test_run_gmres_bench_preconditioned():
    config = _small_config(matrix="randsparse:300:6", m=40, k=80,
                           policy="f64", variants=(GsVariant.RGS,), tol=1e-10,
                           precond=True)
    (rep, result) = run_gmres_bench(config)["rgs"]
    assert result.final_residual < 1e-10
    assert result.iterations < 40  # ILU(0) makes it converge early


def test_run_certify():
    config = _small_config(variants=(GsVariant.RGS,), eps_star=0.25)
    rep = run_certify(config)
    om = rep.column("omega")
    ob = rep.column("omega_bar")
    assert len(om) == 20
    assert np.all(ob >= om - 1e-9)  # the bound holds pointwise
    assert rep.metadata["k_phi"] == 96
    # oracle check of the final omega value; the traced span comes from the
    # coarse-precision Q, so agreement is at the binary32 roundoff scale
    W = synthetic_matrix(600, 20)
    theta = SketchOperator(SketchKind.PSRHT, 128, 600, seed=0)
    assert om[-1] == pytest.approx(epsilon_of(theta, W), abs=1e-5)


def test_unset_k_phi_is_k():
    # Phi's rows are resolved once, by the config, and the report records them
    assert RunConfig(k=64).k_phi == 64
    config = _small_config(variants=(GsVariant.RGS,), k_phi=None)
    assert config.k_phi == 128
    assert run_certify(config).metadata["k_phi"] == 128


def test_run_certify_matches_run_qr_bench():
    # both runners step the same randomized factorization, so the
    # certification columns they report agree bit for bit
    config = _small_config(variants=(GsVariant.RGS,), eps_star=0.25)
    qr = run_qr_bench(config)["rgs"]
    cert = run_certify(config)
    for colname in ("omega", "omega_bar", "cond_S"):
        assert np.array_equal(qr.column(colname), cert.column(colname))


def test_run_certify_reads_only_the_traces_it_reports(monkeypatch):
    # run_certify reports omega, omega_bar and cond_S: three leading-block
    # SVD traces, of R_S and the two whitened sketches, and none of R_Q for
    # cond_Q or the loss of orthogonality; the three keep the bits of the
    # same Rademacher run under qr-bench, which traces all four
    config = _small_config(variants=(GsVariant.RGS,), eps_star=0.25,
                           sketch_kind=SketchKind.RADEMACHER)
    calls = []
    leading_svals = certification._leading_svals
    monkeypatch.setattr(certification, "_leading_svals", lambda R:
                        calls.append(R.shape) or leading_svals(R))
    cert = run_certify(config)
    assert len(calls) == 3
    calls.clear()
    qr = run_qr_bench(config)["rgs"]
    assert len(calls) == 5  # the four traces and cond_W
    for colname in ("omega", "omega_bar", "cond_S"):
        assert np.array_equal(qr.column(colname), cert.column(colname))


def test_run_certify_drops_theta_before_the_traces(monkeypatch):
    # Theta keeps its sign blocks from its second apply on (k n <= 2^24
    # here); run_certify lets it go, blocks and all, once it has sketched Q,
    # so none of the traces' binary64 QR copies is made while it lives
    config = _small_config(sketch_kind=SketchKind.RADEMACHER, eps_star=0.25)
    assert config.k * config.n <= sketch._MATERIALIZE_LIMIT
    built = {}  # k -> weak reference to the operator with k rows
    operator = bench.SketchOperator

    def build(kind, k, n, seed):
        op = operator(kind, k, n, seed)
        built[k] = weakref.ref(op)
        return op

    theta_alive = []  # at each QR of the traces
    triangular = certification._triangular

    def qr(X):
        theta_alive.append(built[config.k]() is not None)
        return triangular(X)

    monkeypatch.setattr(bench, "SketchOperator", build)
    monkeypatch.setattr(certification, "_triangular", qr)
    run_certify(config)
    assert sorted(built) == [config.k_phi, config.k]
    assert theta_alive and not any(theta_alive)


def test_omega_bar_trace_matches_one_shot_oracle():
    # The trace and the one-shot `certification.omega_bar` whiten Phi Q by
    # the same triangular factor of S; the trace then reads each row from
    # the triangular factor of the whitened sketch, the one-shot bound from
    # an SVD of it, so they must agree at every column.
    n, m, eps_star = 1024, 20, 0.25
    W = np.random.default_rng(3).standard_normal((n, m))
    theta = SketchOperator(SketchKind.PSRHT, 128, n, seed=1)
    phi = SketchOperator(SketchKind.RADEMACHER, 96, n, seed=2)
    f, _ = rgs_factorize(W, theta, UNIFIED64)
    trace = traces(f.Q, f.S, phi_q=phi.apply_block(f.Q),
                   eps_star=eps_star)["omega_bar"]
    S_phi = phi.apply_block(f.Q)
    for i in range(m):
        assert trace[i] == pytest.approx(
            omega_bar(f.S[:, :i + 1], S_phi[:, :i + 1], eps_star), rel=1e-10)


@pytest.mark.parametrize("policy, log_cond", [(UNIFIED64, 0.0),
                                              (MIXED32_64, 0.0),
                                              (UNIFIED64, 13.0)],
                         ids=["f64", "mixed", "cond1e13"])
def test_traces_match_one_shot_oracles(policy, log_cond):
    # every row of every trace against a one-shot computation on the
    # leading columns, at the omega_bar oracle's tolerance. The cond traces
    # and np.linalg.cond both come from backward-stable factorizations,
    # each exact for a matrix within about m u64 ||X|| of X, so they agree
    # to 10 m u64 cond(X_i) relative (a Gram matrix squares that cond)
    n, m, eps_star = 1024, 16, 0.25
    W = np.random.default_rng(4).standard_normal((n, m))
    if log_cond:
        # singular values graded down to 10^-log_cond and mixed into every
        # column by a fixed rotation, so cond(W_i) rises to 10^log_cond;
        # graded columns alone would leave a Gram matrix graded too, which
        # an eigensolve resolves
        V, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((m, m)))
        W = (W * np.logspace(0.0, -log_cond, m)) @ V
    theta = SketchOperator(SketchKind.PSRHT, 128, n, seed=5)
    phi = SketchOperator(SketchKind.RADEMACHER, 96, n, seed=6)
    f, _ = rgs_factorize(W, theta, policy)
    rows = traces(f.Q, f.S, theta.apply_block(f.Q), phi.apply_block(f.Q),
                  eps_star)
    cond_w = traces(W)["cond_Q"]
    Q = f.Q.astype(np.float64)
    u64 = 2.0**-53
    for i in range(1, m + 1):
        for trace, X in ((rows["cond_Q"], Q), (cond_w, W)):
            oracle = np.linalg.cond(X[:, :i])
            assert trace[i - 1] == pytest.approx(
                oracle, rel=10 * m * u64 * oracle)
        assert rows["cond_S"][i - 1] == pytest.approx(
            np.linalg.cond(f.S[:, :i]), rel=1e-10)
        assert rows["omega"][i - 1] == pytest.approx(
            epsilon_of(theta, Q[:, :i]), rel=1e-10)
        assert rows["omega_bar"][i - 1] == pytest.approx(
            omega_bar(f.S[:, :i], phi.apply_block(Q[:, :i]), eps_star),
            rel=1e-10)
    if log_cond:
        assert cond_w[-1] > 1e12


def test_gmres_bench_cond_trace_beyond_1e8():
    # CGS in mixed precision takes cond(Q_i) of the Krylov basis to about
    # 3e8; every row is finite and matches the SVD
    config = RunConfig(matrix="laplacian:30", m=80, k=200, policy="mixed",
                       variants=(GsVariant.CGS,), precond=True, tol=1e-10)
    rep, result = run_gmres_bench(config)["cgs"]
    cond_q = rep.column("cond_Q")
    assert np.all(np.isfinite(cond_q))
    assert cond_q.max() > 1e8
    Q = result.factors.Q.astype(np.float64)
    for i, value in enumerate(cond_q, start=1):
        oracle = np.linalg.cond(Q[:, :i])
        assert value == pytest.approx(oracle,
                                      rel=10 * len(cond_q) * 2.0**-53 * oracle)


def test_omega_bar_trace_is_inf_past_dependent_column_of_S():
    # a repeated column of S leaves Phi Q without a whitening from that
    # column on; the rows before it are kept, the rest read inf
    n, eps_star = 512, 0.25
    W = np.random.default_rng(9).standard_normal((n, 4))
    Q = np.column_stack([W[:, 0], W[:, 1], W[:, 2], W[:, 1]])
    theta = SketchOperator(SketchKind.PSRHT, 64, n, seed=10)
    phi = SketchOperator(SketchKind.RADEMACHER, 48, n, seed=11)
    S = theta.apply_block(Q)
    rows = traces(Q, S, phi_q=phi.apply_block(Q), eps_star=eps_star)
    S_phi = phi.apply_block(Q)
    for i in (1, 2, 3):
        assert rows["omega_bar"][i - 1] == pytest.approx(
            omega_bar(S[:, :i], S_phi[:, :i], eps_star), rel=1e-10)
    assert rows["omega_bar"][3] == np.inf
    assert len(rows["cond_S"]) == 4


def test_traces_reject_dependent_column():
    n = 512
    W = np.random.default_rng(7).standard_normal((n, 3))
    Q = np.column_stack([W[:, 0], W[:, 1], W[:, 0]])  # repeated column
    theta = SketchOperator(SketchKind.PSRHT, 64, n, seed=8)
    with pytest.raises(np.linalg.LinAlgError, match="column 3"):
        traces(Q, theta_q=theta.apply_block(Q))
